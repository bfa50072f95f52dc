"""Cross-type query mixing.

Self-attention over a mixed query set tends to favor same-type partners,
which starves the cross-modal exchange the heterogeneous initialization was
meant to enable.  The mixing layer here blocks attention between distinct
queries of the same type (diagonals stay open as a fallback), forcing each
query to consolidate evidence from the other two types: the attention
kernel's rows are grouped by query type, and it forms no logit for a
same-type key.  The module also hosts the type-to-type attention diagnostics
and the top-link extraction used by the analysis commands: a decoder layer
reduces its matrix to link rows, and the report filters them by confidence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import MhaWeights, layer_norm, multi_head_attention
from .qinit import TYPE_NAMES

NUM_TYPES = len(TYPE_NAMES)


@dataclass
class QMixWeights:
    """Masked attention block weights: MHA + layer norm + residual MLP."""

    mha: MhaWeights
    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    mlp_w1: np.ndarray   # (4d, d)
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray   # (d, 4d)
    mlp_b2: np.ndarray


def attention_block(q: np.ndarray, weights: QMixWeights,
                    types: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Residual attention, cross-type masked when given `types`, followed by
    a pre-normalized residual MLP."""
    attn_out, attn = multi_head_attention(q, q, q, weights.mha, types)
    h = layer_norm(q + attn_out, weights.ln_gamma, weights.ln_beta)
    hidden = np.maximum(h @ weights.mlp_w1.T + weights.mlp_b1, 0.0)
    return h + hidden @ weights.mlp_w2.T + weights.mlp_b2, attn


def qmix_attention(q: np.ndarray, types: np.ndarray, weights: QMixWeights
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Cross-type masked attention update.

    A query sees the keys of the other types and its own key.  Returns the
    updated embeddings and the head-averaged attention matrix; same-type
    off-diagonal entries of the latter are exact zeros.
    """
    return attention_block(q, weights, types)


@dataclass
class TypeAttentionStats:
    """3x3 type-to-type attention summaries (row = source, col = key).

    mass rows sum to 1 for row-stochastic attention; mean_per_key divides
    each entry by the key count of that type (0 when the type is absent).
    """

    mass: np.ndarray
    mean_per_key: np.ndarray
    counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "types": list(TYPE_NAMES),
            "counts": self.counts.tolist(),
            "mass": self.mass.tolist(),
            "mean_per_key": self.mean_per_key.tolist(),
        }


def attention_type_stats(attn: np.ndarray, types: np.ndarray) -> TypeAttentionStats:
    """Aggregate an attention matrix into per-type mass and per-key means.

    One contraction with the (N, 3) one-hot type matrix sums every
    type-to-type block; an absent type has an all-zero column, so its row
    and column of both summaries are exact zeros.
    """
    types = np.asarray(types)
    onehot = (types[:, None] == np.arange(NUM_TYPES)).astype(np.float64)
    counts = np.bincount(types, minlength=NUM_TYPES)
    safe = np.maximum(counts, 1)
    mass = onehot.T @ attn @ onehot / safe[:, None]
    return TypeAttentionStats(mass, mass / safe[None, :], counts)


LINK_CONF_THRESHOLD = 0.1   # sources must be more confident than this
LINKS_PER_QUERY = 2


@dataclass
class LinkRows:
    """Each query's LINKS_PER_QUERY heaviest cross-type keys of one matrix.

    Row i holds query i's targets by descending weight, ties to the lower
    target id, and their exact weights; only its first counts[i] =
    min(cross-type partners, LINKS_PER_QUERY) entries are links.
    """

    targets: np.ndarray   # (N, LINKS_PER_QUERY) key ids
    weights: np.ndarray   # (N, LINKS_PER_QUERY) attention weights
    counts: np.ndarray    # (N,)


def link_rows(attn: np.ndarray, types: np.ndarray) -> LinkRows:
    """Reduce an attention matrix to the top cross-type keys of every row.

    Each pass takes the masked row maxima and then masks them; argmax
    returns the first maximum, so equal weights go to the lower key id.
    Same-type keys (including self) are masked explicitly, so this is also
    valid on unmasked self-attention matrices.
    """
    types = np.asarray(types)
    ids = np.arange(len(types))
    scores = np.where(types[None, :] == types[:, None], -np.inf, attn)
    targets = np.empty((len(types), LINKS_PER_QUERY), dtype=np.int64)
    for k in range(LINKS_PER_QUERY):
        targets[:, k] = scores.argmax(axis=1)
        scores[ids, targets[:, k]] = -np.inf
    partners = len(types) - np.bincount(types, minlength=NUM_TYPES)[types]
    return LinkRows(targets, attn[ids[:, None], targets],
                    np.minimum(partners, LINKS_PER_QUERY))


def extract_top_links(rows: LinkRows, types: np.ndarray,
                      confidences: np.ndarray) -> list[dict]:
    """Top cross-type links of every query above the confidence threshold.

    Sources go in ascending id, each with the first counts[i] targets of
    its row, already in link order (see link_rows).
    """
    types = np.asarray(types)
    confidences = np.asarray(confidences)
    sources = np.flatnonzero(confidences > LINK_CONF_THRESHOLD)
    keep = np.arange(LINKS_PER_QUERY) < rows.counts[sources, None]
    src = np.broadcast_to(sources[:, None], keep.shape)[keep]
    dst = rows.targets[sources][keep]
    return [
        {"source": i, "target": j, "weight": w, "source_type": TYPE_NAMES[a],
         "target_type": TYPE_NAMES[b], "source_confidence": c}
        for i, j, w, a, b, c in zip(
            src.tolist(), dst.tolist(), rows.weights[sources][keep].tolist(),
            types[src].tolist(), types[dst].tolist(),
            confidences[src].tolist())
    ]
