"""Cross-type query mixing.

Self-attention over a mixed query set tends to favor same-type partners,
which starves the cross-modal exchange the heterogeneous initialization was
meant to enable.  The mixing layer here blocks attention between distinct
queries of the same type (diagonals stay open as a fallback), forcing each
query to consolidate evidence from the other two types: the attention
kernel's rows are grouped by query type, and it forms no logit for a
same-type key.  The module also hosts the reducer that a decoder layer
hands the attention kernel, AttentionRows: it keeps each row's weight mass
per key type, from which the type-to-type diagnostics are taken, each row's
top cross-type keys (LinkRows, which the report filters by confidence into
links), and each row's top partners for swap sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import MhaWeights, layer_norm, multi_head_attention, top_keys
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
                    types: np.ndarray | None = None, reduce=None) -> np.ndarray:
    """Residual attention, cross-type masked when given `types`, followed by
    a pre-normalized residual MLP; `reduce` is handed to the attention
    kernel (see multi_head_attention)."""
    attn_out = multi_head_attention(q, q, q, weights.mha, types, reduce)
    h = layer_norm(q + attn_out, weights.ln_gamma, weights.ln_beta)
    hidden = np.maximum(h @ weights.mlp_w1.T + weights.mlp_b1, 0.0)
    return h + hidden @ weights.mlp_w2.T + weights.mlp_b2


def qmix_attention(q: np.ndarray, types: np.ndarray, weights: QMixWeights,
                   reduce=None) -> np.ndarray:
    """Cross-type masked attention update.

    A query sees the keys of the other types and its own key.  Returns the
    updated embeddings; `reduce` gets the head-averaged weights block by
    block, with no weight for a same-type key other than the query's own.
    """
    return attention_block(q, weights, types, reduce)


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


def attention_type_stats(row_mass: np.ndarray, types: np.ndarray
                         ) -> TypeAttentionStats:
    """Aggregate each row's attention mass per key type (N, 3) into per-type
    mass and per-key means.

    One contraction with the (N, 3) one-hot type matrix sums the rows of
    every source type; an absent type has an all-zero column, so its row
    and column of both summaries are exact zeros.
    """
    types = np.asarray(types)
    onehot = (types[:, None] == np.arange(NUM_TYPES)).astype(np.float64)
    counts = np.bincount(types, minlength=NUM_TYPES)
    safe = np.maximum(counts, 1)
    mass = onehot.T @ row_mass / safe[:, None]
    return TypeAttentionStats(mass, mass / safe[None, :], counts)


LINK_CONF_THRESHOLD = 0.1   # sources must be more confident than this
LINKS_PER_QUERY = 2


@dataclass
class LinkRows:
    """Each query's LINKS_PER_QUERY heaviest cross-type keys of one attention.

    Row i holds query i's targets by descending weight, ties to the lower
    target id, and their exact weights; only its first counts[i] =
    min(cross-type partners, LINKS_PER_QUERY) entries are links.  The
    entries after them are padding: target -1, weight 0.0.
    """

    targets: np.ndarray   # (N, LINKS_PER_QUERY) key ids
    weights: np.ndarray   # (N, LINKS_PER_QUERY) attention weights
    counts: np.ndarray    # (N,)


class AttentionRows:
    """Per-row reductions of one self-attention, filled block by block.

    An instance is the `reduce` argument of multi_head_attention for a
    self-attention over queries of `types`.  It keeps:

    - mass (N, 3): each row's weight on the keys of each type.  A NaN or
      infinite weight makes its row's mass non-finite.
    - links: LinkRows of the top keys of another type, when `links`.
    - neighbors, affinities (N, m): each row's m = min(n_neighbors, N - 1)
      heaviest open keys other than its own, by descending weight, ties to
      the lower id, and their exact weights; a row with fewer ends in id
      -1, weight 0.0.

    Unmasked, a block's keys are every query, so same-type keys are kept
    out of the links and the own key out of the neighbors here; masked,
    the open keys are the other types' already.
    """

    def __init__(self, types: np.ndarray, n_neighbors: int = 0,
                 links: bool = True):
        self.types = np.asarray(types)
        n = len(self.types)
        self.onehot = (self.types[:, None] == np.arange(NUM_TYPES)
                       ).astype(np.float64)
        self.mass = np.zeros((n, NUM_TYPES))
        self.links = None
        if links:
            partners = n - np.bincount(self.types, minlength=NUM_TYPES)[self.types]
            self.links = LinkRows(np.full((n, LINKS_PER_QUERY), -1, np.int64),
                                  np.zeros((n, LINKS_PER_QUERY)),
                                  np.minimum(partners, LINKS_PER_QUERY))
        m = max(0, min(n_neighbors, n - 1))
        self.neighbors = np.full((n, m), -1, np.int64)
        self.affinities = np.zeros((n, m))
        # the last block's keys and their types: a group's blocks share one
        # key array
        self._keys = None

    def __call__(self, rows, keys, w, w_self):
        if keys is not self._keys:
            self._keys = keys
            self._key_types, self._key_onehot = self.types[keys], self.onehot[keys]
        mass = w @ self._key_onehot
        row_types = self.types[rows]
        if w_self is not None:
            mass[np.arange(len(rows)), row_types] += w_self
        self.mass[rows] = mass
        if self.links is not None:
            cross = w if w_self is not None else np.where(
                self._key_types == row_types[:, None], -np.inf, w)
            self._top(self.links.targets, self.links.weights, rows, keys, cross)
        if self.neighbors.shape[1]:
            if w_self is None:
                w[np.arange(len(rows)), rows] = -np.inf
            self._top(self.neighbors, self.affinities, rows, keys, w)

    @staticmethod
    def _top(ids, weights, rows, keys, w):
        cols, vals = top_keys(w, ids.shape[1])
        m = cols.shape[1]
        ids[rows, :m] = np.where(cols >= 0, keys[cols], -1)
        weights[rows, :m] = vals


def extract_top_links(rows: LinkRows, types: np.ndarray,
                      confidences: np.ndarray) -> list[dict]:
    """Top cross-type links of every query above the confidence threshold.

    Sources go in ascending id, each with the first counts[i] targets of
    its row, already in link order (see LinkRows).
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
