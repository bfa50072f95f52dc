"""L-layer shared-weight transformer decoder.

Per layer: type adapters + type embeddings -> shared self-attention ->
deformable sampling on the BEV grids (with optional swap sampling) and
perspective-view sampling -> cross-attention feature aggregation -> optional
cross-type mixing -> detection head -> iterative position refinement.
One weight set is applied at every layer; there is no per-layer state other
than the query embeddings, positions and box predictions.

Sampling runs on whole arrays: each BEV grid's points live in one qswap
SampleBank, and the token gather packs every query's tokens into one
padded (N, T_max, d) tensor for the batched aggregation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .numkernel import (AttentionMask, MhaWeights, _softmax_rows, bilinear_at,
                        bilinear_sample_many, layer_norm, multi_head_attention)
from .qinit import TYPE_IMG, TYPE_RAD, TYPE_W, QuerySet
from .qmix import (QMixWeights, TypeAttentionStats, attention_block,
                   attention_type_stats, qmix_attention)
from .qswap import (BEV_KINDS, IMG_BEV, QSwapConfig, SampleBank, base_bank,
                    normalize_sample_scores, predict_base_samples,
                    select_neighbors, swap_samples)
from .scene import CameraRig, FeatureGrid, PvFeatureMap, project_points
from .weights_io import expected_shapes

PLACEMENTS = ("post_agg", "pre_agg", "post_self", "post_self_cross")


@dataclass
class DecoderConfig:
    layers: int = 6
    d: int = 256
    heads: int = 8
    num_classes: int = 10
    k_pv: int = 4
    extent: float = 51.2          # predicted centers are clipped to this square
    enable_qmix: bool = True
    enable_qswap: bool = True
    qmix_placement: str = "post_agg"
    qswap: QSwapConfig = field(default_factory=QSwapConfig)

    def validate(self):
        if self.layers < 1:
            raise ConfigError("decoder needs at least one layer")
        if self.d % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide d ({self.d})")
        if self.qmix_placement not in PLACEMENTS:
            raise ConfigError(f"unknown qmix placement {self.qmix_placement!r}")
        if self.k_pv < 0:
            raise ConfigError("k_pv must be >= 0")
        self.qswap.validate()


@dataclass
class SceneFeatures:
    """The three feature sources a decode run samples from."""

    img_bev: FeatureGrid
    rad_bev: FeatureGrid
    pv_maps: list[PvFeatureMap]
    rig: CameraRig

    def grid(self, kind: str) -> FeatureGrid:
        return self.img_bev if kind == IMG_BEV else self.rad_bev


@dataclass
class LayerOutput:
    layer: int
    class_scores: np.ndarray    # (N, C) sigmoid scores
    centers: np.ndarray         # (N, 3)
    sizes: np.ndarray           # (N, 3) w, l, h
    yaws: np.ndarray            # (N,)
    velocities: np.ndarray      # (N, 2)
    positions: np.ndarray       # (N, 3) updated query positions
    sampling_positions: np.ndarray  # (N, 3) positions the sample sets are relative to
    self_attn: np.ndarray       # (N, N) head-averaged shared self-attention
    self_stats: TypeAttentionStats
    qmix_attn: np.ndarray | None
    qmix_stats: TypeAttentionStats | None
    sample_sets: dict[str, SampleBank]


# ---------------------------------------------------------------------------
# Weight views
# ---------------------------------------------------------------------------

def mha_weights(weights, block: str, heads: int) -> MhaWeights:
    t = weights.tensors
    return MhaWeights(heads, t[f"{block}.wq"], t[f"{block}.wk"], t[f"{block}.wv"],
                      t[f"{block}.wo"], t[f"{block}.bq"], t[f"{block}.bk"],
                      t[f"{block}.bv"], t[f"{block}.bo"])


def mixing_weights(weights, block: str, heads: int) -> QMixWeights:
    t = weights.tensors
    return QMixWeights(mha_weights(weights, block, heads),
                       t[f"{block}.ln.gamma"], t[f"{block}.ln.beta"],
                       t[f"{block}.mlp.lin1.w"], t[f"{block}.mlp.lin1.b"],
                       t[f"{block}.mlp.lin2.w"], t[f"{block}.mlp.lin2.b"])


# ---------------------------------------------------------------------------
# Layer stages
# ---------------------------------------------------------------------------

def apply_type_adapter(emb: np.ndarray, types: np.ndarray, weights) -> np.ndarray:
    """Residual 2-layer adapter per type, then the learnable type embedding."""
    t = weights.tensors
    out = emb.copy()
    for code, name in ((TYPE_IMG, "img"), (TYPE_RAD, "rad"), (TYPE_W, "w")):
        sel = types == code
        if not sel.any():
            continue
        x = emb[sel]
        h = np.maximum(x @ t[f"adapter.{name}.lin1.w"].T
                       + t[f"adapter.{name}.lin1.b"], 0.0)
        out[sel] = (x + h @ t[f"adapter.{name}.lin2.w"].T
                    + t[f"adapter.{name}.lin2.b"] + t[f"type_emb.{name}"])
    return out


def sinusoidal_position_encoding(positions: np.ndarray, d: int) -> np.ndarray:
    """Per-coordinate sin/cos encoding of (x, y, z), zero-padded to d."""
    n = positions.shape[0]
    enc = np.zeros((n, d))
    per = d // 3
    pairs = per // 2
    if pairs == 0:
        return enc
    freqs = 1.0 / (10000.0 ** (np.arange(pairs) / pairs))
    for c in range(3):
        phase = positions[:, c:c + 1] * freqs[None, :]
        base = c * per
        enc[:, base:base + pairs] = np.sin(phase)
        enc[:, base + pairs:base + 2 * pairs] = np.cos(phase)
    return enc


def shared_self_attention(emb: np.ndarray, positions: np.ndarray, weights,
                          heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked attention over all queries; returns the affinity matrix.

    Positional encoding is added to queries/keys only so values stay in the
    embedding space; the head-averaged weights feed swap sampling as the
    query affinity prior.
    """
    t = weights.tensors
    pe = sinusoidal_position_encoding(positions, emb.shape[1])
    qk = emb + pe
    out, attn = multi_head_attention(qk, qk, emb, AttentionMask.open(emb.shape[0]),
                                     mha_weights(weights, "self_attn", heads))
    return layer_norm(emb + out, t["self_attn.ln.gamma"], t["self_attn.ln.beta"]), attn


def predict_base_sets(emb: np.ndarray, weights, k_base: int
                      ) -> dict[str, SampleBank]:
    """Base deformable sampling banks for every query on both BEV grids."""
    t = weights.tensors
    return {kind: base_bank(kind, *predict_base_samples(
                emb, t[f"sample.{kind}.w"], t[f"sample.{kind}.b"],
                float(t[f"sample.{kind}.range"][0]), k_base))
            for kind in BEV_KINDS}


def build_tokens(emb: np.ndarray, positions: np.ndarray, features: SceneFeatures,
                 weights, sets_by_kind: dict[str, SampleBank], k_pv: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched token gather: padded (feats, log-weight, valid-mask) tensors.

    Row i holds query i's img_bev points, then its rad_bev points (weighted
    by the banks' normalized weights), then k_pv learned pixel-offset points
    for each camera that sees the query, in rig order.  The PV scores of a
    query are softmaxed jointly over all its cameras, apart from the BEV
    weights.
    """
    t = weights.tensors
    n, d = emb.shape
    banks = [sets_by_kind[kind] for kind in BEV_KINDS]
    views = []  # (pv map, projected uv, ids of the queries the camera sees)
    if k_pv > 0:
        for cam, pv in zip(features.rig.cameras, features.pv_maps):
            uv, _, vis = project_points(positions, cam)
            if vis.any():
                views.append((pv, uv, np.flatnonzero(vis)))
    seen = np.zeros((n, len(views)), dtype=bool)
    for c, (_, _, idx) in enumerate(views):
        seen[idx, c] = True
    count = sum(b.sizes for b in banks) + k_pv * seen.sum(axis=1)
    t_max = int(count.max(initial=0))
    tok = np.zeros((n, t_max, d))
    logw = np.full((n, t_max), -np.inf)
    fill = np.zeros(n, dtype=np.int64)  # next free token column of each row

    for kind, bank in zip(BEV_KINDS, banks):
        rows, cols = np.nonzero(bank.valid)
        at = fill[rows] + cols
        tok[rows, at] = bilinear_sample_many(
            features.grid(kind), positions[rows, :2] + bank.offsets[rows, cols])
        logw[rows, at] = np.log(bank.weights[rows, cols])
        fill += bank.sizes

    if views:
        pv_scores = emb @ t["sample.pv.score.w"].T + t["sample.pv.score.b"]
        pv_off = t["sample.pv.offsets"]
        # softmax only rows some camera sees: a fully blocked row is NaN
        any_view = seen.any(axis=1)
        pv_w = _softmax_rows(np.tile(pv_scores[any_view], len(views)),
                             np.repeat(~seen[any_view], k_pv, axis=1))
        pv_w = pv_w.reshape(-1, len(views), k_pv)
        w_row = np.cumsum(any_view) - 1
        for c, (pv, uv, idx) in enumerate(views):
            pts = uv[idx][:, None, :] + pv_off[None, :, :]
            fy, fx = pv.pixel_to_frac(pts[..., 0], pts[..., 1])
            at = fill[idx][:, None] + np.arange(k_pv)
            tok[idx[:, None], at] = bilinear_at(pv.data, fy, fx)
            logw[idx[:, None], at] = np.log(pv_w[w_row[idx], c])
            fill[idx] += k_pv

    valid = np.arange(t_max) < count[:, None]
    return tok, logw, valid


def aggregate_features_batch(emb: np.ndarray, tok: np.ndarray, logw: np.ndarray,
                             valid: np.ndarray, weights) -> np.ndarray:
    """Single-query cross-attention over sampled tokens (batched over queries).

    Logits are content similarity plus the log of the normalized sampling
    weight; queries with no tokens pass through unchanged.
    """
    t = weights.tensors
    n, d = emb.shape
    n_tok = tok.shape[1]
    if n_tok == 0:
        return emb.copy()
    any_tok = valid.any(axis=1)
    qp = emb @ t["agg.wq"].T + t["agg.bq"]
    flat = tok.reshape(n * n_tok, d)
    kp = (flat @ t["agg.wk"].T + t["agg.bk"]).reshape(n, n_tok, d)
    vp = (flat @ t["agg.wv"].T + t["agg.bv"]).reshape(n, n_tok, d)
    logits = np.matmul(kp, qp[:, :, None])[:, :, 0]
    logits /= math.sqrt(d)
    logits += logw
    np.copyto(logits, -np.inf, where=~valid)
    m = logits.max(axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    np.subtract(logits, m, out=logits)
    np.exp(logits, out=logits)
    denom = logits.sum(axis=1, keepdims=True)
    denom[denom == 0.0] = 1.0
    logits /= denom
    ctx = np.matmul(logits[:, None, :], vp)[:, 0, :]
    upd = ctx @ t["agg.wo"].T + t["agg.bo"]
    return np.where(any_tok[:, None], emb + upd, emb)


def detection_head(emb: np.ndarray, positions: np.ndarray, weights,
                   config: DecoderConfig):
    """Class scores plus box regression; box center becomes the new position."""
    t = weights.tensors
    cls = 1.0 / (1.0 + np.exp(-(emb @ t["head.cls.w"].T + t["head.cls.b"])))
    raw = emb @ t["head.box.w"].T + t["head.box.b"]
    centers = positions + raw[:, :3]
    centers = np.clip(centers, -config.extent, config.extent)
    sizes = np.clip(np.exp(raw[:, 3:6]), 0.1, 30.0)
    yaws = np.arctan2(raw[:, 6], raw[:, 7])
    yaws = np.where(yaws <= -math.pi, yaws + 2.0 * math.pi, yaws)
    velocities = raw[:, 8:10]
    return cls, centers, sizes, yaws, velocities


# ---------------------------------------------------------------------------
# Full decode
# ---------------------------------------------------------------------------

def decode(features: SceneFeatures, queries: QuerySet, weights,
           config: DecoderConfig) -> list[LayerOutput]:
    """Run all layers with one shared weight set; deterministic per inputs."""
    config.validate()
    if queries.d != config.d:
        raise ConfigError(f"query dim {queries.d} does not match config d {config.d}")
    if features.img_bev.d != config.d or features.rad_bev.d != config.d:
        raise ConfigError("feature grid channels do not match config d")
    want = expected_shapes(config)
    if set(weights.tensors) != set(want):
        raise ConfigError("weight tensor set does not match config")
    for name, shape in want.items():
        if weights.tensors[name].shape != shape:
            raise ConfigError(f"weight tensor {name} has shape "
                              f"{weights.tensors[name].shape}, config wants {shape}")

    emb = queries.embeddings.astype(np.float64).copy()
    pos = queries.positions.astype(np.float64).copy()
    types = queries.types.copy()
    box_wl = queries.box_state[:, :2].astype(np.float64).copy()

    qmix_w = mixing_weights(weights, "qmix", config.heads)
    postself_w = mixing_weights(weights, "postself", config.heads)

    outputs: list[LayerOutput] = []
    for layer in range(config.layers):
        layer_positions = pos.copy()
        emb = apply_type_adapter(emb, types, weights)
        emb, affinity = shared_self_attention(emb, pos, weights, config.heads)

        qmix_attn = None
        if config.enable_qmix and config.qmix_placement == "pre_agg":
            emb, qmix_attn = qmix_attention(emb, types, qmix_w)

        sets = predict_base_sets(emb, weights, config.qswap.k_base)
        if config.enable_qswap:
            neighbors = [
                select_neighbors(i, affinity[i], box_wl, pos[:, :2], config.qswap)
                for i in range(queries.n)
            ]
            sets = {
                kind: swap_samples(sets[kind], neighbors, affinity, pos[:, :2],
                                   config.qswap)
                for kind in BEV_KINDS
            }
        for bank in sets.values():
            bank.weights = normalize_sample_scores(bank)

        tok, logw, valid = build_tokens(emb, pos, features, weights, sets,
                                        config.k_pv)
        emb = aggregate_features_batch(emb, tok, logw, valid, weights)

        if config.enable_qmix:
            if config.qmix_placement == "post_agg":
                emb, qmix_attn = qmix_attention(emb, types, qmix_w)
            elif config.qmix_placement == "post_self":
                emb, _ = attention_block(emb, AttentionMask.open(queries.n),
                                         postself_w)
            elif config.qmix_placement == "post_self_cross":
                emb, _ = attention_block(emb, AttentionMask.open(queries.n),
                                         postself_w)
                emb, qmix_attn = qmix_attention(emb, types, qmix_w)

        cls, centers, sizes, yaws, velocities = detection_head(emb, pos, weights,
                                                               config)
        pos = centers.copy()
        box_wl = sizes[:, :2].copy()

        outputs.append(LayerOutput(
            layer=layer,
            class_scores=cls,
            centers=centers,
            sizes=sizes,
            yaws=yaws,
            velocities=velocities,
            positions=pos.copy(),
            sampling_positions=layer_positions,
            self_attn=affinity,
            self_stats=attention_type_stats(affinity, types),
            qmix_attn=qmix_attn,
            qmix_stats=(attention_type_stats(qmix_attn, types)
                        if qmix_attn is not None else None),
            sample_sets=sets,
        ))
    return outputs
