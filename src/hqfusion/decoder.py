"""L-layer shared-weight transformer decoder.

Per layer: type adapters + type embeddings -> shared self-attention ->
deformable sampling on the BEV grids (with optional swap sampling) and
perspective-view sampling -> cross-attention feature aggregation -> optional
cross-type mixing -> detection head -> iterative position refinement.
One weight set, weights_io's name -> array dict, is applied at every layer;
there is no per-layer state other than the query embeddings, positions and
box predictions.

Sampling runs on whole arrays: each BEV grid's points live in one qswap
SampleBank, as absolute BEV points from base-set prediction on.  Every map
is a FeatureGrid (a PV map in pixels), so one frac_coords gives any token's
cell coordinates.  The token gather is planned once per layer (slots, log
weights and fractional cell coordinates of every query's tokens, no feature
axis; a BEV point off its grid is a zero token, never interpolated) and then
read by bilinear_at and aggregated one block of queries at a time: a block's
tokens fill one reused (B, T_max, d) buffer of at most TOKEN_BLOCK_BYTES, so
no (N, T_max, d) tensor is ever formed (row tiling as in FlashAttention, on
the query axis).
The radar BEV grid is stored as 6 channels a cell times a (6, d) basis:
its tokens are interpolated at 6 channels and mapped to d by the basis
afterwards, since bilinear sampling commutes with a channel projection.
The aggregation folds its key and value projections into the query: every
query is mapped into token space once per layer (Wk^T q) and the
attention-weighted token sum is projected once (Wv), so no per-token key or
value is ever formed.

No (N, N) attention matrix is ever formed.  The attention kernel hands
each row block's head-mean weights to a qmix.AttentionRows reducer, which
keeps per-row reductions only: each row's mass per key type, for the type
statistics and the finite check; its top partners with their affinities,
from which swap sampling keeps those inside the radius; and its top
cross-type keys (qmix.LinkRows).  The links come from one attention per
layer, the QMix attention when the layer ran it, else the shared
self-attention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (MAX_FLOAT, MIN_POSITIVE, ConfigError, bounded, one_of,
                     require_finite)
from .numkernel import (MhaWeights, bilinear_at, layer_norm,
                        multi_head_attention, softmax_rows)
from .qinit import BOX_PRIOR_WL, TYPE_IMG, TYPE_RAD, TYPE_W, QuerySet
from .qmix import (AttentionRows, LinkRows, QMixWeights, TypeAttentionStats,
                   attention_block, attention_type_stats, qmix_attention)
from .qswap import (BEV_KINDS, IMG_BEV, QSwapConfig, SampleBank, base_bank,
                    normalize_sample_scores, predict_base_samples,
                    select_neighbors, swap_samples)
from .scene import Camera, FeatureGrid, project_points
from .weights_io import expected_shapes

PLACEMENTS = ("post_agg", "pre_agg", "post_self", "post_self_cross")

# Upper bound on the float64 token features of one block of queries: the
# reused buffer of a layer's token gather holds this many bytes (or one
# query's tokens, when those are larger).
TOKEN_BLOCK_BYTES = 8 << 20


@dataclass
class DecoderConfig:
    # d carries the range of scene.feature_dim, and extent the range that
    # scene.extent declares too; RunConfig.validate ties each pair
    layers: int = bounded(6, 1, math.inf)
    d: int = bounded(256, 1, math.inf)
    heads: int = bounded(8, 1, math.inf)
    num_classes: int = bounded(10, 1, math.inf)
    k_pv: int = bounded(4, 0, math.inf)
    # predicted centers are clipped to this square of finite span
    extent: float = bounded(51.2, MIN_POSITIVE, MAX_FLOAT / 2.0)
    enable_qmix: bool = True
    enable_qswap: bool = True
    qmix_placement: str = one_of("post_agg", *PLACEMENTS)
    qswap: QSwapConfig = field(default_factory=QSwapConfig)

    def validate(self):
        if self.d % self.heads != 0:
            raise ConfigError(f"decoder.heads ({self.heads}) must divide "
                              f"decoder.d ({self.d})")
        self.qswap.validate()


@dataclass
class SceneFeatures:
    """The feature maps a decode run samples from: one PV map a camera."""

    img_bev: FeatureGrid
    rad_bev: FeatureGrid
    pv_maps: list[FeatureGrid]
    rig: list[Camera]

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
    # the link rows of one attention per layer: the QMix attention when the
    # layer mixed across types, else the head-averaged shared self-attention
    self_attn: LinkRows | None    # None when qmix_attn is kept
    self_stats: TypeAttentionStats
    qmix_attn: LinkRows | None    # None without QMix or at post_self
    qmix_stats: TypeAttentionStats | None
    sample_sets: dict[str, SampleBank]


# ---------------------------------------------------------------------------
# Weight views
# ---------------------------------------------------------------------------

def mha_weights(weights, block: str, heads: int) -> MhaWeights:
    return MhaWeights(heads, *(weights[f"{block}.{p}"] for p in
                               ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")))


def mixing_weights(weights, block: str, heads: int) -> QMixWeights:
    return QMixWeights(mha_weights(weights, block, heads),
                       weights[f"{block}.ln.gamma"], weights[f"{block}.ln.beta"],
                       weights[f"{block}.mlp.lin1.w"], weights[f"{block}.mlp.lin1.b"],
                       weights[f"{block}.mlp.lin2.w"], weights[f"{block}.mlp.lin2.b"])


# ---------------------------------------------------------------------------
# Layer stages
# ---------------------------------------------------------------------------

def apply_type_adapter(emb: np.ndarray, types: np.ndarray, weights) -> np.ndarray:
    """Residual 2-layer adapter per type, then the learnable type embedding."""
    out = emb.copy()
    for code, name in ((TYPE_IMG, "img"), (TYPE_RAD, "rad"), (TYPE_W, "w")):
        sel = types == code
        if not sel.any():
            continue
        x = emb[sel]
        h = np.maximum(x @ weights[f"adapter.{name}.lin1.w"].T
                       + weights[f"adapter.{name}.lin1.b"], 0.0)
        out[sel] = (x + h @ weights[f"adapter.{name}.lin2.w"].T
                    + weights[f"adapter.{name}.lin2.b"] + weights[f"type_emb.{name}"])
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
                          heads: int, reduce=None) -> np.ndarray:
    """Unmasked attention over all queries; `reduce` gets its affinities.

    Positional encoding is added to queries/keys only so values stay in the
    embedding space; the head-averaged weights, handed to `reduce` block by
    block, feed swap sampling as the query affinity prior.
    """
    pe = sinusoidal_position_encoding(positions, emb.shape[1])
    qk = emb + pe
    out = multi_head_attention(qk, qk, emb,
                               mha_weights(weights, "self_attn", heads),
                               reduce=reduce)
    return layer_norm(emb + out, weights["self_attn.ln.gamma"],
                      weights["self_attn.ln.beta"])


def predict_base_sets(emb: np.ndarray, positions: np.ndarray, weights,
                      k_base: int) -> dict[str, SampleBank]:
    """Base sampling banks of every query on both BEV grids, around positions."""
    return {kind: base_bank(positions, *predict_base_samples(
                emb, weights[f"sample.{kind}.w"], weights[f"sample.{kind}.b"],
                float(weights[f"sample.{kind}.range"][0]), k_base))
            for kind in BEV_KINDS}


@dataclass
class TokenSource:
    """One feature map's token points of a layer, in query-major order.

    Point j belongs to query rows[j] (ascending), fills its token column
    slots[j] and is read from the grid's data (H, W, c) at fractional cell
    coordinates (fy[j], fx[j]), then mapped to d features by the grid's
    (c, d) basis, if it has one.
    """

    rows: np.ndarray
    slots: np.ndarray
    grid: FeatureGrid
    fy: np.ndarray
    fx: np.ndarray


@dataclass
class TokenPlan:
    """A layer's token layout: everything about its tokens but the features.

    Row i of `logw`, `valid` and `sampled` covers query i's T_max token
    slots; a valid slot that no source fills holds a BEV point off its
    grid, a zero token.  The features are gathered one block of queries at
    a time into `buffer`, which every block of the layer reuses.
    """

    d: int
    logw: np.ndarray                 # (N, T_max) log sampling weights
    valid: np.ndarray                # (N, T_max) slots that hold a token
    sampled: np.ndarray              # (N, T_max) slots some source fills
    sources: list[TokenSource]
    buffer: np.ndarray | None = None

    def blocks(self):
        """Row slices of at most TOKEN_BLOCK_BYTES of features (>= 1 row)."""
        n, t_max = self.valid.shape
        step = max(1, TOKEN_BLOCK_BYTES // max(1, 8 * t_max * self.d))
        return (slice(r0, min(r0 + step, n)) for r0 in range(0, n, step))


def plan_tokens(emb: np.ndarray, positions: np.ndarray, features: SceneFeatures,
                weights, sets_by_kind: dict[str, SampleBank], k_pv: int
                ) -> TokenPlan:
    """Token layout of a layer: slots, log weights and sample coordinates.

    Row i holds query i's img_bev points, then its rad_bev points (weighted
    by the banks' normalized weights), then k_pv learned pixel-offset points
    for each camera that sees the query, in rig order.  The PV scores of a
    query are softmaxed jointly over all its cameras, apart from the BEV
    weights.  A BEV point outside its grid's extent keeps its slot and log
    weight but is left out of its source, so it is never interpolated.
    """
    n, d = emb.shape
    banks = [sets_by_kind[kind] for kind in BEV_KINDS]
    views = []  # (pv map, projected uv, ids of the queries the camera sees)
    if k_pv > 0:
        for cam, pv in zip(features.rig, features.pv_maps):
            uv, _, vis = project_points(positions, cam)
            if vis.any():
                views.append((pv, uv, np.flatnonzero(vis)))
    seen = np.zeros((n, len(views)), dtype=bool)
    for c, (_, _, idx) in enumerate(views):
        seen[idx, c] = True
    count = sum(b.sizes for b in banks) + k_pv * seen.sum(axis=1)
    t_max = int(count.max(initial=0))
    logw = np.full((n, t_max), -np.inf)
    fill = np.zeros(n, dtype=np.int64)  # next free token column of each row
    sources = []

    for kind, bank in zip(BEV_KINDS, banks):
        grid = features.grid(kind)
        rows, cols = np.nonzero(bank.valid)
        at = fill[rows] + cols
        x, y = bank.points[rows, cols].T
        on = ((x >= grid.x_min) & (x <= grid.x_max)
              & (y >= grid.y_min) & (y <= grid.y_max))
        sources.append(TokenSource(rows[on], at[on], grid,
                                   *grid.frac_coords(x[on], y[on])))
        # a sampling weight that underflowed to 0 is a log weight of -inf:
        # that token gets no attention
        with np.errstate(divide="ignore"):
            logw[rows, at] = np.log(bank.weights[rows, cols])
        fill += bank.sizes

    if views:
        pv_scores = (emb @ weights["sample.pv.score.w"].T
                     + weights["sample.pv.score.b"])
        pv_off = weights["sample.pv.offsets"]
        pv_w = softmax_rows(np.tile(pv_scores, len(views)),
                            np.repeat(~seen, k_pv, axis=1))
        pv_w = pv_w.reshape(n, len(views), k_pv)
        for c, (pv, uv, idx) in enumerate(views):
            pts = uv[idx][:, None, :] + pv_off[None, :, :]
            fy, fx = pv.frac_coords(pts[..., 0], pts[..., 1])
            at = fill[idx][:, None] + np.arange(k_pv)
            sources.append(TokenSource(np.repeat(idx, k_pv), at.ravel(),
                                       pv, fy.ravel(), fx.ravel()))
            with np.errstate(divide="ignore"):
                logw[idx[:, None], at] = np.log(pv_w[idx, c])
            fill[idx] += k_pv

    valid = np.arange(t_max) < count[:, None]
    sampled = np.zeros_like(valid)
    for src in sources:
        sampled[src.rows, src.slots] = True
    return TokenPlan(d, logw, valid, sampled, sources)


def build_tokens(plan: TokenPlan, rows: slice
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token gather of one block of queries: (feats, log-weight, valid-mask).

    Interpolates each source's points of the queries in `rows` (a slice of
    the plan's rows) with bilinear_at, applies the source's basis, and
    scatters them into their slots.
    The feature tensor is a view of the plan's buffer, overwritten by the
    next call; its padded and off-grid slots hold zeros.
    """
    r0, r1 = rows.start, rows.stop
    m, t_max = r1 - r0, plan.valid.shape[1]
    if plan.buffer is None or len(plan.buffer) < m:
        plan.buffer = np.empty((m, t_max, plan.d))
    tok = plan.buffer[:m]
    tok[~plan.sampled[r0:r1]] = 0.0
    flat = tok.reshape(m * t_max, plan.d)
    for src in plan.sources:
        lo, hi = np.searchsorted(src.rows, (r0, r1))
        if hi > lo:
            feats = bilinear_at(src.grid.data, src.fy[lo:hi], src.fx[lo:hi])
            if src.grid.basis is not None:
                feats = feats @ src.grid.basis
            flat[(src.rows[lo:hi] - r0) * t_max + src.slots[lo:hi]] = feats
    return tok, plan.logw[r0:r1], plan.valid[r0:r1]


def aggregate_features_batch(emb: np.ndarray, u: np.ndarray, tok: np.ndarray,
                             logw: np.ndarray, valid: np.ndarray, weights
                             ) -> np.ndarray:
    """Single-query cross-attention over sampled tokens (batched over queries).

    Logits are content similarity plus the log of the normalized sampling
    weight; queries with no tokens pass through unchanged.  The key and value
    projections are folded into the query side, so no token is projected:
    u holds each query in token space, Wk^T qp with qp = Wq q + bq, and a
    logit is tok . u (the key bias adds bk . qp to every logit of a row,
    which the softmax cancels), and since a row's attention weights sum
    to 1 its context is (sum_j a_j tok_j) Wv^T + bv.  Padded token slots
    get weight exactly 0 and must hold finite values (build_tokens zero-fills
    them), so they add nothing to the weighted token sum.
    """
    d = emb.shape[1]
    if tok.shape[1] == 0:
        return emb.copy()
    any_tok = valid.any(axis=1)
    logits = np.matmul(tok, u[:, :, None])[:, :, 0]
    logits /= math.sqrt(d)
    logits += logw
    a = softmax_rows(logits, ~valid)
    mixed = np.matmul(a[:, None, :], tok)[:, 0, :]
    ctx = mixed @ weights["agg.wv"].T + weights["agg.bv"]
    upd = ctx @ weights["agg.wo"].T + weights["agg.bo"]
    return np.where(any_tok[:, None], emb + upd, emb)


def gather_and_aggregate(emb: np.ndarray, positions: np.ndarray,
                         features: SceneFeatures, weights,
                         sets_by_kind: dict[str, SampleBank], k_pv: int
                         ) -> np.ndarray:
    """Feature sampling and aggregation of a layer, one query block at a time."""
    plan = plan_tokens(emb, positions, features, weights, sets_by_kind, k_pv)
    # every query in token space, projected once for all blocks
    u = (emb @ weights["agg.wq"].T + weights["agg.bq"]) @ weights["agg.wk"]
    out = np.empty_like(emb)
    for rows in plan.blocks():
        tok, logw, valid = build_tokens(plan, rows)
        out[rows] = aggregate_features_batch(emb[rows], u[rows], tok, logw,
                                             valid, weights)
    return out


def detection_head(emb: np.ndarray, positions: np.ndarray, weights,
                   config: DecoderConfig):
    """Class scores plus box regression; box center becomes the new position."""
    raw = emb @ weights["head.box.w"].T + weights["head.box.b"]
    # an exp that overflows to inf is exact here: the sigmoid gives 0 and the
    # size clip 30
    with np.errstate(over="ignore"):
        cls = 1.0 / (1.0 + np.exp(-(emb @ weights["head.cls.w"].T
                                    + weights["head.cls.b"])))
        sizes = np.clip(np.exp(raw[:, 3:6]), 0.1, 30.0)
    centers = positions + raw[:, :3]
    centers = np.clip(centers, -config.extent, config.extent)
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
    pv, rig = features.pv_maps, features.rig
    if len(pv) != len(rig):
        raise ConfigError(f"{len(pv)} PV maps for {len(rig)} cameras")
    if any(m.d != config.d for m in (features.img_bev, features.rad_bev, *pv)):
        raise ConfigError("feature map widths do not match config d")
    want = expected_shapes(config)
    if set(weights) != set(want):
        raise ConfigError("weight tensor set does not match config")
    for name, shape in want.items():
        if weights[name].shape != shape:
            raise ConfigError(f"weight tensor {name} has shape "
                              f"{weights[name].shape}, config wants {shape}")

    emb = queries.embeddings.astype(np.float64).copy()
    pos = queries.positions.astype(np.float64).copy()
    types = queries.types.copy()
    box_wl = np.tile(BOX_PRIOR_WL, (queries.n, 1))

    qmix_w = mixing_weights(weights, "qmix", config.heads)
    postself_w = mixing_weights(weights, "postself", config.heads)

    # whether a layer runs the QMix attention, whose links it then keeps
    mixed = config.enable_qmix and config.qmix_placement != "post_self"
    n_neighbors = config.qswap.n_neighbors if config.enable_qswap else 0

    outputs: list[LayerOutput] = []
    for layer in range(config.layers):
        emb = apply_type_adapter(emb, types, weights)
        self_rows = AttentionRows(types, n_neighbors, links=not mixed)
        emb = shared_self_attention(emb, pos, weights, config.heads, self_rows)
        require_finite("self-attention output", emb, layer)
        require_finite("self-attention affinities", self_rows.mass, layer)

        qmix_rows = AttentionRows(types) if mixed else None
        if mixed and config.qmix_placement == "pre_agg":
            emb = qmix_attention(emb, types, qmix_w, qmix_rows)

        sets = predict_base_sets(emb, pos, weights, config.qswap.k_base)
        # before swap_samples, whose sorts would read a NaN score as no point
        for kind, bank in sets.items():
            require_finite(f"{kind} base scores", bank.scores, layer)
        if config.enable_qswap:
            candidates = self_rows.neighbors
            neighbors = np.full_like(candidates, -1)
            for i in range(queries.n):
                inside = select_neighbors(i, candidates[i], box_wl, pos[:, :2],
                                          config.qswap)
                neighbors[i, inside] = candidates[i, inside]
            # cfg by keyword: perfbench/tracer.py counts caps from kwargs["cfg"]
            sets = {
                kind: swap_samples(sets[kind], neighbors, self_rows.affinities,
                                   cfg=config.qswap)
                for kind in BEV_KINDS
            }
        for bank in sets.values():
            bank.weights = normalize_sample_scores(bank)

        emb = gather_and_aggregate(emb, pos, features, weights, sets,
                                   config.k_pv)

        if config.enable_qmix:
            if config.qmix_placement == "post_agg":
                emb = qmix_attention(emb, types, qmix_w, qmix_rows)
            elif config.qmix_placement == "post_self":
                emb = attention_block(emb, postself_w)
            elif config.qmix_placement == "post_self_cross":
                emb = attention_block(emb, postself_w)
                emb = qmix_attention(emb, types, qmix_w, qmix_rows)

        cls, centers, sizes, yaws, velocities = detection_head(emb, pos, weights,
                                                               config)
        for array in (cls, centers, sizes, yaws, velocities):
            require_finite("detection head output", array, layer)
        pos = centers.copy()
        box_wl = sizes[:, :2].copy()

        outputs.append(LayerOutput(
            layer=layer,
            class_scores=cls,
            centers=centers,
            sizes=sizes,
            yaws=yaws,
            velocities=velocities,
            self_attn=None if mixed else self_rows.links,
            self_stats=attention_type_stats(self_rows.mass, types),
            qmix_attn=qmix_rows.links if mixed else None,
            qmix_stats=(attention_type_stats(qmix_rows.mass, types)
                        if mixed else None),
            sample_sets=sets,
        ))
    return outputs
