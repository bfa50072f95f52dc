"""Independent reference implementations used as test oracles.

Everything here is written with naive loops and kept deliberately separate
from the package's vectorized code paths; tests compare the two.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hqfusion.numkernel import MhaWeights, multi_head_attention
from hqfusion.qinit import TYPE_NAMES, QuerySet
from hqfusion.qmix import qmix_attention
from hqfusion.qswap import (BEV_KINDS, ORIGIN_BASE, ORIGIN_SHARED, SampleSet,
                            adaptive_radius, score_shared_points)
from hqfusion.scene import MIN_CAMERA_DEPTH


def identity_mha_weights(d: int, heads: int = 1) -> MhaWeights:
    """Identity projections and zero biases."""
    eye = np.eye(d)
    zero = np.zeros(d)
    return MhaWeights(heads, eye, eye.copy(), eye.copy(), eye.copy(),
                      zero, zero.copy(), zero.copy(), zero.copy())


def empty_query_set(d: int) -> QuerySet:
    return QuerySet(np.zeros((0, d)), np.zeros((0, 3)),
                    np.zeros(0, dtype=np.int64))


def cell_center(grid, row: int, col: int) -> np.ndarray:
    """Metric (x, y) center of a FeatureGrid cell."""
    return np.array([grid.x_min + (col + 0.5) * grid.voxel,
                     grid.y_min + (row + 0.5) * grid.voxel])


def naive_affine(w, x, b):
    m, n = len(w), len(x)
    out = []
    for i in range(m):
        acc = b[i]
        for j in range(n):
            acc += w[i][j] * x[j]
        out.append(acc)
    return np.array(out)


def naive_masked_softmax(logits, blocked):
    open_vals = [l for l, b in zip(logits, blocked) if not b]
    m = max(open_vals)
    exps = [0.0 if b else math.exp(l - m) for l, b in zip(logits, blocked)]
    total = sum(exps)
    return np.array([e / total for e in exps])


def naive_layer_norm(x, gamma, beta, eps=1e-6):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / len(row)
        out[i] = [(v - mean) / math.sqrt(var + eps) for v in row]
        out[i] = out[i] * gamma + beta
    return out


def _row_affine(w, x, b):
    """Per-output-element affine; np.dot is the only primitive used."""
    return np.array([np.dot(w[i], x) + b[i] for i in range(len(b))])


def naive_mha(q_in, k_in, v_in, blocked, weights):
    """Loop-based masked multi-head attention; returns (out, mean attn)."""
    n_q, d = q_in.shape
    n_k = k_in.shape[0]
    h = weights.heads
    dh = d // h
    q = np.array([_row_affine(weights.wq, row, weights.bq) for row in q_in])
    k = np.array([_row_affine(weights.wk, row, weights.bk) for row in k_in])
    v = np.array([_row_affine(weights.wv, row, weights.bv) for row in v_in])
    ctx = np.zeros((n_q, d))
    attn_sum = np.zeros((n_q, n_k))
    for head in range(h):
        sl = slice(head * dh, (head + 1) * dh)
        for i in range(n_q):
            logits = [np.dot(q[i, sl], k[j, sl]) / math.sqrt(dh)
                      for j in range(n_k)]
            a = naive_masked_softmax(logits, blocked[i])
            attn_sum[i] += a
            for j in range(n_k):
                ctx[i, sl] += a[j] * v[j, sl]
    out = np.array([_row_affine(weights.wo, row, weights.bo) for row in ctx])
    return out, attn_sum / h


class DenseAttention:
    """An attention kernel reducer that writes the (n_q, n_k) head-mean
    matrix, blocked entries as exact zeros, then hands each block on to
    `then`, if given, so the oracles can read what a reducer was given."""

    def __init__(self, n_q, n_k=None, then=None):
        self.matrix = np.zeros((n_q, n_q if n_k is None else n_k))
        self.then = then

    def __call__(self, rows, keys, w, w_self):
        self.matrix[np.ix_(rows, keys)] = w
        if w_self is not None:
            self.matrix[rows, rows] = w_self
        if self.then is not None:
            self.then(rows, keys, w, w_self)


def dense_attention(q, k, v, weights, types=None):
    """multi_head_attention's output and its head-mean attention matrix."""
    dense = DenseAttention(len(q), len(k))
    return multi_head_attention(q, k, v, weights, types, dense), dense.matrix


def dense_qmix(q, types, weights):
    """qmix_attention's output and its head-mean attention matrix."""
    dense = DenseAttention(len(q))
    return qmix_attention(q, types, weights, dense), dense.matrix


def reduce_matrix(attn, reduce, block_rows=3):
    """Hand a dense (N, N) matrix to a reducer as an unmasked kernel would:
    every key open, `block_rows` rows a block, each block a copy."""
    keys = np.arange(attn.shape[1])
    for r0 in range(0, len(attn), block_rows):
        rows = np.arange(r0, min(r0 + block_rows, len(attn)))
        reduce(rows, keys, attn[rows].copy(), None)
    return reduce


def naive_row_mass(attn, types, num_types=3):
    """(N, 3): each row's summed weight on the keys of each type."""
    mass = np.zeros((len(attn), num_types))
    for i in range(len(attn)):
        for j in range(attn.shape[1]):
            mass[i, types[j]] += attn[i, j]
    return mass


def naive_top_keys(row, eligible, n):
    """The n heaviest eligible keys of one row by (-weight, id), and their
    weights, padded to n with -1 and 0.0."""
    ranked = sorted(eligible, key=lambda j: (-row[j], j))[:n]
    pad = n - len(ranked)
    return ([int(j) for j in ranked] + [-1] * pad,
            [float(row[j]) for j in ranked] + [0.0] * pad)


def naive_cross_type_blocked(types):
    n = len(types)
    blocked = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j or types[i] != types[j]:
                blocked[i, j] = False
            else:
                blocked[i, j] = True
    return blocked


def naive_mixing_block(q, blocked, weights):
    """Reference for the attention_block composition (MHA + LN + residual MLP)."""
    attn_out, attn = naive_mha(q, q, q, blocked, weights.mha)
    h = naive_layer_norm(q + attn_out, weights.ln_gamma, weights.ln_beta)
    hidden = np.array([_row_affine(weights.mlp_w1, row, weights.mlp_b1)
                       for row in h])
    hidden = np.maximum(hidden, 0.0)
    out = h + np.array([_row_affine(weights.mlp_w2, row, weights.mlp_b2)
                        for row in hidden])
    return out, attn


def naive_convolve3x3(image, kernel):
    """Same-size 2-D convolution with a 3x3 kernel, zero outside the image."""
    h, w = image.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            total = 0.0
            for p in range(3):
                for q in range(3):
                    y, x = i + 1 - p, j + 1 - q
                    if 0 <= y < h and 0 <= x < w:
                        total += kernel[p, q] * image[y, x]
            out[i, j] = total
    return out


def image_bev_noise(shape, noise_sigma, seed):
    """The image BEV grid's noise as first written: normal(0, 1) draws from
    stream [seed, 6] times noise_sigma, added to a zero grid."""
    grid = np.zeros(shape)
    grid += (np.random.default_rng([seed, 6]).normal(0.0, 1.0, size=shape)
             * noise_sigma)
    return grid


def dense_features(grid):
    """A FeatureGrid's (H, W, d) features: its channels times its basis, if
    it has one, so the oracles interpolate the un-factored grid."""
    return grid.data if grid.basis is None else grid.data @ grid.basis


def naive_bilinear(grid, x, y):
    """Brute-force bilinear weights computed from cell-center geometry."""
    if not (grid.x_min <= x <= grid.x_max and grid.y_min <= y <= grid.y_max):
        return np.zeros(grid.d)
    data = dense_features(grid)
    fx = (x - grid.x_min) / grid.voxel - 0.5
    fy = (y - grid.y_min) / grid.voxel - 0.5
    x0, y0 = math.floor(fx), math.floor(fy)
    acc = np.zeros(grid.d)
    for (yy, xx) in [(y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)]:
        wx = 1.0 - abs(fx - xx)
        wy = 1.0 - abs(fy - yy)
        if wx <= 0.0 or wy <= 0.0:
            continue
        yc = min(max(yy, 0), grid.data.shape[0] - 1)
        xc = min(max(xx, 0), grid.data.shape[1] - 1)
        acc += wx * wy * data[yc, xc]
    return acc


def naive_bilinear_frac(data, fy, fx):
    """Loop bilinear on raw fractional cell coords with border clamping."""
    h, w = data.shape[:2]
    y0, x0 = math.floor(fy), math.floor(fx)
    acc = np.zeros(data.shape[2])
    for (yy, xx) in [(y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)]:
        wy = 1.0 - abs(fy - yy)
        wx = 1.0 - abs(fx - xx)
        if wy <= 0.0 or wx <= 0.0:
            continue
        acc += wy * wx * data[min(max(yy, 0), h - 1), min(max(xx, 0), w - 1)]
    return acc


def naive_bilinear_at(data, fy, fx):
    """Four-corner gather: each corner's (points, d) rows copied and scaled.

    The weights, the border clamping and the order of the sum
    (00, 01, 10, 11) are those of numkernel.bilinear_at, so the two agree
    bit for bit.
    """
    fy = np.asarray(fy, dtype=np.float64)
    fx = np.asarray(fx, dtype=np.float64)
    h, w = data.shape[:2]
    y0 = np.floor(fy).astype(int)
    x0 = np.floor(fx).astype(int)
    ty = fy - y0
    tx = fx - x0
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    out = data[y0c, x0c] * ((1.0 - ty) * (1.0 - tx))[..., None]
    for (yy, xx, wgt) in ((y0c, x1c, (1.0 - ty) * tx), (y1c, x0c, ty * (1.0 - tx)),
                          (y1c, x1c, ty * tx)):
        out += data[yy, xx] * wgt[..., None]
    return out


def naive_sample_many(grid, points):
    """Metric (M, 2) points through naive_bilinear_at; zero outside the grid."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    x, y = points[:, 0], points[:, 1]
    inside = ((x >= grid.x_min) & (x <= grid.x_max)
              & (y >= grid.y_min) & (y <= grid.y_max))
    fy, fx = grid.frac_coords(x, y)
    out = naive_bilinear_at(dense_features(grid), np.where(inside, fy, 0.0),
                            np.where(inside, fx, 0.0))
    out[~inside] = 0.0
    return out


def bilinear_sample(grid, p):
    """One metric point (x, y) through naive_sample_many."""
    return naive_sample_many(grid, p)[0]


def project_to_view(p, camera):
    """Per-point pinhole projection; None when behind the camera or off the image."""
    p_cam = camera.r_wc @ (np.asarray(p, dtype=np.float64) - camera.position)
    depth = p_cam[2]
    if depth <= MIN_CAMERA_DEPTH:
        return None
    u = camera.fx * p_cam[0] / depth + camera.cx
    v = camera.fy * p_cam[1] / depth + camera.cy
    if not (0.0 <= u < camera.width and 0.0 <= v < camera.height):
        return None
    return float(u), float(v), float(depth)


def projection_matrix(camera):
    """3x4 pinhole matrix K [R | -R c] for the round-trip oracle."""
    k = np.array([[camera.fx, 0.0, camera.cx],
                  [0.0, camera.fy, camera.cy],
                  [0.0, 0.0, 1.0]])
    rt = np.hstack([camera.r_wc, (-camera.r_wc @ camera.position)[:, None]])
    return k @ rt


def project_with_matrix(camera, p):
    hom = projection_matrix(camera) @ np.array([p[0], p[1], p[2], 1.0])
    return hom[0] / hom[2], hom[1] / hom[2], hom[2]


def naive_select_neighbors(i, affinity_row, boxes_wl, positions_bev, cfg):
    """Full stable argsort of every partner by affinity, then the radius test."""
    a = np.asarray(affinity_row, dtype=np.float64)
    ids = np.arange(a.shape[0])
    ids = ids[ids != i]
    top = ids[np.argsort(-a[ids], kind="stable")][:cfg.n_neighbors]
    r = adaptive_radius(boxes_wl[i, 0], boxes_wl[i, 1], cfg.radius_factor)
    dist = np.linalg.norm(positions_bev[top] - positions_bev[i], axis=1)
    return top[dist <= r]


def brute_force_selection(pool, k_per, k_extra):
    """Optimal capped selection: max cardinality, then max total score.

    pool is a list of (score, neighbor_id, point_idx).  Enumerates every
    admissible subset (per-neighbor cap and total cap), so keep pools small.
    """
    best = None
    for r in range(min(k_extra, len(pool)) + 1):
        for subset in itertools.combinations(range(len(pool)), r):
            per = {}
            ok = True
            for idx in subset:
                j = pool[idx][1]
                per[j] = per.get(j, 0) + 1
                if per[j] > k_per:
                    ok = False
                    break
            if not ok:
                continue
            total = sum(pool[idx][0] for idx in subset)
            key = (len(subset), total)
            if best is None or key > best[0]:
                best = (key, subset)
    return set() if best is None else {pool[idx][:3] for idx in best[1]}


def naive_type_stats(attn, types, num_types=3):
    n = len(types)
    counts = [sum(1 for t in types if t == a) for a in range(num_types)]
    mass = np.zeros((num_types, num_types))
    for a in range(num_types):
        if counts[a] == 0:
            continue
        for b in range(num_types):
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    if types[i] == a and types[j] == b:
                        acc += attn[i, j]
            mass[a, b] = acc / counts[a]
    mpk = np.zeros((num_types, num_types))
    for a in range(num_types):
        for b in range(num_types):
            mpk[a, b] = mass[a, b] / counts[b] if counts[b] > 0 else 0.0
    return mass, mpk



def naive_link_rows(attn, types, k=2):
    """(targets, weights) of every row's top k keys of another type, padded
    with -1 and 0.0, by naive_top_keys."""
    rows = [naive_top_keys(attn[i], np.flatnonzero(types != types[i]), k)
            for i in range(len(types))]
    return (np.array([t for t, _ in rows], dtype=np.int64).reshape(-1, k),
            np.array([w for _, w in rows], dtype=np.float64).reshape(-1, k))


def pad_neighbors(neighbor_lists, affinities):
    """Neighbor lists and a dense affinity matrix as swap_samples takes them:
    (N, w) ids padded with -1, in list order, and each pair's affinity."""
    n = len(neighbor_lists)
    width = max((len(nb) for nb in neighbor_lists), default=0)
    ids = np.full((n, width), -1, dtype=np.int64)
    pair = np.zeros((n, width))
    for i, nb in enumerate(neighbor_lists):
        ids[i, :len(nb)] = nb
        pair[i, :len(nb)] = [affinities[i, j] for j in nb]
    return ids, pair


def naive_top_links(attn, types, confidences, conf_threshold=0.1, k=2):
    """Per-query sort of cross-type partners by (-weight, target id)."""
    links = []
    for i in np.flatnonzero(np.asarray(confidences) > conf_threshold):
        partners = np.flatnonzero(types != types[i])
        ranked = sorted(partners, key=lambda j: (-attn[i, j], j))[:k]
        links.extend(
            {"source": int(i), "target": int(j), "weight": float(attn[i, j]),
             "source_type": TYPE_NAMES[types[i]],
             "target_type": TYPE_NAMES[types[j]],
             "source_confidence": float(confidences[i])}
            for j in ranked
        )
    return links


def sample_dump_dicts(bank) -> list[dict]:
    """The `--emit-samples` list of one bank as plain dicts: every query's
    points on one grid, with absolute BEV positions."""
    names = {ORIGIN_BASE: "base", ORIGIN_SHARED: "shared"}
    xy = bank.points.tolist()
    origins = bank.origins.tolist()
    sources = bank.sources.tolist()
    scores = bank.scores.tolist()
    weights = bank.weights.tolist()
    return [
        {"owner": i,
         "points": [{"origin": names[origins[i][k]], "source": sources[i][k],
                     "position": xy[i][k], "score": scores[i][k],
                     "weight": weights[i][k]}
                    for k in range(size)]}
        for i, size in enumerate(bank.sizes.tolist())
    ]


def naive_swap_samples(bank, neighbor_lists, affinities, cfg):
    """Per-query swap loop over the rows of a SampleBank; list of SampleSets.

    Candidates are sorted by (-s-tilde, neighbor id, point index) and taken
    greedily under the per-neighbor and total caps; a taken point keeps its
    absolute BEV position.  Replace mode overwrites the weakest points
    (stable argsort, lower index first).
    """
    out = []
    for i in range(len(bank)):
        base = bank[i]
        cands = []
        for j in neighbor_lists[i]:
            j = int(j)
            nb = bank[j]
            st = score_shared_points(nb.scores, affinities[i, j],
                                     cfg.prior_strength, cfg.affinity_floor)
            cands.extend((float(st[k]), j, k, nb.points[k]) for k in range(nb.size))
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))

        accepted = []
        taken_per = {}
        for st, j, k, abs_xy in cands:
            if len(accepted) >= cfg.k_extra:
                break
            if taken_per.get(j, 0) >= cfg.k_per:
                continue
            taken_per[j] = taken_per.get(j, 0) + 1
            accepted.append((st, j, abs_xy))

        points = base.points.copy()
        scores = base.scores.copy()
        origins = base.origins.copy()
        sources = base.sources.copy()
        if accepted:
            m = len(accepted)
            new_points = np.array([a[2] for a in accepted])
            new_scores = np.array([a[0] for a in accepted])
            new_sources = np.array([a[1] for a in accepted], dtype=np.int64)
            if cfg.mode == "append":
                points = np.concatenate([points, new_points])
                scores = np.concatenate([scores, new_scores])
                origins = np.concatenate([origins,
                                          np.full(m, ORIGIN_SHARED, dtype=np.uint8)])
                sources = np.concatenate([sources, new_sources])
            else:
                victims = np.argsort(base.scores, kind="stable")[:m]
                points[victims] = new_points
                scores[victims] = new_scores
                origins[victims] = ORIGIN_SHARED
                sources[victims] = new_sources
        out.append(SampleSet(i, points, scores, origins, sources))
    return out


@dataclass
class Token:
    """One sampled feature with its source tag and normalized weight."""

    feature: np.ndarray
    weight: float
    kind: str


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def sample_features(position, embedding, features, weights, sample_sets, k_pv):
    """Per-query token gather: the oracle of the batched build_tokens.

    sample_sets maps each BEV grid kind to the query's SampleSet.  BEV
    tokens come from bilinear sampling at the set's absolute points with its
    normalized weights (a plain softmax of its scores when unset); PV tokens
    project the 3-D position into every camera that sees it and sample k_pv
    learned pixel-offset points, their scores softmaxed apart from the BEV
    sets.
    """
    tokens = []
    for kind in BEV_KINDS:
        sset = sample_sets[kind]
        w = sset.weights if sset.weights is not None else _softmax(sset.scores)
        feats = naive_sample_many(features.grid(kind), sset.points)
        tokens.extend(Token(feats[k], float(w[k]), kind) for k in range(sset.size))
    if k_pv == 0:
        return tokens
    pv_off = weights["sample.pv.offsets"]
    scores = embedding @ weights["sample.pv.score.w"].T + weights["sample.pv.score.b"]
    groups = []
    for cam, pv in zip(features.rig, features.pv_maps):
        hit = project_to_view(position, cam)
        if hit is None:
            continue
        u, v, _ = hit
        pts = np.array([u, v]) + pv_off
        fy, fx = pv.frac_coords(pts[:, 0], pts[:, 1])
        groups.append(naive_bilinear_at(pv.data, fy, fx))
    if groups:
        w = _softmax(np.tile(scores, len(groups)))
        feats = np.vstack(groups)
        tokens.extend(Token(feats[k], float(w[k]), "pv")
                      for k in range(feats.shape[0]))
    return tokens


def aggregate_features(embedding, tokens, weights):
    """Per-query aggregation with every token projected; no tokens -> identity.

    Each token gets its own key Wk tok + bk and value Wv tok + bv; the
    logits are q . k / sqrt(d) plus the log sampling weight, and the update
    is Wo (sum_j a_j v_j) + bo.
    """
    if not tokens:
        return embedding.copy()
    d = len(embedding)
    qp = _row_affine(weights["agg.wq"], embedding, weights["agg.bq"])
    logits, values = [], []
    for tk in tokens:
        kp = _row_affine(weights["agg.wk"], tk.feature, weights["agg.bk"])
        values.append(_row_affine(weights["agg.wv"], tk.feature, weights["agg.bv"]))
        logits.append(np.dot(qp, kp) / math.sqrt(d) + np.log(tk.weight))
    a = naive_masked_softmax(logits, [False] * len(tokens))
    ctx = np.zeros(d)
    for j, v in enumerate(values):
        ctx += a[j] * v
    return embedding + _row_affine(weights["agg.wo"], ctx, weights["agg.bo"])


# ---------------------------------------------------------------------------
# Detection metrics: one object per prediction and per match
# ---------------------------------------------------------------------------

METRIC_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
ERROR_MATCH_THRESHOLD = 2.0


@dataclass
class Detection:
    center: np.ndarray   # (2,) BEV x, y in meters
    yaw: float
    class_id: int
    confidence: float


def detections_from_arrays(class_scores, centers, yaws):
    """One detection per query: argmax class, max sigmoid score as confidence."""
    out = []
    for i in range(class_scores.shape[0]):
        cid = int(np.argmax(class_scores[i]))
        out.append(Detection(centers[i, :2].copy(), float(yaws[i]), cid,
                             float(class_scores[i, cid])))
    return out


def gt_detections(centers, yaws, classes):
    return [Detection(np.asarray(c[:2], dtype=np.float64).copy(), float(y),
                      int(k), 1.0) for c, y, k in zip(centers, yaws, classes)]


@dataclass
class Match:
    pred_index: int
    gt_index: int
    distance: float


def _match_class(preds, gts, cid, threshold_m):
    """Greedy matching of one class: (prediction order, matches).

    Predictions go in descending confidence (ties: lower index); each grabs
    the nearest still-unmatched ground truth within the threshold, equal
    distances going to the later ground truth.
    """
    gt_idx = [i for i, g in enumerate(gts) if g.class_id == cid]
    order = sorted((i for i, p in enumerate(preds) if p.class_id == cid),
                   key=lambda i: (-preds[i].confidence, i))
    taken = set()
    matches = []
    for pi in order:
        best, best_d = -1, threshold_m
        for gi in gt_idx:
            if gi in taken:
                continue
            d = float(np.hypot(*(preds[pi].center - gts[gi].center)))
            if d <= best_d:
                best, best_d = gi, d
        if best >= 0:
            taken.add(best)
            matches.append(Match(pi, best, best_d))
    return order, matches


def match_detections(preds, gts, threshold_m):
    """Greedy per-class matching in descending confidence (see _match_class)."""
    classes = {g.class_id for g in gts} | {p.class_id for p in preds}
    return [m for cid in sorted(classes)
            for m in _match_class(preds, gts, cid, threshold_m)[1]]


def _class_ap(preds, gts, cid, threshold):
    """101-point interpolated AP of one class at one distance threshold."""
    n_gt = sum(1 for g in gts if g.class_id == cid)
    if n_gt == 0:
        return 0.0
    order, matches = _match_class(preds, gts, cid, threshold)
    matched = {m.pred_index for m in matches}
    tp = np.array([1.0 if pi in matched else 0.0 for pi in order])
    if len(order) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, len(order) + 1)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


def average_precision(preds, gts, thresholds=METRIC_THRESHOLDS):
    """Per-class, per-threshold AP plus the mean over both."""
    per_class = {}
    values = []
    for cid in sorted({g.class_id for g in gts}):
        row = {}
        for th in thresholds:
            row[th] = _class_ap(preds, gts, cid, th)
            values.append(row[th])
        per_class[cid] = row
    map_center = float(np.mean(values)) if values else 0.0
    return {"per_class": per_class, "map_center": map_center}


def translation_orientation_errors(matches, preds, gts):
    """(mean center distance, mean absolute yaw difference in [0, pi])."""
    if not matches:
        return math.nan, math.nan
    ate = float(np.mean([m.distance for m in matches]))
    diffs = []
    for m in matches:
        dy = abs(preds[m.pred_index].yaw - gts[m.gt_index].yaw) % (2.0 * math.pi)
        diffs.append(min(dy, 2.0 * math.pi - dy))
    return ate, float(np.mean(diffs))


def naive_evaluate_layer(preds, gts):
    """The per-layer metric bundle from Detection lists."""
    ap = average_precision(preds, gts)
    matches = match_detections(preds, gts, ERROR_MATCH_THRESHOLD)
    ate, aoe = translation_orientation_errors(matches, preds, gts)
    return {"map_center": ap["map_center"], "ate": ate, "aoe": aoe,
            "num_matches": len(matches), "num_gt": len(gts)}
