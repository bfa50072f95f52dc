"""Independent reference implementations used as test oracles.

Everything here is written with naive loops and kept deliberately separate
from the package's vectorized code paths; tests compare the two.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hqfusion.decoder import aggregate_features_batch
from hqfusion.numkernel import bilinear_at, bilinear_sample_many
from hqfusion.qswap import (BEV_KINDS, ORIGIN_SHARED, SampleSet,
                            score_shared_points)
from hqfusion.scene import project_to_view


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


def naive_bilinear(grid, x, y):
    """Brute-force bilinear weights computed from cell-center geometry."""
    if not (grid.x_min <= x <= grid.x_max and grid.y_min <= y <= grid.y_max):
        return np.zeros(grid.d)
    fx = (x - grid.x_min) / grid.voxel - 0.5
    fy = (y - grid.y_min) / grid.voxel - 0.5
    x0, y0 = math.floor(fx), math.floor(fy)
    acc = np.zeros(grid.d)
    for (yy, xx) in [(y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)]:
        wx = 1.0 - abs(fx - xx)
        wy = 1.0 - abs(fy - yy)
        if wx <= 0.0 or wy <= 0.0:
            continue
        yc = min(max(yy, 0), grid.h - 1)
        xc = min(max(xx, 0), grid.w - 1)
        acc += wx * wy * grid.data[yc, xc]
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


def naive_swap_samples(bank, neighbor_lists, affinities, positions_bev, cfg):
    """Per-query swap loop over the rows of a SampleBank; list of SampleSets.

    Candidates are sorted by (-s-tilde, neighbor id, point index) and taken
    greedily under the per-neighbor and total caps; replace mode overwrites
    the weakest points (stable argsort, lower index first).
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
            absolute = positions_bev[j] + nb.offsets
            cands.extend((float(st[k]), j, k, absolute[k]) for k in range(nb.size))
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))

        accepted = []
        taken_per = {}
        for st, j, k, abs_xy in cands:
            if len(accepted) >= cfg.k_extra:
                break
            if taken_per.get(j, 0) >= cfg.k_per:
                continue
            taken_per[j] = taken_per.get(j, 0) + 1
            accepted.append((st, j, abs_xy - positions_bev[i]))

        offsets = base.offsets.copy()
        scores = base.scores.copy()
        origins = base.origins.copy()
        sources = base.sources.copy()
        if accepted:
            m = len(accepted)
            new_offsets = np.array([a[2] for a in accepted])
            new_scores = np.array([a[0] for a in accepted])
            new_sources = np.array([a[1] for a in accepted], dtype=np.int64)
            if cfg.mode == "append":
                offsets = np.concatenate([offsets, new_offsets])
                scores = np.concatenate([scores, new_scores])
                origins = np.concatenate([origins,
                                          np.full(m, ORIGIN_SHARED, dtype=np.uint8)])
                sources = np.concatenate([sources, new_sources])
            else:
                victims = np.argsort(base.scores, kind="stable")[:m]
                offsets[victims] = new_offsets
                scores[victims] = new_scores
                origins[victims] = ORIGIN_SHARED
                sources[victims] = new_sources
        out.append(SampleSet(i, base.grid_kind, offsets, scores, origins, sources))
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
    tokens come from bilinear sampling at position + offset with the set's
    normalized weights (a plain softmax of its scores when unset); PV tokens
    project the 3-D position into every camera that sees it and sample k_pv
    learned pixel-offset points, their scores softmaxed apart from the BEV
    sets.
    """
    t = weights.tensors
    tokens = []
    for kind in BEV_KINDS:
        sset = sample_sets[kind]
        w = sset.weights if sset.weights is not None else _softmax(sset.scores)
        feats = bilinear_sample_many(features.grid(kind), position[:2] + sset.offsets)
        tokens.extend(Token(feats[k], float(w[k]), kind) for k in range(sset.size))
    if k_pv == 0:
        return tokens
    pv_off = t["sample.pv.offsets"]
    scores = embedding @ t["sample.pv.score.w"].T + t["sample.pv.score.b"]
    groups = []
    for cam, pv in zip(features.rig.cameras, features.pv_maps):
        hit = project_to_view(position, cam)
        if hit is None:
            continue
        u, v, _ = hit
        pts = np.array([u, v]) + pv_off
        fy, fx = pv.pixel_to_frac(pts[:, 0], pts[:, 1])
        groups.append(bilinear_at(pv.data, fy, fx))
    if groups:
        w = _softmax(np.tile(scores, len(groups)))
        feats = np.vstack(groups)
        tokens.extend(Token(feats[k], float(w[k]), "pv")
                      for k in range(feats.shape[0]))
    return tokens


def aggregate_features(embedding, tokens, weights):
    """Per-query form of the aggregation stage; no tokens -> identity."""
    if not tokens:
        return embedding.copy()
    tok = np.stack([tk.feature for tk in tokens])[None]
    logw = np.log(np.array([tk.weight for tk in tokens]))[None]
    valid = np.ones((1, len(tokens)), dtype=bool)
    return aggregate_features_batch(embedding[None], tok, logw, valid, weights)[0]
