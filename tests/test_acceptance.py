"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (see the conftest hook)."""
import csv
import math
import time

import numpy as np

from hqfusion import cli
from hqfusion.decoder import decode
from hqfusion.numkernel import bilinear_at, multi_head_attention
from hqfusion.qinit import QuerySet
from hqfusion.qmix import attention_type_stats, qmix_attention
from hqfusion.qswap import (ORIGIN_SHARED, QSwapConfig, adaptive_radius,
                            normalize_sample_scores, score_shared_points,
                            select_neighbors, swap_samples)
from hqfusion.scene import project_points, render_image_bev

from reference import (bilinear_sample, brute_force_selection,
                       identity_mha_weights, naive_bilinear,
                       naive_cross_type_blocked, naive_mixing_block,
                       project_with_matrix)
from test_numkernel import make_grid, tokens_at
from test_qmix import random_mixing_weights
from test_qswap import make_bank, random_swap_instance
from test_decoder import record_affinities, record_qmix, toy_config, toy_setup


def criterion(num, text):
    def deco(fn):
        fn._criterion = f"criterion {num}: {text}"
        return fn
    return deco


@criterion(1, "cross-type mask matches the brute-force predicate")
def test_mask_correctness():
    # the mask the attention kernel applies: identity projections of zero
    # queries give every open entry 1 / (open keys of its row) > 0
    rng = np.random.default_rng(101)
    w = identity_mha_weights(4)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 65))
        types = rng.integers(0, 3, n)
        q = np.zeros((n, 4))
        _, attn = multi_head_attention(q, q, q, w, types)
        blocked = naive_cross_type_blocked(types)
        assert (attn[blocked] == 0.0).all()
        assert (attn[~blocked] > 0.0).all()
    assert time.perf_counter() - start < 1.0


@criterion(2, "masked attention matches the naive dense reference to 1e-9")
def test_masked_attention_oracle():
    rng = np.random.default_rng(102)
    for _ in range(100):
        heads = int(rng.choice([1, 2, 4, 8]))
        d = heads * int(rng.integers(1, 64 // heads + 1))
        n = int(rng.integers(2, 33))
        types = rng.integers(0, 3, n)
        q = rng.normal(size=(n, d))
        w = random_mixing_weights(rng, d, heads)
        out, attn = qmix_attention(q, types, w)
        ref_out, ref_attn = naive_mixing_block(q, naive_cross_type_blocked(types), w)
        assert np.allclose(out, ref_out, rtol=1e-9, atol=1e-12)
        assert np.allclose(attn, ref_attn, rtol=1e-9, atol=1e-12)


@criterion(3, "same-type attention mass after mixing is <= 1e-12 per layer")
def test_exact_same_type_suppression(monkeypatch):
    cfg = cli.config_from_dict({})  # full-size defaults
    qmixes = record_qmix(monkeypatch)
    result = cli.run_pipeline(cfg)
    types = result["queries"].types
    same = (types[:, None] == types[None, :]) & ~np.eye(len(types), dtype=bool)
    assert len(result["outputs"]) == len(qmixes) == 6
    for out, attn in zip(result["outputs"], qmixes):
        assert out.class_scores.shape == (900, 10)
        assert out.qmix_attn is not None
        assert attn[same].sum() <= 1e-12


@criterion(4, "swap sampling honors caps, radius and neighbor set on 500 instances")
def test_qswap_constraint_suite():
    rng = np.random.default_rng(104)
    for trial in range(500):
        n = int(rng.integers(2, 11))
        mode = "append" if trial % 2 == 0 else "replace"
        cfg = QSwapConfig(mode=mode)  # defaults: k_base=20, k_per=2, k_extra=4
        base, nbs, aff, pos, boxes, cfg = random_swap_instance(
            rng, n=n, k_base=20, cfg=cfg)
        out = swap_samples(base, nbs, aff, cfg)
        for i, s in enumerate(out):
            shared = s.origins == ORIGIN_SHARED
            assert shared.sum() <= 4
            top_aff = set(np.argsort(
                -np.where(np.arange(n) == i, -np.inf, aff[i]),
                kind="stable")[:cfg.n_neighbors].tolist())
            radius = adaptive_radius(boxes[i, 0], boxes[i, 1], 1.5)
            for j in set(s.sources[shared].tolist()):
                assert (s.sources[shared] == j).sum() <= 2
                assert j in top_aff
                assert np.linalg.norm(pos[j] - pos[i]) <= radius + 1e-12
            if mode == "append":
                assert s.size <= 24
            else:
                assert s.size == 20


@criterion(5, "greedy swap acceptance equals brute-force optimal selection")
def test_qswap_selection_oracle():
    rng = np.random.default_rng(105)
    for _ in range(200):
        n_nb = int(rng.integers(1, 5))
        k_base = 3  # pool size = 3 * n_nb <= 12
        cfg = QSwapConfig(k_base=k_base, n_neighbors=4, k_per=2, k_extra=4,
                          prior_strength=1.0)
        n = n_nb + 1
        pos = np.zeros((n, 2))
        pos[1:, 0] = rng.uniform(-2.0, 2.0, n_nb)
        aff = rng.uniform(0.01, 1.0, (n, n))
        base = make_bank([(rng.normal(size=(k_base, 2)), rng.normal(0, 2, k_base))
                          for i in range(n)], pos)
        nbs = [np.arange(1, n)] + [np.array([], dtype=int)] * n_nb
        out = swap_samples(base, nbs, aff, cfg)

        pool = []
        for j in range(1, n):
            st = score_shared_points(base[j].scores, aff[0, j],
                                     cfg.prior_strength, cfg.affinity_floor)
            pool.extend((float(st[k]), j, k) for k in range(k_base))
        assert len(pool) <= 12
        assert len({round(s, 12) for s, _, _ in pool}) == len(pool)
        want = brute_force_selection(pool, cfg.k_per, cfg.k_extra)
        shared = out[0].origins == ORIGIN_SHARED
        got = set(zip(out[0].scores[shared].tolist(),
                      out[0].sources[shared].tolist()))
        assert got == {(s, j) for s, j, _ in want}


@criterion(6, "shared-point scoring arithmetic is exact")
def test_score_arithmetic():
    got = score_shared_points(0.5, 0.1, 1.0)
    assert abs(got - (0.5 + math.log(0.1))) < 1e-12
    rng = np.random.default_rng(106)
    for _ in range(50):
        s = float(rng.normal())
        a = float(rng.uniform(1e-6, 1.0))
        assert score_shared_points(s, a, 0.0) == s


@criterion(7, "bilinear sampling and projection match brute force on 1000 points")
def test_sampling_oracles():
    rng = np.random.default_rng(107)
    grid = make_grid(rng, h=20, w=16, d=6, voxel=0.8, x_min=-6.4, y_min=-8.0)
    span_x = grid.x_max - grid.x_min
    span_y = grid.y_max - grid.y_min
    points = rng.uniform([grid.x_min - 0.3 * span_x, grid.y_min - 0.3 * span_y],
                         [grid.x_max + 0.3 * span_x, grid.y_max + 0.3 * span_y],
                         (1000, 2))
    # off-grid points through the decoder's token path: exact zeros
    tokens = tokens_at(grid, points)[0][:1000]
    outside = 0
    for (x, y), token in zip(points, tokens):
        ref = naive_bilinear(grid, x, y)
        if grid.x_min <= x <= grid.x_max and grid.y_min <= y <= grid.y_max:
            got = bilinear_at(grid.data, *grid.frac_coords(x, y))
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)
        else:
            outside += 1
            assert (token == 0.0).all() and (ref == 0.0).all()
        assert np.allclose(token, ref, rtol=1e-9, atol=1e-12)
    assert outside > 50

    from hqfusion.scene import SceneConfig, build_rig
    rig = build_rig(SceneConfig(num_cameras=6, feature_dim=4))
    visible = 0
    for _ in range(1000):
        p = rng.uniform(-40, 40, 3)
        p[2] = rng.uniform(0, 4)
        cam = rig[int(rng.integers(6))]
        uv, depth, vis = project_points([p], cam)
        if not vis[0]:
            continue
        visible += 1
        mu, mv, md = project_with_matrix(cam, p)
        assert abs(uv[0, 0] - mu) < 1e-9
        assert abs(uv[0, 1] - mv) < 1e-9
        assert abs(depth[0] - md) < 1e-9
    assert visible > 100


@criterion(8, "planted evidence transfers through swap sampling end to end")
def test_planted_evidence_end_to_end():
    from test_scene import manual_scene

    # two objects, zero noise; object A sits exactly on a BEV cell center
    scene = manual_scene([(0.5, 0.5, 0.75), (9.5, 9.5, 0.75)])
    grid = render_image_bev(scene, 1.0, 8, 0.0)
    a_center = scene.objects[0].center[:2]

    # image query 0 on A; radar query 1 nearby, its base set holds one
    # high-score point landing exactly on A's signature cell
    pos = np.array([a_center, a_center + [3.0, 0.0]])
    cfg = QSwapConfig()  # k_base=20, k_per=2, k_extra=4
    rng = np.random.default_rng(108)
    off0 = rng.uniform(1.0, 4.0, (20, 2))
    off1 = rng.uniform(4.0, 8.0, (20, 2))
    off1[7] = a_center - pos[1]
    scores1 = np.full(20, -2.0)
    scores1[7] = 3.0
    base = make_bank([(off0, np.zeros(20)), (off1, scores1)], pos)
    aff = np.array([[0.1, 0.9], [0.9, 0.1]])
    boxes = np.tile([2.0, 4.0], (2, 1))
    neighbors = [select_neighbors(0, aff[0], boxes, pos, cfg),
                 np.array([], dtype=int)]
    assert neighbors[0].tolist() == [1]

    out = swap_samples(base, neighbors, aff, cfg)
    out.weights = normalize_sample_scores(out)
    swapped = out[0]

    abs_pts = swapped.points
    on_a = np.flatnonzero(np.linalg.norm(abs_pts - a_center, axis=1) < 1e-9)
    assert on_a.size == 1, "signature token missing from the post-swap set"
    token = bilinear_sample(grid, abs_pts[on_a[0]])
    assert np.allclose(token, scene.objects[0].signature, atol=1e-9)
    assert swapped.weights[on_a[0]] > swapped.weights.mean()


@criterion(9, "full decode is permutation-equivariant at 1e-9")
def test_permutation_equivariance_full_decode(monkeypatch):
    cfg = toy_config(layers=2)
    _, features, queries, weights, cfg = toy_setup(
        seed=109, n_world=18, n_img=6, n_rad=6, cfg=cfg)
    assert queries.n == 30
    affinities = record_affinities(monkeypatch)
    qmixes = record_qmix(monkeypatch)
    outs = decode(features, queries, weights, cfg)
    perm = np.random.default_rng(109).permutation(30)
    permuted = QuerySet(queries.embeddings[perm], queries.positions[perm],
                        queries.types[perm])
    outs_p = decode(features, permuted, weights, cfg)
    assert len(affinities) == len(qmixes) == 2 * cfg.layers
    for a, b, aff_a, aff_b, mix_a, mix_b in zip(
            outs, outs_p, affinities[:cfg.layers], affinities[cfg.layers:],
            qmixes[:cfg.layers], qmixes[cfg.layers:]):
        pair = np.ix_(perm, perm)
        assert np.allclose(b.class_scores, a.class_scores[perm], atol=1e-9)
        assert np.allclose(b.centers, a.centers[perm], atol=1e-9)
        assert np.allclose(b.sizes, a.sizes[perm], atol=1e-9)
        assert np.allclose(b.yaws, a.yaws[perm], atol=1e-9)
        assert np.allclose(b.velocities, a.velocities[perm], atol=1e-9)
        assert np.allclose(aff_b, aff_a[pair], atol=1e-9)
        assert np.allclose(mix_b, mix_a[pair], atol=1e-9)


@criterion(10, "run command reports are byte-identical across invocations")
def test_run_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--preset", "toy", "--emit-links", "--emit-snapshots"]
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@criterion(11, "ablation ladder finishes under 60 s with valid mAP values")
def test_ablation_harness_smoke(tmp_path):
    out = tmp_path / "ablate.csv"
    # full-size grid (128x128), 900 queries, 6 layers; test-scale channels
    args = ["ablate", "--set", "scene.feature_dim=32",
            "--set", "decoder.d=32", "--set", "decoder.heads=4",
            "--out", str(out)]
    start = time.perf_counter()
    assert cli.main(args) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"ablation took {elapsed:.1f}s"

    text = out.read_text()
    header_line = text.splitlines()[0]
    assert header_line.startswith("#") and "not comparable" in header_line
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    names = [r[0] for r in data]
    assert {"qinit", "qmix", "qmix_qswap"} <= set(names)
    assert {"placement_pre_agg", "placement_post_self",
            "placement_post_self_cross", "placement_post_agg"} <= set(names)
    col = header.index("map_center")
    for row in data:
        value = float(row[col])
        assert 0.0 <= value <= 1.0


@criterion(12, "type-attention statistics match hand-computed matrices")
def test_statistics_correctness():
    # uniform attention, two queries of each type
    types = np.array([0, 0, 1, 1, 2, 2])
    uniform = np.full((6, 6), 1.0 / 6.0)
    stats = attention_type_stats(uniform, types)
    assert np.allclose(stats.mass, 1.0 / 3.0, atol=1e-12)
    assert np.allclose(stats.mean_per_key, 1.0 / 6.0, atol=1e-12)

    # identity attention: all mass stays on the own type
    stats = attention_type_stats(np.eye(6), types)
    assert np.allclose(stats.mass, np.eye(3), atol=1e-12)
    assert np.allclose(stats.mean_per_key, np.eye(3) * 0.5, atol=1e-12)

    # mask-shaped attention: uniform over each row's open entries for
    # types [img, img, rad, w]
    types = np.array([0, 0, 1, 2])
    attn = np.array([
        [1 / 3, 0.0, 1 / 3, 1 / 3],
        [0.0, 1 / 3, 1 / 3, 1 / 3],
        [1 / 4, 1 / 4, 1 / 4, 1 / 4],
        [1 / 4, 1 / 4, 1 / 4, 1 / 4],
    ])
    stats = attention_type_stats(attn, types)
    want_mass = np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [1 / 2, 1 / 4, 1 / 4],
        [1 / 2, 1 / 4, 1 / 4],
    ])
    want_mpk = np.array([
        [1 / 6, 1 / 3, 1 / 3],
        [1 / 4, 1 / 4, 1 / 4],
        [1 / 4, 1 / 4, 1 / 4],
    ])
    assert np.allclose(stats.mass, want_mass, atol=1e-12)
    assert np.allclose(stats.mean_per_key, want_mpk, atol=1e-12)
