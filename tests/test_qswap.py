import math

import numpy as np
import pytest

from hqfusion.errors import ConfigError
from hqfusion.qswap import (IMG_BEV, ORIGIN_BASE, ORIGIN_SHARED, QSwapConfig,
                            adaptive_radius, base_bank, normalize_sample_scores,
                            predict_base_samples, score_shared_points,
                            select_neighbors, swap_samples)

from reference import brute_force_selection, naive_affine, naive_swap_samples


def make_bank(rows, kind=IMG_BEV):
    """Base bank from per-query (offsets, scores) pairs; sizes may differ."""
    k = max(len(scores) for _, scores in rows)
    offsets = np.zeros((len(rows), k, 2))
    scores = np.zeros((len(rows), k))
    for i, (off, sc) in enumerate(rows):
        offsets[i, :len(sc)] = off
        scores[i, :len(sc)] = sc
    bank = base_bank(kind, offsets, scores)
    bank.sizes = np.array([len(sc) for _, sc in rows], dtype=np.int64)
    return bank


def random_swap_instance(rng, n=8, k_base=20, cfg=None):
    """Row-stochastic affinities, random boxes/positions/base sets."""
    cfg = cfg or QSwapConfig()
    positions = rng.uniform(-10.0, 10.0, (n, 2))
    logits = rng.normal(size=(n, n))
    aff = np.exp(logits)
    aff /= aff.sum(axis=1, keepdims=True)
    boxes_wl = rng.uniform(0.5, 5.0, (n, 2))
    base_sets = make_bank([
        (rng.normal(0.0, 2.0, (k_base, 2)), rng.normal(0.0, 1.0, k_base))
        for i in range(n)
    ])
    neighbors = [select_neighbors(i, aff[i], boxes_wl, positions, cfg)
                 for i in range(n)]
    return base_sets, neighbors, aff, positions, boxes_wl, cfg


class TestScoreSharedPoints:
    def test_log_one_is_identity(self):
        assert score_shared_points(0.5, 1.0, 1.0) == 0.5

    def test_direct_evaluation(self):
        # frozen: 0.5 + ln(0.1)
        got = score_shared_points(0.5, 0.1, 1.0)
        assert abs(got - (-1.8025850929940455)) < 1e-12

    def test_zero_prior_strength(self):
        for a in (1e-9, 0.2, 0.7):
            assert score_shared_points(0.3, a, 0.0) == 0.3

    def test_affinity_floor(self):
        got = score_shared_points(0.0, 0.0, 1.0, affinity_floor=1e-8)
        assert np.isfinite(got)
        assert abs(got - math.log(1e-8)) < 1e-12


class TestSelectNeighbors:
    def test_adaptive_radius_value(self):
        # frozen: 1.5 * sqrt(2^2 + 4^2)
        assert abs(adaptive_radius(2.0, 4.0, 1.5) - 6.708203932499369) < 1e-12

    def test_radius_excludes_distant_top_affinity(self):
        cfg = QSwapConfig()
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [3.0, 0.0]])
        boxes = np.tile([2.0, 4.0], (3, 1))
        aff = np.array([[0.2, 0.7, 0.1]] * 3)
        got = select_neighbors(0, aff[0], boxes, positions, cfg)
        assert 1 not in got
        assert 2 in got

    def test_top_k_largest_affinities(self):
        cfg = QSwapConfig(n_neighbors=4)
        n = 7
        positions = np.zeros((n, 2))
        boxes = np.tile([2.0, 4.0], (n, 1))
        row = np.array([0.0, 0.30, 0.05, 0.20, 0.15, 0.10, 0.20001])
        got = select_neighbors(0, row, boxes, positions, cfg)
        assert sorted(got.tolist()) == [1, 3, 4, 6]

    def test_affinity_tie_lower_id(self):
        cfg = QSwapConfig(n_neighbors=1)
        positions = np.zeros((4, 2))
        boxes = np.tile([2.0, 4.0], (4, 1))
        row = np.array([0.0, 0.5, 0.5, 0.5])
        got = select_neighbors(0, row, boxes, positions, cfg)
        assert got.tolist() == [1]

    def test_empty_result_is_valid(self):
        cfg = QSwapConfig()
        positions = np.array([[0.0, 0.0], [40.0, 0.0]])
        boxes = np.tile([2.0, 4.0], (2, 1))
        got = select_neighbors(0, np.array([0.0, 1.0]), boxes, positions, cfg)
        assert got.size == 0


class TestPredictBaseSamples:
    def test_zero_weights(self):
        k = 20
        w = np.zeros((k * 3, 8))
        b = np.zeros(k * 3)
        offsets, scores = predict_base_samples(np.ones(8), w, b, 4.0, k)
        assert offsets.shape == (k, 2) and scores.shape == (k,)
        assert (offsets == 0.0).all() and (scores == 0.0).all()

    def test_matches_affine_oracle(self):
        rng = np.random.default_rng(0)
        k, d = 5, 6
        w = rng.normal(size=(k * 3, d))
        b = rng.normal(size=k * 3)
        e = rng.normal(size=d)
        offsets, scores = predict_base_samples(e, w, b, 4.0, k)
        raw = naive_affine(w, e, b).reshape(k, 3)
        assert np.allclose(offsets, raw[:, :2] * 4.0, atol=1e-12)
        assert np.allclose(scores, raw[:, 2], atol=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(1)
        k, d, n = 4, 6, 3
        w = rng.normal(size=(k * 3, d))
        b = rng.normal(size=k * 3)
        embs = rng.normal(size=(n, d))
        off_b, sc_b = predict_base_samples(embs, w, b, 2.0, k)
        for i in range(n):
            off_i, sc_i = predict_base_samples(embs[i], w, b, 2.0, k)
            assert np.allclose(off_b[i], off_i, atol=1e-12)
            assert np.allclose(sc_b[i], sc_i, atol=1e-12)


def two_query_instance(neighbor_scores, k_base=4, cfg=None, affinity=0.5):
    """Query 0 receives from query 1; geometry keeps 1 inside the radius."""
    cfg = cfg or QSwapConfig(k_base=k_base)
    positions = np.array([[0.0, 0.0], [3.0, 0.0]])
    off1 = np.arange(len(neighbor_scores) * 2, dtype=float).reshape(-1, 2) * 0.1
    bank = make_bank([(np.zeros((k_base, 2)), np.zeros(k_base)),
                      (off1, np.array(neighbor_scores, float))])
    aff = np.array([[1.0 - affinity, affinity], [affinity, 1.0 - affinity]])
    neighbors = [np.array([1]), np.array([], dtype=int)]
    return bank, neighbors, aff, positions, cfg


class TestSwapSamples:
    def test_no_neighbors_unchanged(self):
        rng = np.random.default_rng(0)
        base = make_bank([(rng.normal(size=(4, 2)), rng.normal(size=4))])
        out = swap_samples(base, [np.array([], dtype=int)],
                           np.eye(1), np.zeros((1, 2)), QSwapConfig(k_base=4))
        assert out[0].size == 4
        assert np.array_equal(out[0].offsets, base[0].offsets)
        assert (out[0].origins == ORIGIN_BASE).all()

    def test_per_neighbor_cap(self):
        sets, nbs, aff, pos, cfg = two_query_instance(
            [5.0, 4.0, 3.0, 2.0, 1.0], k_base=5, cfg=QSwapConfig(k_base=5))
        out = swap_samples(sets, nbs, aff, pos, cfg)
        assert out[0].shared_count() == 2
        shared = out[0].scores[out[0].origins == ORIGIN_SHARED]
        expected = score_shared_points(np.array([5.0, 4.0]), 0.5, 1.0)
        assert np.allclose(np.sort(shared), np.sort(expected), atol=1e-12)

    def test_total_cap_and_bruteforce_match(self):
        cfg = QSwapConfig(k_base=2, n_neighbors=3)
        rng = np.random.default_rng(3)
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        boxes = np.tile([2.0, 4.0], (4, 1))
        aff = np.full((4, 4), 0.25)
        base = make_bank([(rng.normal(size=(2, 2)), rng.normal(0, 3, 2))
                          for i in range(4)])
        neighbors = [np.array([1, 2, 3])] + [np.array([], dtype=int)] * 3
        out = swap_samples(base, neighbors, aff, positions, cfg)
        assert out[0].shared_count() == 4
        pool = []
        for j in (1, 2, 3):
            st = score_shared_points(base[j].scores, aff[0, j], cfg.prior_strength)
            pool.extend((float(st[k]), j, k) for k in range(2))
        want = brute_force_selection(pool, cfg.k_per, cfg.k_extra)
        got_scores = sorted(out[0].scores[out[0].origins == ORIGIN_SHARED])
        assert np.allclose(got_scores, sorted(s for s, _, _ in want), atol=1e-12)

    def test_replace_mode_overwrites_lowest(self):
        cfg = QSwapConfig(k_base=20, mode="replace")
        sets = make_bank([(np.zeros((20, 2)), np.arange(20, dtype=float)),
                          (np.full((3, 2), 0.5), np.array([30.0, 40.0, -50.0]))])
        aff = np.array([[0.5, 0.5], [0.5, 0.5]])
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        out = swap_samples(sets, [np.array([1]), np.array([], dtype=int)],
                           aff, pos, cfg)
        assert out[0].size == 20
        assert out[0].shared_count() == 2
        kept_base = out[0].scores[out[0].origins == ORIGIN_BASE]
        # base scores 0 and 1 were the weakest and must be gone
        assert set(kept_base.tolist()) == set(float(v) for v in range(2, 20))

    def test_shared_offsets_are_absolute_transfers(self):
        sets, nbs, aff, pos, cfg = two_query_instance([3.0, 1.0], k_base=2,
                                                      cfg=QSwapConfig(k_base=2))
        out = swap_samples(sets, nbs, aff, pos, cfg)
        shared_mask = out[0].origins == ORIGIN_SHARED
        shared_offsets = out[0].offsets[shared_mask]
        src_abs = pos[1] + sets[1].offsets
        expect = src_abs - pos[0]
        got = sorted(map(tuple, shared_offsets))
        assert any(np.allclose(got[0], e) for e in expect)
        assert (out[0].sources[shared_mask] == 1).all()

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            QSwapConfig(mode="sideways").validate()

    def test_randomized_constraints(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            cfg = QSwapConfig(mode="append" if rng.random() < 0.5 else "replace")
            base, nbs, aff, pos, boxes, cfg = random_swap_instance(
                rng, n=n, k_base=20, cfg=cfg)
            out = swap_samples(base, nbs, aff, pos, cfg)
            for i, s in enumerate(out):
                shared = s.origins == ORIGIN_SHARED
                assert shared.sum() <= cfg.k_extra
                for j in set(s.sources[shared].tolist()):
                    assert (s.sources[shared] == j).sum() <= cfg.k_per
                    assert j in nbs[i]
                    r = adaptive_radius(boxes[i, 0], boxes[i, 1],
                                        cfg.radius_factor)
                    assert np.linalg.norm(pos[j] - pos[i]) <= r + 1e-12
                if cfg.mode == "append":
                    assert 20 <= s.size <= 24
                else:
                    assert s.size == 20

    def test_extreme_prior_orders_by_affinity(self):
        cfg = QSwapConfig(k_base=1, prior_strength=1000.0, n_neighbors=2,
                          k_per=1, k_extra=1)
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        boxes = np.tile([2.0, 4.0], (3, 1))
        # neighbor 2 has tiny raw score but much larger affinity
        base = make_bank([(np.zeros((1, 2)), np.zeros(1)),
                          (np.zeros((1, 2)), np.array([100.0])),
                          (np.zeros((1, 2)), np.array([-100.0]))])
        aff = np.array([[0.0, 0.01, 0.99], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        nbs = [np.array([1, 2]), np.array([], dtype=int), np.array([], dtype=int)]
        out = swap_samples(base, nbs, aff, positions, cfg)
        assert out[0].sources[out[0].origins == ORIGIN_SHARED].tolist() == [2]
        # with the prior disabled the raw score wins instead
        cfg0 = QSwapConfig(k_base=1, prior_strength=0.0, n_neighbors=2,
                           k_per=1, k_extra=1)
        out0 = swap_samples(base, nbs, aff, positions, cfg0)
        assert out0[0].sources[out0[0].origins == ORIGIN_SHARED].tolist() == [1]

    def test_k_extra_monotonicity(self):
        # greedy accepts nested sets as the budget grows; with non-negative
        # scores the total of accepted points is therefore non-decreasing
        rng = np.random.default_rng(11)
        for _ in range(20):
            base, nbs, aff, pos, _, _ = random_swap_instance(rng, n=6, k_base=5)
            for s in base:
                s.scores[:] = np.abs(s.scores)
            totals = []
            prev_sets = None
            for k_extra in (2, 3, 4, 6, 8):
                cfg = QSwapConfig(k_base=5, k_per=2, k_extra=k_extra,
                                  prior_strength=0.0)
                out = swap_samples(base, nbs, aff, pos, cfg)
                shared = out[0].origins == ORIGIN_SHARED
                accepted = set(zip(out[0].sources[shared].tolist(),
                                   map(tuple, out[0].offsets[shared])))
                if prev_sets is not None:
                    assert prev_sets <= accepted
                prev_sets = accepted
                totals.append(out[0].scores[shared].sum())
            assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_replace_mode_needs_k_extra_within_k_base(self):
        with pytest.raises(ConfigError):
            QSwapConfig(k_base=2, k_extra=4, mode="replace").validate()
        QSwapConfig(k_base=2, k_extra=4, mode="append").validate()

    def test_matches_naive_loop_with_ragged_sets_and_ties(self):
        # raw scores 1 and 1 + 2**-52 share one s-tilde once ln(0.9) * 1000
        # is added, so per-neighbor ranks must follow s-tilde, not raw score
        rng = np.random.default_rng(12)
        score_pool = np.array([1.0, 1.0 + 2.0 ** -52, 0.5, -1.0, 2.0])
        for trial in range(150):
            n = int(rng.integers(2, 12))
            mode = ("append", "replace")[trial % 2]
            k_extra = int(rng.integers(0, 7))
            cfg = QSwapConfig(n_neighbors=int(rng.integers(1, 7)),
                              k_per=int(rng.integers(0, k_extra + 1)),
                              k_extra=k_extra, k_base=8, mode=mode,
                              radius_factor=float(rng.choice([0.5, 3.0])),
                              prior_strength=float(rng.choice([0.0, 1.0, 1000.0])))
            low = k_extra if mode == "replace" else 1
            sizes = rng.integers(low, cfg.k_base + 1, n)
            bank = make_bank([(rng.normal(0.0, 2.0, (k, 2)), rng.choice(score_pool, k))
                              for k in sizes])
            pos = rng.uniform(-3.0, 3.0, (n, 2))
            aff = rng.choice([0.9, 0.5, 0.1, 0.0], (n, n))
            boxes = rng.uniform(0.5, 3.0, (n, 2))
            nbs = [select_neighbors(i, aff[i], boxes, pos, cfg) for i in range(n)]
            got = swap_samples(bank, nbs, aff, pos, cfg)
            want = naive_swap_samples(bank, nbs, aff, pos, cfg)
            assert len(got) == n
            for i in range(n):
                g, w = got[i], want[i]
                assert g.owner == i and g.size == w.size
                assert np.array_equal(g.origins, w.origins)
                assert np.array_equal(g.sources, w.sources)
                assert np.array_equal(g.offsets, w.offsets)
                assert np.array_equal(g.scores, w.scores)

    def test_per_neighbor_rank_follows_s_tilde(self):
        scores = [1.0 + 2.0 ** -52, 1.0]
        cfg = QSwapConfig(k_base=2, k_per=1, k_extra=1, prior_strength=1000.0)
        sets, nbs, _, pos, _ = two_query_instance(scores, k_base=2, cfg=cfg)
        aff = np.full((2, 2), 0.9)
        st = score_shared_points(np.array(scores), 0.9, 1000.0)
        assert st[0] == st[1]
        out = swap_samples(sets, nbs, aff, pos, cfg)
        shared = out[0].origins == ORIGIN_SHARED
        # the s-tilde tie goes to the lower point index
        assert np.array_equal(out[0].offsets[shared],
                              pos[1] + sets[1].offsets[:1] - pos[0])

    def test_rows_are_views(self):
        rng = np.random.default_rng(2)
        bank = make_bank([(rng.normal(size=(k, 2)), rng.normal(size=k))
                          for k in (3, 5)])
        bank.weights = normalize_sample_scores(bank)
        row = bank[0]
        assert row.size == 3 and row.owner == 0 and bank[-1].owner == 1
        for name in ("offsets", "scores", "origins", "sources", "weights"):
            assert np.shares_memory(getattr(row, name), getattr(bank, name))
        with pytest.raises(IndexError):
            bank[2]


class TestNormalize:
    def test_uniform(self):
        s = make_bank([(np.zeros((24, 2)), np.full(24, 1.3))])
        w = normalize_sample_scores(s)[0]
        assert np.allclose(w, 1.0 / 24.0, atol=1e-12)
        assert abs(w.sum() - 1.0) < 1e-9

    def test_dominant_score(self):
        scores = np.zeros(21)
        scores[7] = 10.0
        s = make_bank([(np.zeros((21, 2)), scores)])
        w = normalize_sample_scores(s)[0]
        assert w[7] > 0.99

    def test_matches_dense_softmax_oracle(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=24)
        s = make_bank([(np.zeros((24, 2)), scores)])
        w = normalize_sample_scores(s)[0]
        ref = np.exp(scores) / np.exp(scores).sum()
        assert np.allclose(w, ref, atol=1e-12)

    def test_ragged_rows_ignore_padding(self):
        rng = np.random.default_rng(1)
        rows = [(np.zeros((k, 2)), rng.normal(size=k)) for k in (24, 3, 20)]
        bank = make_bank(rows)
        bank.scores[1, 3:] = 50.0  # padding must not take any weight
        w = normalize_sample_scores(bank)
        for i, (_, scores) in enumerate(rows):
            ref = np.exp(scores) / np.exp(scores).sum()
            assert np.allclose(w[i, :len(scores)], ref, atol=1e-12)
            assert (w[i, len(scores):] == 0.0).all()


class TestPlantedEvidence:
    def test_signature_token_transfers(self):
        from hqfusion.numkernel import bilinear_sample
        from hqfusion.scene import GridConfig, render_image_bev
        from test_scene import manual_scene

        # object A at a cell center; query 0 sits on A, query 1 is a nearby
        # radar query whose base set contains a point exactly on A
        scene, _ = manual_scene([(0.5, 0.5, 0.75), (8.5, 8.5, 0.75)])
        grid = render_image_bev(scene, GridConfig(extent=16.0, voxel=1.0),
                                8, 0.0)
        a_center = scene.objects[0].center[:2]
        pos = np.array([a_center, a_center + [3.0, 0.0]])
        cfg = QSwapConfig(k_base=4)
        off1 = np.tile([5.0, 5.0], (4, 1))
        off1[2] = a_center - pos[1]  # lands exactly on A's center
        scores1 = np.array([0.0, 0.0, 3.0, 0.0])
        base = make_bank([(np.full((4, 2), 2.0), np.zeros(4)), (off1, scores1)])
        aff = np.array([[0.1, 0.9], [0.9, 0.1]])
        nbs = [np.array([1]), np.array([], dtype=int)]
        out = swap_samples(base, nbs, aff, pos, cfg)
        out.weights = normalize_sample_scores(out)

        abs_pts = pos[0] + out[0].offsets
        on_a = np.flatnonzero(np.linalg.norm(abs_pts - a_center, axis=1) < 1e-9)
        assert on_a.size == 1
        token = bilinear_sample(grid, abs_pts[on_a[0]])
        assert np.allclose(token, scene.objects[0].signature, atol=1e-9)
        assert out[0].weights[on_a[0]] > out[0].weights.mean()
