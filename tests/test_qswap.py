import math

import numpy as np
import pytest

from hqfusion.errors import ConfigError
from hqfusion.qswap import (ORIGIN_BASE, ORIGIN_SHARED, QSwapConfig,
                            adaptive_radius, base_bank, normalize_sample_scores,
                            predict_base_samples, score_shared_points,
                            select_neighbors, swap_samples)

from reference import (bilinear_sample, brute_force_selection, naive_affine,
                       naive_select_neighbors, naive_swap_samples)


def make_bank(rows, positions=None):
    """Base bank from per-query (offsets, scores) pairs; sizes may differ.

    Query i's points are positions[i] plus its offsets (default: the origin).
    """
    k = max(len(scores) for _, scores in rows)
    offsets = np.zeros((len(rows), k, 2))
    scores = np.zeros((len(rows), k))
    for i, (off, sc) in enumerate(rows):
        offsets[i, :len(sc)] = off
        scores[i, :len(sc)] = sc
    if positions is None:
        positions = np.zeros((len(rows), 2))
    bank = base_bank(positions, offsets, scores)
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
    ], positions)
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

    def test_matches_full_sort(self):
        # affinities quantized to eighths force ties at and around the n-th
        # largest value; the constant row is one big tie
        rng = np.random.default_rng(11)
        n = 12
        rows = np.vstack([np.round(rng.uniform(0.0, 1.0, (n - 1, n)) * 8) / 8,
                          np.full((1, n), 1.0 / n)])
        positions = rng.uniform(-6.0, 6.0, (n, 2))
        boxes = rng.uniform(0.5, 5.0, (n, 2))
        for n_neighbors in (0, 1, 4, n - 1, n + 3):
            cfg = QSwapConfig(n_neighbors=n_neighbors)
            for i in range(n):
                got = select_neighbors(i, rows[i], boxes, positions, cfg)
                want = naive_select_neighbors(i, rows[i], boxes, positions, cfg)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist(), (n_neighbors, i)


class TestPredictBaseSamples:
    def test_zero_weights(self):
        k = 20
        w = np.zeros((k * 3, 8))
        b = np.zeros(k * 3)
        offsets, scores = predict_base_samples(np.ones((1, 8)), w, b, 4.0, k)
        offsets, scores = offsets[0], scores[0]
        assert offsets.shape == (k, 2) and scores.shape == (k,)
        assert (offsets == 0.0).all() and (scores == 0.0).all()

    def test_matches_affine_oracle(self):
        rng = np.random.default_rng(0)
        k, d = 5, 6
        w = rng.normal(size=(k * 3, d))
        b = rng.normal(size=k * 3)
        e = rng.normal(size=d)
        offsets, scores = predict_base_samples(e[None], w, b, 4.0, k)
        offsets, scores = offsets[0], scores[0]
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
            off_i, sc_i = predict_base_samples(embs[i][None], w, b, 2.0, k)
            assert np.allclose(off_b[i], off_i[0], atol=1e-12)
            assert np.allclose(sc_b[i], sc_i[0], atol=1e-12)


def two_query_instance(neighbor_scores, k_base=4, cfg=None, affinity=0.5):
    """Query 0 receives from query 1, 3 m away."""
    cfg = cfg or QSwapConfig(k_base=k_base)
    positions = np.array([[0.0, 0.0], [3.0, 0.0]])
    off1 = np.arange(len(neighbor_scores) * 2, dtype=float).reshape(-1, 2) * 0.1
    bank = make_bank([(np.zeros((k_base, 2)), np.zeros(k_base)),
                      (off1, np.array(neighbor_scores, float))], positions)
    aff = np.array([[1.0 - affinity, affinity], [affinity, 1.0 - affinity]])
    neighbors = [np.array([1]), np.array([], dtype=int)]
    return bank, neighbors, aff, cfg


class TestSwapSamples:
    def test_no_neighbors_unchanged(self):
        rng = np.random.default_rng(0)
        base = make_bank([(rng.normal(size=(4, 2)), rng.normal(size=4))])
        out = swap_samples(base, [np.array([], dtype=int)], np.eye(1),
                           QSwapConfig(k_base=4))
        assert out[0].size == 4
        assert np.array_equal(out[0].points, base[0].points)
        assert (out[0].origins == ORIGIN_BASE).all()

    def test_per_neighbor_cap(self):
        sets, nbs, aff, cfg = two_query_instance(
            [5.0, 4.0, 3.0, 2.0, 1.0], k_base=5, cfg=QSwapConfig(k_base=5))
        out = swap_samples(sets, nbs, aff, cfg)
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
                          for i in range(4)], positions)
        neighbors = [np.array([1, 2, 3])] + [np.array([], dtype=int)] * 3
        out = swap_samples(base, neighbors, aff, cfg)
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
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        sets = make_bank([(np.zeros((20, 2)), np.arange(20, dtype=float)),
                          (np.full((3, 2), 0.5), np.array([30.0, 40.0, -50.0]))],
                         pos)
        aff = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = swap_samples(sets, [np.array([1]), np.array([], dtype=int)],
                           aff, cfg)
        assert out[0].size == 20
        assert out[0].shared_count() == 2
        kept_base = out[0].scores[out[0].origins == ORIGIN_BASE]
        # base scores 0 and 1 were the weakest and must be gone
        assert set(kept_base.tolist()) == set(float(v) for v in range(2, 20))

    def test_shared_offsets_are_absolute_transfers(self):
        sets, nbs, aff, cfg = two_query_instance([3.0, 1.0], k_base=2,
                                                 cfg=QSwapConfig(k_base=2))
        out = swap_samples(sets, nbs, aff, cfg)
        shared_mask = out[0].origins == ORIGIN_SHARED
        # both points move over as they are, best s-tilde first
        assert np.array_equal(out[0].points[shared_mask], sets[1].points)
        assert (out[0].sources[shared_mask] == 1).all()

    def test_invalid_mode(self):
        # the mode's choices are checked by the config setter
        from hqfusion.cli import RunConfig, apply_override
        with pytest.raises(ConfigError, match="decoder.qswap.mode"):
            apply_override(RunConfig(), "decoder.qswap.mode", "sideways")

    def test_randomized_constraints(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            cfg = QSwapConfig(mode="append" if rng.random() < 0.5 else "replace")
            base, nbs, aff, pos, boxes, cfg = random_swap_instance(
                rng, n=n, k_base=20, cfg=cfg)
            out = swap_samples(base, nbs, aff, cfg)
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
                          (np.zeros((1, 2)), np.array([-100.0]))], positions)
        aff = np.array([[0.0, 0.01, 0.99], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        nbs = [np.array([1, 2]), np.array([], dtype=int), np.array([], dtype=int)]
        out = swap_samples(base, nbs, aff, cfg)
        assert out[0].sources[out[0].origins == ORIGIN_SHARED].tolist() == [2]
        # with the prior disabled the raw score wins instead
        cfg0 = QSwapConfig(k_base=1, prior_strength=0.0, n_neighbors=2,
                           k_per=1, k_extra=1)
        out0 = swap_samples(base, nbs, aff, cfg0)
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
                out = swap_samples(base, nbs, aff, cfg)
                shared = out[0].origins == ORIGIN_SHARED
                accepted = set(zip(out[0].sources[shared].tolist(),
                                   map(tuple, out[0].points[shared])))
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
            rows = [(rng.normal(0.0, 2.0, (k, 2)), rng.choice(score_pool, k))
                    for k in sizes]
            pos = rng.uniform(-3.0, 3.0, (n, 2))
            bank = make_bank(rows, pos)
            aff = rng.choice([0.9, 0.5, 0.1, 0.0], (n, n))
            boxes = rng.uniform(0.5, 3.0, (n, 2))
            nbs = [select_neighbors(i, aff[i], boxes, pos, cfg) for i in range(n)]
            got = swap_samples(bank, nbs, aff, cfg)
            want = naive_swap_samples(bank, nbs, aff, cfg)
            assert len(got) == n
            for i in range(n):
                g, w = got[i], want[i]
                assert g.owner == i and g.size == w.size
                assert np.array_equal(g.origins, w.origins)
                assert np.array_equal(g.sources, w.sources)
                assert np.array_equal(g.points, w.points)
                assert np.array_equal(g.scores, w.scores)

    def test_preselection_edges_match_naive_loop(self):
        # the edges of the two top-k selections (k_per per pair, then k_extra
        # per row) must leave the result bit-identical to the full-pool loop
        def check(bank, nbs, aff, cfg):
            got = swap_samples(bank, nbs, aff, cfg)
            want = naive_swap_samples(bank, nbs, aff, cfg)
            assert np.array_equal(got.sizes, [w.size for w in want])
            for i, w in enumerate(want):
                for name in ("points", "scores", "origins", "sources"):
                    row = getattr(got, name)[i]
                    assert np.array_equal(row[:w.size], getattr(w, name)), (i, name)
            return got

        rng = np.random.default_rng(21)
        tie = [1.0, 1.0 + 2.0 ** -52]
        # padded width 4: row 1 holds a tie at rank 2 (k_per = 2 splits it
        # inside a pair), row 2 one equal score, row 3 fewer valid points
        # than most k_per, all below its zero padding, and row 4 has no
        # neighbors; k_per runs from 0 to past the width
        rows = [np.zeros(4), np.array([3.0, *tie, 0.0]), np.full(4, 0.25),
                np.array([-2.0, -3.0]), np.array([1.0, *tie[::-1], 5.0])]
        offsets = [rng.normal(0.0, 2.0, (len(sc), 2)) for sc in rows]
        pos = rng.uniform(-1.0, 1.0, (5, 2))
        bank = make_bank(list(zip(offsets, rows)), pos)
        aff = np.full((5, 5), 0.9)
        nbs = [np.array([1, 2, 3, 4]), np.array([0, 2, 3]), np.array([4, 1]),
               np.array([1]), np.array([], dtype=int)]
        # replace mode needs every row to hold k_extra points
        full = make_bank([(rng.normal(0.0, 2.0, (4, 2)), rows[i % 2 + 1])
                          for i in range(5)], pos)
        for b, k_per, k_extra, mode in (
                (bank, 0, 0, "append"), (bank, 1, 3, "append"),
                (bank, 2, 5, "append"), (bank, 3, 8, "append"),
                (bank, 4, 9, "append"), (bank, 5, 12, "append"),
                (bank, 7, 7, "append"), (full, 2, 2, "replace"),
                (full, 2, 4, "replace"), (full, 4, 4, "replace")):
            for prior in (0.0, 1.0, 1000.0):
                cfg = QSwapConfig(k_base=4, k_per=k_per, k_extra=k_extra,
                                  mode=mode, prior_strength=prior)
                check(b, nbs, aff, cfg)

        # the 2**-52 pair ties once the prior is added, exactly at rank k_per
        st = score_shared_points(np.array(tie), 0.9, 1000.0)
        assert st[0] == st[1]
        cfg = QSwapConfig(k_base=4, k_per=2, k_extra=2, prior_strength=1000.0)
        got = check(bank, [np.array([1])] + [np.array([], dtype=int)] * 4,
                    aff, cfg)
        assert got.scores[0, 4] == 3.0 + 1000.0 * np.log(0.9)
        assert got.points[0, 5].tolist() == bank.points[1, 1].tolist()

        # swap-dense shape: 16 neighbors in a wide radius, caps 2 and 8
        n = 200
        for mode in ("append", "replace"):
            cfg = QSwapConfig(n_neighbors=16, k_base=20, k_per=2, k_extra=8,
                              radius_factor=30.0, mode=mode)
            base, nbs, aff, pos, _, _ = random_swap_instance(
                rng, n=n, k_base=20, cfg=cfg)
            assert sum(len(nb) for nb in nbs) > 8 * n
            got = check(base, nbs, aff, cfg)
            assert (got.origins == ORIGIN_SHARED).sum() > 4 * n

    def test_neighbor_lists_out_of_id_order(self):
        # equal s-tilde from different neighbors goes to the lower neighbor
        # id, in whatever order a list names its neighbors
        rng = np.random.default_rng(31)
        n = 6
        for trial in range(60):
            cfg = QSwapConfig(k_base=4, k_per=int(rng.integers(1, 4)), k_extra=4,
                              mode=("append", "replace")[trial % 2],
                              prior_strength=float(rng.choice([0.0, 1.0])))
            rows = [(rng.normal(0.0, 2.0, (4, 2)), rng.choice([0.5, 1.0], 4))
                    for _ in range(n)]
            aff = rng.choice([0.5, 0.25], (n, n))
            pos = rng.uniform(-1.0, 1.0, (n, 2))
            bank = make_bank(rows, pos)
            nbs = [rng.permutation(np.delete(np.arange(n), i))[:rng.integers(0, n)]
                   for i in range(n)]
            nbs[0] = np.arange(n - 1, 0, -1)
            given = [nb.copy() for nb in nbs]
            got = swap_samples(bank, nbs, aff, cfg)
            want = naive_swap_samples(bank, nbs, aff, cfg)
            assert all(np.array_equal(a, b) for a, b in zip(nbs, given))
            for i, w in enumerate(want):
                assert got.sizes[i] == w.size
                for name in ("points", "scores", "origins", "sources"):
                    row = getattr(got, name)[i]
                    assert np.array_equal(row[:w.size], getattr(w, name)), (i, name)

    def test_per_neighbor_rank_follows_s_tilde(self):
        scores = [1.0 + 2.0 ** -52, 1.0]
        cfg = QSwapConfig(k_base=2, k_per=1, k_extra=1, prior_strength=1000.0)
        sets, nbs, _, _ = two_query_instance(scores, k_base=2, cfg=cfg)
        aff = np.full((2, 2), 0.9)
        st = score_shared_points(np.array(scores), 0.9, 1000.0)
        assert st[0] == st[1]
        out = swap_samples(sets, nbs, aff, cfg)
        shared = out[0].origins == ORIGIN_SHARED
        # the s-tilde tie goes to the lower point index
        assert np.array_equal(out[0].points[shared], sets[1].points[:1])

    def test_rows_are_views(self):
        rng = np.random.default_rng(2)
        bank = make_bank([(rng.normal(size=(k, 2)), rng.normal(size=k))
                          for k in (3, 5)])
        bank.weights = normalize_sample_scores(bank)
        row = bank[0]
        assert row.size == 3 and row.owner == 0 and bank[-1].owner == 1
        for name in ("points", "scores", "origins", "sources", "weights"):
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
        from hqfusion.scene import render_image_bev
        from test_scene import manual_scene

        # object A at a cell center; query 0 sits on A, query 1 is a nearby
        # radar query whose base set contains a point exactly on A
        scene = manual_scene([(0.5, 0.5, 0.75), (8.5, 8.5, 0.75)])
        grid = render_image_bev(scene, 1.0, 8, 0.0)
        a_center = scene.objects[0].center[:2]
        pos = np.array([a_center, a_center + [3.0, 0.0]])
        cfg = QSwapConfig(k_base=4)
        off1 = np.tile([5.0, 5.0], (4, 1))
        off1[2] = a_center - pos[1]  # lands exactly on A's center
        scores1 = np.array([0.0, 0.0, 3.0, 0.0])
        base = make_bank([(np.full((4, 2), 2.0), np.zeros(4)), (off1, scores1)],
                         pos)
        aff = np.array([[0.1, 0.9], [0.9, 0.1]])
        nbs = [np.array([1]), np.array([], dtype=int)]
        out = swap_samples(base, nbs, aff, cfg)
        out.weights = normalize_sample_scores(out)

        abs_pts = out[0].points
        on_a = np.flatnonzero(np.linalg.norm(abs_pts - a_center, axis=1) < 1e-9)
        assert on_a.size == 1
        token = bilinear_sample(grid, abs_pts[on_a[0]])
        assert np.allclose(token, scene.objects[0].signature, atol=1e-9)
        assert out[0].weights[on_a[0]] > out[0].weights.mean()
