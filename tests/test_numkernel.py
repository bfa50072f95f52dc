import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfusion import decoder, numkernel
from hqfusion.decoder import (DecoderConfig, SceneFeatures, build_tokens,
                              plan_tokens)
from hqfusion.errors import ConfigError, ShapeError
from hqfusion.numkernel import (MhaWeights, bilinear_at, multi_head_attention,
                                softmax_rows, top_keys)
from hqfusion.qinit import TYPE_IMG, TYPE_RAD, TYPE_W
from hqfusion.qswap import BEV_KINDS, base_bank, normalize_sample_scores
from hqfusion.scene import FeatureGrid
from hqfusion.weights_io import init_weights

from reference import (cell_center, dense_attention, identity_mha_weights,
                       naive_bilinear, naive_bilinear_at,
                       naive_cross_type_blocked, naive_masked_softmax,
                       naive_mha, naive_top_keys)

IMG, RAD, W = TYPE_IMG, TYPE_RAD, TYPE_W


def random_mha_weights(rng, d, heads):
    def lin():
        return rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
    return MhaWeights(heads, lin(), lin(), lin(), lin(),
                      rng.normal(0, 0.1, d), rng.normal(0, 0.1, d),
                      rng.normal(0, 0.1, d), rng.normal(0, 0.1, d))


def random_types(rng, n):
    return rng.integers(0, 3, size=n)


def softmax(logits, blocked):
    """softmax_rows on a fresh float64 copy of one or more logit rows."""
    return softmax_rows(np.array(logits, dtype=np.float64),
                        np.array(blocked, dtype=bool))


class TestMaskedSoftmax:
    def test_symmetric(self):
        out = softmax([0.0, 0.0], [False, False])
        assert np.allclose(out, [0.5, 0.5])

    def test_single_open_entry_is_exact(self):
        out = softmax([5.0, 100.0], [False, True])
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_direct_evaluation(self):
        # frozen from the naive oracle
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        out = softmax([1.0, 2.0, 3.0], [False, False, False])
        assert np.allclose(out, expected, atol=1e-9)

    def test_fully_blocked_row_is_exact_zeros(self):
        logits = np.array([[1.0, 2.0, 3.0], [4.0, -5.0, 6.0], [0.0, 1.0, 2.0]])
        blocked = np.array([[False, True, False], [True, True, True],
                            [False, False, False]])
        out = softmax_rows(logits, blocked)
        assert out is logits  # in place
        assert (out[1] == 0.0).all()
        assert np.array_equal(out[0], softmax([1.0, 2.0, 3.0],
                                              [False, True, False]))
        assert np.allclose(out[2], naive_masked_softmax([0.0, 1.0, 2.0],
                                                        [False] * 3), atol=1e-12)

    def test_no_mask_matches_open_mask(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 5, (4, 7))
        want = softmax(logits, np.zeros((4, 7), dtype=bool))
        assert np.array_equal(softmax_rows(logits.copy()), want)

    @given(st.integers(2, 12), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_blocked_zero_and_sum_one(self, n, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, n)
        blocked = rng.random(n) < 0.5
        blocked[rng.integers(n)] = False
        out = softmax(logits, blocked)
        assert (out[blocked] == 0.0).all()
        assert (out[~blocked] > 0.0).all()
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.allclose(out, naive_masked_softmax(logits, blocked), atol=1e-12)


class TestMultiHeadAttention:
    def test_self_only_single_query(self):
        rng = np.random.default_rng(1)
        d = 8
        w = random_mha_weights(rng, d, 2)
        q = rng.normal(size=(1, d))
        out, attn = dense_attention(q, q, q, w)
        assert np.allclose(attn, [[1.0]])
        v = q @ w.wv.T + w.bv
        assert np.allclose(out, v @ w.wo.T + w.bo, atol=1e-12)

    def test_equal_logits_average_values(self):
        # identity projections, zero keys -> every dot product equal -> each
        # output row is the mean of the two value rows
        d = 4
        w = identity_mha_weights(d)
        q = np.array([[1.0, 2.0, 0.0, -1.0], [0.5, -0.5, 3.0, 0.0]])
        k = np.zeros((2, d))
        v = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
        out, attn = dense_attention(q, k, v, w)
        assert np.allclose(attn, np.full((2, 2), 0.5), atol=1e-12)
        expected = np.tile(v.mean(axis=0), (2, 1))
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_random_matches_naive(self, heads):
        rng = np.random.default_rng(42 + heads)
        n, d = 8, 16
        w = random_mha_weights(rng, d, heads)
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(n, d))
        v = rng.normal(size=(n, d))
        types = random_types(rng, n)
        out, attn = dense_attention(q, k, v, w, types)
        ref_out, ref_attn = naive_mha(q, k, v, naive_cross_type_blocked(types), w)
        assert np.allclose(out, ref_out, rtol=1e-9, atol=1e-12)
        assert np.allclose(attn, ref_attn, rtol=1e-9, atol=1e-12)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_bad_head_count(self):
        rng = np.random.default_rng(0)
        w = random_mha_weights(rng, 6, 4)
        q = rng.normal(size=(2, 6))
        with pytest.raises(ConfigError):
            multi_head_attention(q, q, q, w)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n, d = 6, 8
        w = random_mha_weights(rng, d, 2)
        q = rng.normal(size=(n, d))
        types = random_types(rng, n)
        out, attn = dense_attention(q, q, q, w, types)
        perm = rng.permutation(n)
        out_p, attn_p = dense_attention(q[perm], q[perm], q[perm], w,
                                             types[perm])
        assert np.allclose(out_p, out[perm], atol=1e-12)
        assert np.allclose(attn_p, attn[np.ix_(perm, perm)], atol=1e-12)


def rows_per_block(rows, heads, keys):
    """ATTN_BLOCK_BYTES that puts `rows` query rows in a block of `keys` logits."""
    return 8 * heads * keys * rows


def check_against_naive(q, k, v, types, w):
    """The kernel against naive_mha at the oracle tolerances; blocked == 0.0.

    Every entry is open without `types`, else naive_cross_type_blocked's."""
    blocked = (np.zeros((len(q), len(k)), dtype=bool) if types is None
               else naive_cross_type_blocked(types))
    out, attn = dense_attention(q, k, v, w, types)
    ref_out, ref_attn = naive_mha(q, k, v, blocked, w)
    assert np.allclose(out, ref_out, rtol=1e-9, atol=1e-12)
    assert np.allclose(attn, ref_attn, rtol=1e-9, atol=1e-12)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)
    assert (attn[blocked] == 0.0).all()
    return attn


# type vectors: one type only, a type absent, a single query of one type,
# interleaved, a permuted mix, and one query
TYPE_CASES = [
    [W] * 7,
    [IMG, RAD, IMG, RAD, RAD, IMG],
    [IMG] * 5 + [RAD] + [W] * 4,
    [IMG, RAD, W] * 4,
    list(np.random.default_rng(9).permutation([IMG] * 6 + [RAD] * 3 + [W] * 4)),
    [RAD],
]


class TestGroupedAttention:
    @pytest.mark.parametrize("types", TYPE_CASES)
    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_cross_type_groups_match_naive(self, monkeypatch, types, block_rows):
        # q, k and v differ, so the self column must take key i, not query i
        types = np.array(types)
        n, d, heads = len(types), 8, 2
        if block_rows is not None:
            monkeypatch.setattr(numkernel, "ATTN_BLOCK_BYTES",
                                rows_per_block(block_rows, heads, n))
        rng = np.random.default_rng(n + (block_rows or 0))
        w = random_mha_weights(rng, d, heads)
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        attn = check_against_naive(q, k, v, types, w)
        same = (types[:, None] == types[None, :]) & ~np.eye(n, dtype=bool)
        assert (attn[same] == 0.0).all()

    @pytest.mark.parametrize("n", [1, 3, 4, 13])
    @pytest.mark.parametrize("kind", ["open", "one_type", "cross"])
    def test_row_counts_around_the_block(self, monkeypatch, n, kind):
        # four rows per block of n logits: n = 1 and 3 fit in less than one
        # block, 4 in exactly one, 13 leaves a one-row tail; with one type
        # every row sees only itself, a group with no open keys
        d, heads = 8, 4
        monkeypatch.setattr(numkernel, "ATTN_BLOCK_BYTES",
                            rows_per_block(4, heads, n))
        rng = np.random.default_rng(100 + n)
        w = random_mha_weights(rng, d, heads)
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        if kind == "open":
            types = None
        elif kind == "one_type":
            types = np.full(n, W)
        else:
            types = rng.integers(0, 3, size=n)
        check_against_naive(q, k, v, types, w)

    def test_rectangular_open_mask(self, monkeypatch):
        monkeypatch.setattr(numkernel, "ATTN_BLOCK_BYTES", rows_per_block(2, 2, 7))
        rng = np.random.default_rng(5)
        w = random_mha_weights(rng, 8, 2)
        q = rng.normal(size=(5, 8))
        k, v = rng.normal(size=(7, 8)), rng.normal(size=(7, 8))
        check_against_naive(q, k, v, None, w)

    def test_no_queries(self):
        rng = np.random.default_rng(6)
        w = random_mha_weights(rng, 8, 2)
        empty = np.zeros((0, 8))
        for types in (None, np.zeros(0, dtype=np.int64)):
            out, attn = dense_attention(empty, empty, empty, w, types)
            assert out.shape == (0, 8) and attn.shape == (0, 0)

    def test_types_must_match_a_self_attention(self):
        rng = np.random.default_rng(7)
        w = random_mha_weights(rng, 8, 2)
        q, k = rng.normal(size=(3, 8)), rng.normal(size=(4, 8))
        with pytest.raises(ShapeError):
            multi_head_attention(q, q, q, w, np.array([IMG, RAD]))
        with pytest.raises(ShapeError):
            multi_head_attention(q, k, k, w, np.array([IMG, RAD, W]))


class TestReducer:
    @pytest.mark.parametrize("types", [None, *TYPE_CASES[:4]])
    def test_output_is_the_reducers_and_only_the_output(self, monkeypatch,
                                                         types):
        # the kernel hands every row's weights to the reducer exactly once,
        # returns only the (n_q, d) output, and its output is the same
        # without a reducer
        n = 10 if types is None else len(types)
        types = None if types is None else np.array(types)
        monkeypatch.setattr(numkernel, "ATTN_BLOCK_BYTES",
                            rows_per_block(3, 2, n))
        rng = np.random.default_rng(n)
        w = random_mha_weights(rng, 8, 2)
        q = rng.normal(size=(n, 8))
        seen = []
        out = multi_head_attention(q, q, q, w, types,
                                   lambda rows, *_: seen.extend(rows))
        assert isinstance(out, np.ndarray) and out.shape == (n, 8)
        assert sorted(seen) == list(range(n))
        assert np.array_equal(multi_head_attention(q, q, q, w, types), out)
        assert np.array_equal(dense_attention(q, q, q, w, types)[0], out)


class TestTopKeys:
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 16, 23, 24, 30])
    def test_matches_sorted_rows(self, n):
        # eighths tie within a row and at its n-th largest value, zeros
        # come in both signs, and -inf entries are no keys: row 0 has none,
        # row 1 one, row 2 is one tie over the whole row
        rng = np.random.default_rng(40 + n)
        w = rng.integers(0, 9, (60, 24)) / 8.0
        w[(w == 0.0) & (rng.random(w.shape) < 0.5)] = -0.0
        w[rng.random(w.shape) < 0.2] = -np.inf
        w[0] = -np.inf
        w[1, 1:] = -np.inf
        w[2] = 0.5
        kept = w.copy()
        cols, vals = top_keys(w, n)
        assert np.array_equal(w, kept)
        m = min(n, 24)
        assert cols.shape == vals.shape == (60, m) and cols.dtype == np.int64
        for i, row in enumerate(w):
            want_cols, want_vals = naive_top_keys(
                row, np.flatnonzero(row > -np.inf), m)
            assert cols[i].tolist() == want_cols, i
            # bit for bit, so -0.0 stays -0.0
            assert np.array_equal(vals[i].view(np.int64),
                                  np.array(want_vals).view(np.int64)), i

    def test_both_paths_agree(self, monkeypatch):
        # argmax passes and the partition give the same keys at every n
        rng = np.random.default_rng(7)
        w = rng.integers(0, 5, (40, 30)) / 4.0
        w[rng.random(w.shape) < 0.3] = -np.inf
        for n in (1, 3, 8, 12, 29, 30):
            monkeypatch.setattr(numkernel, "ARGMAX_KEYS", 0)
            part = top_keys(w, n)
            monkeypatch.setattr(numkernel, "ARGMAX_KEYS", 30)
            passes = top_keys(w, n)
            assert np.array_equal(part[0], passes[0])
            assert np.array_equal(part[1], passes[1])


def make_grid(rng, h=6, w=5, d=3, voxel=1.0, x_min=-2.5, y_min=-3.0):
    data = rng.normal(size=(h, w, d))
    return FeatureGrid(data, x_min, x_min + w * voxel, y_min, y_min + h * voxel,
                       voxel)


def sample_at(grid, x, y):
    """Metric points on the grid, read as the decoder reads a BEV token."""
    return bilinear_at(grid.data, *grid.frac_coords(x, y))


def tokens_at(grid, points, scores=None):
    """Metric (M, 2) points as one query's img_bev and rad_bev tokens.

    Both banks hold the points at a query at the origin, on the same grid,
    so the query's 2M tokens are the points twice.  Returns build_tokens'
    (features, log weights, valid) and the banks' normalized weights.
    """
    points = np.asarray(points, dtype=np.float64).reshape(1, -1, 2)
    m = points.shape[1]
    bank = base_bank(np.zeros((1, 2)), points,
                     np.zeros((1, m)) if scores is None else scores)
    bank.weights = normalize_sample_scores(bank)
    cfg = DecoderConfig(layers=1, d=grid.d, heads=1, k_pv=0)
    plan = plan_tokens(np.zeros((1, grid.d)), np.zeros((1, 3)),
                       SceneFeatures(grid, grid, [], []),
                       init_weights(0, cfg), dict.fromkeys(BEV_KINDS, bank), 0)
    tok, logw, valid = build_tokens(plan, slice(0, 1))
    return tok[0].copy(), logw[0], valid[0], bank.weights[0]


class TestBilinear:
    def test_cell_center_identity(self):
        rng = np.random.default_rng(0)
        grid = make_grid(rng)
        p = cell_center(grid, 2, 3)
        assert np.allclose(sample_at(grid, *p), grid.data[2, 3], atol=1e-12)

    def test_midpoint_mean(self):
        rng = np.random.default_rng(1)
        grid = make_grid(rng)
        a = cell_center(grid, 2, 1)
        b = cell_center(grid, 2, 2)
        mid = (a + b) / 2
        expected = (grid.data[2, 1] + grid.data[2, 2]) / 2
        assert np.allclose(sample_at(grid, *mid), expected, atol=1e-12)

    def test_random_matches_naive(self):
        rng = np.random.default_rng(2)
        grid = make_grid(rng)
        for _ in range(200):
            x = rng.uniform(grid.x_min, grid.x_max)
            y = rng.uniform(grid.y_min, grid.y_max)
            assert np.allclose(sample_at(grid, x, y), naive_bilinear(grid, x, y),
                               atol=1e-12)

    def test_out_of_extent_zero(self, monkeypatch):
        # off-grid points keep their token slot as exact zeros and are never
        # handed to bilinear_at
        rng = np.random.default_rng(3)
        grid = make_grid(rng)
        points = [(grid.x_max + 0.1, 0.0), (0.0, grid.y_min - 1e-9),
                  cell_center(grid, 1, 1)]
        seen = []

        def record(data, fy, fx):
            seen.append(np.size(fy))
            return bilinear_at(data, fy, fx)

        monkeypatch.setattr(decoder, "bilinear_at", record)
        tok, _, valid, _ = tokens_at(grid, points)
        assert valid.all()
        assert (tok[[0, 1, 3, 4]] == 0.0).all()
        assert np.allclose(tok[[2, 5]], grid.data[1, 1], atol=1e-12)
        assert seen == [1, 1]

    def test_partition_of_unity(self):
        # constant grid stays constant wherever we sample inside the extent
        grid = make_grid(np.random.default_rng(4))
        grid.data[:] = 7.5
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(grid.x_min, grid.x_max)
            y = rng.uniform(grid.y_min, grid.y_max)
            assert np.allclose(sample_at(grid, x, y), 7.5, atol=1e-12)

    def test_continuity_across_cell_boundary(self):
        rng = np.random.default_rng(6)
        grid = make_grid(rng)
        # boundary between columns 1 and 2 sits at the x of a cell edge
        x_edge = grid.x_min + 2.0 * grid.voxel
        y = cell_center(grid, 3, 0)[1]
        eps = 1e-10
        left = sample_at(grid, x_edge - eps, y)
        right = sample_at(grid, x_edge + eps, y)
        assert np.allclose(left, right, atol=1e-8)

    def test_many_matches_single(self):
        # tokens of one query, on and off the grid, equal their points read
        # one at a time
        rng = np.random.default_rng(7)
        grid = make_grid(rng)
        pts = np.column_stack([rng.uniform(grid.x_min - 1, grid.x_max + 1, 50),
                               rng.uniform(grid.y_min - 1, grid.y_max + 1, 50)])
        many = tokens_at(grid, pts)[0]
        for i, p in enumerate(pts):
            assert np.allclose(many[i], tokens_at(grid, [p])[0][0], atol=1e-12)
        assert (pts[:, 0] > grid.x_max).any() and (pts[:, 1] < grid.y_min).any()

    def test_bilinear_at_clamps_to_border(self):
        # half a cell above the first row: both interpolation rows clamp to
        # row 0, so the blend collapses to the border cell
        rng = np.random.default_rng(8)
        data = rng.normal(size=(4, 4, 2))
        out = bilinear_at(data, np.array([-0.5]), np.array([1.0]))
        assert np.allclose(out, data[0, 1], atol=1e-12)

    @pytest.mark.parametrize("shape, lo, hi, coord_shape", [
        ((7, 9, 5), (0.0, 0.0), (6.0, 8.0), (300,)),        # interior
        ((7, 9, 5), (-3.0, -3.0), (9.5, 11.5), (300,)),     # all four borders
        ((1, 9, 5), (-2.0, -2.0), (2.0, 10.0), (200,)),     # 1 x W
        ((7, 1, 5), (-2.0, -2.0), (8.0, 2.0), (200,)),      # H x 1
        ((7, 9, 5), (-1.0, -1.0), (7.5, 9.5), (13, 4)),     # (n, k_pv)
        ((7, 9, 5), (0.0, 0.0), (6.0, 8.0), (0,)),          # no points
        ((7, 9, 5), (0.0, 0.0), (6.0, 8.0), (0, 4)),
    ])
    def test_bilinear_at_bit_equal_to_corner_gather(self, shape, lo, hi,
                                                    coord_shape):
        rng = np.random.default_rng(9)
        data = rng.normal(size=shape)
        kept = data.copy()
        fy = rng.uniform(lo[0], hi[0], coord_shape)
        fx = rng.uniform(lo[1], hi[1], coord_shape)
        # exact cell centers and the clamp edges themselves
        flat_y, flat_x = fy.reshape(-1), fx.reshape(-1)
        edges = [(-0.5, -0.5), (0.0, 0.0), (shape[0] - 1, shape[1] - 1),
                 (shape[0] - 0.5, -1.0), (-1.0, shape[1] - 0.5), (2.0, 3.0)]
        for k, (y, x) in enumerate(edges[:flat_y.size]):
            flat_y[k], flat_x[k] = y, x
        got = bilinear_at(data, fy, fx)
        want = naive_bilinear_at(data, fy, fx)
        assert got.shape == coord_shape + (shape[2],)
        assert np.array_equal(got, want)
        assert np.array_equal(data, kept)


class TestNoNonFinite:
    @given(st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_mha_finite(self, n, seed):
        rng = np.random.default_rng(seed)
        d = 8
        w = random_mha_weights(rng, d, 2)
        q = rng.normal(0, 10, size=(n, d))
        out, attn = dense_attention(q, q, q, w, random_types(rng, n))
        assert np.isfinite(out).all()
        assert np.isfinite(attn).all()
