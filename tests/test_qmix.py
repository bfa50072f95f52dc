import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfusion import numkernel
from hqfusion.numkernel import MhaWeights, multi_head_attention
from hqfusion.qinit import TYPE_IMG, TYPE_RAD, TYPE_W
from hqfusion.qmix import (AttentionRows, QMixWeights, attention_type_stats,
                           extract_top_links)

from reference import (DenseAttention, dense_attention, dense_qmix,
                       identity_mha_weights, naive_cross_type_blocked,
                       naive_link_rows, naive_mixing_block, naive_row_mass,
                       naive_top_keys, naive_top_links, naive_type_stats,
                       reduce_matrix)

IMG, RAD, W = TYPE_IMG, TYPE_RAD, TYPE_W


def random_mixing_weights(rng, d, heads):
    def lin(m, n):
        return rng.normal(0.0, 1.0 / np.sqrt(n), size=(m, n))
    mha = MhaWeights(heads, lin(d, d), lin(d, d), lin(d, d), lin(d, d),
                     rng.normal(0, 0.1, d), rng.normal(0, 0.1, d),
                     rng.normal(0, 0.1, d), rng.normal(0, 0.1, d))
    return QMixWeights(mha, np.ones(d), np.zeros(d),
                       lin(4 * d, d), rng.normal(0, 0.1, 4 * d),
                       lin(d, 4 * d), rng.normal(0, 0.1, d))


def identity_mixing_weights(d):
    """MHA identity; MLP contributes nothing; LN left as-is via gamma=1."""
    mha = identity_mha_weights(d)
    return QMixWeights(mha, np.ones(d), np.zeros(d),
                       np.zeros((4 * d, d)), np.zeros(4 * d),
                       np.zeros((d, 4 * d)), np.zeros(d))


def link_rows(attn, types):
    """The LinkRows an AttentionRows reducer keeps of a dense matrix."""
    return reduce_matrix(attn, AttentionRows(types)).links


def type_stats(attn, types):
    """attention_type_stats of a dense matrix's row masses."""
    return attention_type_stats(naive_row_mass(attn, types), types)


def kernel_blocked(types):
    """The entries the attention kernel blocks for `types`: its exact zeros.

    Identity projections of zero queries give every open entry the same
    logit, so an open entry's weight is 1 / (open keys of its row) > 0.
    """
    zeros = np.zeros((len(types), 4))
    _, attn = dense_attention(zeros, zeros, zeros, identity_mha_weights(4),
                              np.array(types))
    return attn == 0.0


class TestCrossTypeMask:
    def test_single_query_open_diagonal(self):
        assert kernel_blocked([W]).tolist() == [[False]]

    def test_two_different_types_all_open(self):
        assert not kernel_blocked([IMG, RAD]).any()

    def test_mixed_example(self):
        expected = [[False, True, False],
                    [True, False, False],
                    [False, False, False]]
        assert kernel_blocked([IMG, IMG, RAD]).tolist() == expected

    @given(st.lists(st.sampled_from([IMG, RAD, W]), min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_matches_predicate_and_symmetry(self, types):
        types = np.array(types)
        blocked = kernel_blocked(types)
        assert np.array_equal(blocked, naive_cross_type_blocked(types))
        assert np.array_equal(blocked, blocked.T)
        assert not blocked.diagonal().any()


class TestQMixAttention:
    def test_all_same_type_self_only(self):
        rng = np.random.default_rng(0)
        d = 8
        w = random_mixing_weights(rng, d, 2)
        q = rng.normal(size=(4, d))
        types = np.full(4, W)
        _, attn = dense_qmix(q, types, w)
        assert np.array_equal(attn, np.eye(4))
        # the masked MHA inside reduces to each query's own value projection
        out = multi_head_attention(q, q, q, w.mha, types)
        expected = (q @ w.mha.wv.T + w.mha.bv) @ w.mha.wo.T + w.mha.bo
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_types_equal_logits(self):
        d = 4
        w = identity_mixing_weights(d)
        w.mha.wk = np.zeros((d, d))  # all logits equal -> 0.5 / 0.5
        q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        _, attn = dense_qmix(q, np.array([IMG, RAD]), w)
        assert np.allclose(attn, 0.5)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(1)
        d = 16
        w = random_mixing_weights(rng, d, 4)
        q = rng.normal(size=(12, d))
        types = np.array([IMG, IMG, RAD, W, W, RAD, IMG, W, RAD, W, IMG, RAD])
        out, attn = dense_qmix(q, types, w)
        ref_out, ref_attn = naive_mixing_block(q, naive_cross_type_blocked(types), w)
        assert np.allclose(out, ref_out, rtol=1e-9, atol=1e-12)
        assert np.allclose(attn, ref_attn, rtol=1e-9, atol=1e-12)

    def test_same_type_entries_exactly_zero(self):
        rng = np.random.default_rng(2)
        d = 8
        w = random_mixing_weights(rng, d, 2)
        types = np.array([IMG, IMG, RAD, RAD, W, W, W])
        q = rng.normal(size=(7, d))
        _, attn = dense_qmix(q, types, w)
        same = (types[:, None] == types[None, :]) & ~np.eye(7, dtype=bool)
        assert (attn[same] == 0.0).all()
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    @given(types=st.lists(st.sampled_from([IMG, RAD, W]), min_size=1, max_size=20),
           block_rows=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_random_types_match_naive(self, types, block_rows, seed):
        # the per-type row groups, in blocks of block_rows rows, against the
        # dense oracle; same-type entries off the diagonal are exact zeros
        types = np.array(types)
        n, d, heads = len(types), 8, 2
        rng = np.random.default_rng(seed)
        w = random_mixing_weights(rng, d, heads)
        q = rng.normal(size=(n, d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numkernel, "ATTN_BLOCK_BYTES", 8 * heads * n * block_rows)
            out, attn = dense_qmix(q, types, w)
        ref_out, ref_attn = naive_mixing_block(q, naive_cross_type_blocked(types), w)
        assert np.allclose(out, ref_out, rtol=1e-9, atol=1e-12)
        assert np.allclose(attn, ref_attn, rtol=1e-9, atol=1e-12)
        same = (types[:, None] == types[None, :]) & ~np.eye(n, dtype=bool)
        assert (attn[same] == 0.0).all()
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        d = 8
        w = random_mixing_weights(rng, d, 2)
        types = np.array([IMG, RAD, W, IMG, RAD, W])
        q = rng.normal(size=(6, d))
        out, attn = dense_qmix(q, types, w)
        perm = rng.permutation(6)
        out_p, attn_p = dense_qmix(q[perm], types[perm], w)
        assert np.allclose(out_p, out[perm], atol=1e-12)
        assert np.allclose(attn_p, attn[np.ix_(perm, perm)], atol=1e-12)


# three query vectors: a row's logits take at most three values, so equal
# weights tie within rows and across row blocks
QUANTISED = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5],
                      [0.5, 0.5, 1.0, 1.0]])

# types: interleaved groups (no group's keys are one run), world only (a
# masked row has no open key), one image query among world queries
REDUCER_TYPES = {
    "mixed": list(np.random.default_rng(12).permutation(
        [IMG] * 7 + [RAD] * 5 + [W] * 9)),
    "world": [W] * 11,
    "one_img": [W] * 6 + [IMG] + [W] * 5,
}


class TestAttentionRows:
    @pytest.mark.parametrize("kind", sorted(REDUCER_TYPES))
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n_neighbors", [0, 1, 3, 9, "n-1", "n+5"])
    @pytest.mark.parametrize("block_rows", [1, 4, None])
    def test_matches_dense_oracles(self, monkeypatch, kind, masked,
                                   n_neighbors, block_rows):
        types = np.array(REDUCER_TYPES[kind])
        n = len(types)
        n_neighbors = {"n-1": n - 1, "n+5": n + 5}.get(n_neighbors, n_neighbors)
        if block_rows is not None:
            monkeypatch.setattr(numkernel, "ATTN_BLOCK_BYTES",
                                8 * 2 * n * block_rows)
        rng = np.random.default_rng(n + (block_rows or 0))
        q = QUANTISED[rng.integers(0, 3, n)]
        rows = AttentionRows(types, n_neighbors)
        dense = DenseAttention(n, then=rows)
        multi_head_attention(q, q, q, identity_mha_weights(4, heads=2),
                             types if masked else None, dense)
        attn = dense.matrix
        ids = np.arange(n)
        # the oracles meet ties: some row holds a weight twice, unless each
        # row sees only its own key
        assert (any(len(np.unique(a[a > 0.0])) < (a > 0.0).sum() for a in attn)
                or (attn > 0.0).sum() == n)

        assert np.allclose(rows.mass, naive_row_mass(attn, types), rtol=0.0,
                           atol=1e-12)
        targets, weights = naive_link_rows(attn, types)
        assert np.array_equal(rows.links.targets, targets)
        assert np.array_equal(rows.links.weights.view(np.int64),
                              weights.view(np.int64))
        partners = (types[:, None] != types[None, :]).sum(axis=1)
        assert np.array_equal(rows.links.counts, np.minimum(partners, 2))
        m = min(n_neighbors, n - 1)
        assert rows.neighbors.shape == rows.affinities.shape == (n, m)
        for i in range(n):
            # masked, a row's open keys are the other types'
            open_keys = ids[(types != types[i]) if masked else (ids != i)]
            want_ids, want_w = naive_top_keys(attn[i], open_keys, m)
            assert rows.neighbors[i].tolist() == want_ids, i
            assert rows.affinities[i].tolist() == want_w, i

    def test_link_padding(self):
        # a row with fewer partners than LINKS_PER_QUERY ends in target -1
        # and weight 0.0, unmasked or masked
        types = np.array([W, W, IMG, W])
        q = QUANTISED[[0, 1, 2, 0]]
        w = identity_mha_weights(4, heads=2)
        for masked in (None, types):
            rows = AttentionRows(types)
            multi_head_attention(q, q, q, w, masked, rows)
            assert rows.links.counts.tolist() == [1, 1, 2, 1]
            assert rows.links.targets[:, 1].tolist() == [-1, -1, 1, -1]
            assert rows.links.weights[[0, 1, 3], 1].tolist() == [0.0] * 3
            assert (rows.links.targets[[0, 1, 3], 0] == 2).all()
        rows = AttentionRows(types[[0, 1, 3]])
        multi_head_attention(q[:3], q[:3], q[:3], w, types[[0, 1, 3]], rows)
        assert (rows.links.counts == 0).all()
        assert (rows.links.targets == -1).all()
        assert (rows.links.weights == 0.0).all()


class TestTypeStats:
    def test_uniform_equal_counts(self):
        n = 9
        types = np.array([IMG] * 3 + [RAD] * 3 + [W] * 3)
        attn = np.full((n, n), 1.0 / n)
        stats = type_stats(attn, types)
        assert np.allclose(stats.mass, 1.0 / 3.0, atol=1e-12)
        assert np.allclose(stats.mean_per_key, 1.0 / 9.0, atol=1e-12)

    def test_qmix_masked_diagonal_mass(self):
        rng = np.random.default_rng(4)
        types = np.array([IMG, IMG, RAD, W])
        q = rng.normal(size=(4, 8))
        w = random_mixing_weights(rng, 8, 2)
        _, attn = dense_qmix(q, types, w)
        stats = type_stats(attn, types)
        img_diag = attn[0, 0] + attn[1, 1]
        assert np.isclose(stats.mass[IMG, IMG], img_diag / 2.0, atol=1e-12)

    def test_three_singletons_mass_equals_attn(self):
        types = np.array([IMG, RAD, W])
        attn = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        stats = type_stats(attn, types)
        assert np.allclose(stats.mass, attn, atol=1e-12)
        assert np.allclose(stats.mean_per_key, attn, atol=1e-12)

    def test_absent_type_zero_rows(self):
        types = np.array([IMG, IMG])
        attn = np.array([[0.4, 0.6], [0.7, 0.3]])
        stats = type_stats(attn, types)
        assert (stats.mass[RAD] == 0.0).all()
        assert (stats.mass[:, RAD] == 0.0).all()
        assert (stats.mean_per_key[W] == 0.0).all()
        assert np.isclose(stats.mass[IMG, IMG], 1.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        n = 10
        types = rng.integers(0, 3, n)
        types[:3] = [IMG, RAD, W]  # every type present
        logits = rng.normal(size=(n, n))
        attn = np.exp(logits)
        attn /= attn.sum(axis=1, keepdims=True)
        stats = type_stats(attn, types)
        ref_mass, ref_mpk = naive_type_stats(attn, types)
        assert np.allclose(stats.mass, ref_mass, atol=1e-12)
        assert np.allclose(stats.mean_per_key, ref_mpk, atol=1e-12)
        assert np.allclose(stats.mass.sum(axis=1), 1.0, atol=1e-9)


class TestTopLinks:
    def test_no_confident_queries(self):
        attn = np.eye(3)
        types = np.array([IMG, RAD, W])
        assert extract_top_links(link_rows(attn, types), types,
                                 np.zeros(3)) == []

    def test_ranked_cross_links(self):
        types = np.array([IMG, RAD, W])
        attn = np.array([[0.5, 0.3, 0.2], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        links = extract_top_links(link_rows(attn, types), types,
                                  np.array([0.9, 0.0, 0.0]))
        assert [(l["source"], l["target"]) for l in links] == [(0, 1), (0, 2)]
        assert links[0]["weight"] == 0.3 and links[1]["weight"] == 0.2
        assert (links[0]["source_type"] == "img"
                and links[0]["target_type"] == "rad")

    def test_single_partner_truncates(self):
        types = np.array([IMG, RAD])
        attn = np.array([[0.7, 0.3], [0.4, 0.6]])
        links = extract_top_links(link_rows(attn, types), types,
                                  np.array([1.0, 0.0]))
        assert len(links) == 1
        assert links[0]["target"] == 1

    def test_matches_per_query_sort(self):
        rng = np.random.default_rng(3)
        type_draws = [
            lambda n: rng.integers(0, 3, n),                   # mixed
            lambda n: np.array([IMG] + [RAD] * (n - 1)),       # one img query
            lambda n: rng.choice([RAD, W], n),                 # two types only
            lambda n: np.full(n, W),                           # no partners
        ]
        for trial in range(400):
            n = int(rng.integers(1, 41))
            types = type_draws[trial % len(type_draws)](n)
            # quantized weights force ties; zeros come in both signs
            attn = rng.integers(0, 4, (n, n)) / 4.0
            attn[(attn == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
            conf = rng.choice([0.0, 0.05, 0.1, 0.1 + 1e-12, 0.5, 1.0], n)
            got = extract_top_links(link_rows(attn, types), types, conf)
            want = naive_top_links(attn, types, conf)
            assert got == want
            # == treats -0.0 and 0.0 alike; the report bytes do not
            assert json.dumps(got) == json.dumps(want)
