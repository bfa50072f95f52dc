import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from hqfusion import cli, decoder, numkernel
from hqfusion.decoder import (DecoderConfig, SceneFeatures,
                              aggregate_features_batch, apply_type_adapter,
                              build_tokens, decode, detection_head,
                              mixing_weights, plan_tokens, predict_base_sets,
                              shared_self_attention,
                              sinusoidal_position_encoding)
from hqfusion.errors import ConfigError, NonFiniteError
from hqfusion.numkernel import bilinear_at
from hqfusion.qinit import (BOX_PRIOR_WL, TYPE_IMG, TYPE_RAD, TYPE_W, QuerySet,
                            concat_query_sets, generate_2d_proposals,
                            init_image_queries, init_radar_queries,
                            init_world_queries)
from hqfusion.qswap import (BEV_KINDS, ORIGIN_SHARED, QSwapConfig, base_bank,
                            normalize_sample_scores, swap_samples)
from hqfusion.scene import (RadarSimConfig, encode_radar_bev,
                            generate_scene, render_image_bev,
                            render_pv_features, simulate_radar_points)
from hqfusion.weights_io import init_weights

from reference import (DenseAttention, Token, aggregate_features,
                       bilinear_sample, dense_qmix, naive_bilinear,
                       naive_bilinear_frac, naive_layer_norm, naive_mha,
                       naive_top_links, pad_neighbors, project_to_view,
                       sample_features)
from test_qswap import select_in_row


def dense_self_attention(emb, pos, w, heads):
    """shared_self_attention's output and its affinity matrix."""
    dense = DenseAttention(len(emb))
    return shared_self_attention(emb, pos, w, heads, dense), dense.matrix


def token_space(emb, w):
    """The aggregation queries in token space, Wk^T (Wq q + bq), per row."""
    return (emb @ w["agg.wq"].T + w["agg.bq"]) @ w["agg.wk"]


def toy_config(**kw):
    base = dict(layers=2, d=16, heads=2, num_classes=4, k_pv=2, extent=16.0,
                qswap=QSwapConfig(k_base=4))
    base.update(kw)
    return DecoderConfig(**base)


def toy_setup(seed=5, n_world=9, n_img=4, n_rad=4, num_objects=3, cfg=None):
    cfg = cfg or toy_config()
    from hqfusion.scene import SceneConfig
    scfg = SceneConfig(extent=cfg.extent, num_objects=num_objects,
                       num_clutter=4, num_classes=cfg.num_classes,
                       num_cameras=4, feature_dim=cfg.d)
    scene = generate_scene(seed, scfg)
    pv = render_pv_features(scene, cfg.d, 0.02, seed=seed)
    img_bev = render_image_bev(scene, 1.0, cfg.d, 0.02, miss_rate=0.2, seed=seed)
    cloud = simulate_radar_points(scene, seed, RadarSimConfig(clutter_count=6))
    rad_bev, heatmap = encode_radar_bev(cloud, cfg.extent, 1.0, cfg.d, seed=seed)
    world = init_world_queries(n_world, cfg.extent, cfg.d, seed, rings=3)
    props = generate_2d_proposals(scene, pv, per_view=6, seed=seed)
    image, _ = init_image_queries(props, scene.rig, n_img, cfg.extent, cfg.d)
    radar = init_radar_queries(heatmap, rad_bev, n_rad)
    queries = concat_query_sets(world, image, radar)
    features = SceneFeatures(img_bev, rad_bev, pv, scene.rig)
    weights = init_weights(seed, cfg)
    return scene, features, queries, weights, cfg


class TestTypeAdapter:
    def test_zero_adapter_is_identity(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        for name in list(w):
            if name.startswith(("adapter.", "type_emb.")):
                w[name] = np.zeros_like(w[name])
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(6, cfg.d))
        types = np.array([TYPE_IMG, TYPE_RAD, TYPE_W, TYPE_W, TYPE_IMG, TYPE_RAD])
        out = apply_type_adapter(emb, types, w)
        assert np.allclose(out, emb, atol=1e-12)

    def test_only_w_embedding_moves_w_queries(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        for name in list(w):
            if name.startswith(("adapter.", "type_emb.")):
                w[name] = np.zeros_like(w[name])
        w["type_emb.w"] = np.full(cfg.d, 0.5)
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(4, cfg.d))
        types = np.array([TYPE_IMG, TYPE_W, TYPE_RAD, TYPE_W])
        out = apply_type_adapter(emb, types, w)
        assert np.allclose(out[[0, 2]], emb[[0, 2]], atol=1e-12)
        assert np.allclose(out[[1, 3]], emb[[1, 3]] + 0.5, atol=1e-12)

    def test_matches_affine_composition(self):
        cfg = toy_config()
        w = init_weights(3, cfg)
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(5, cfg.d))
        types = np.array([TYPE_IMG, TYPE_RAD, TYPE_W, TYPE_IMG, TYPE_W])
        out = apply_type_adapter(emb, types, w)
        names = {TYPE_IMG: "img", TYPE_RAD: "rad", TYPE_W: "w"}
        for i in range(5):
            name = names[types[i]]
            h = np.maximum(w[f"adapter.{name}.lin1.w"] @ emb[i]
                           + w[f"adapter.{name}.lin1.b"], 0.0)
            want = (emb[i] + w[f"adapter.{name}.lin2.w"] @ h
                    + w[f"adapter.{name}.lin2.b"] + w[f"type_emb.{name}"])
            assert np.allclose(out[i], want, atol=1e-12)


class TestSharedSelfAttention:
    def test_single_query_affinity(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        emb = np.random.default_rng(0).normal(size=(1, cfg.d))
        pos = np.zeros((1, 3))
        _, affinity = dense_self_attention(emb, pos, w, cfg.heads)
        assert np.allclose(affinity, [[1.0]])

    def test_permutation_equivariance(self):
        cfg = toy_config()
        w = init_weights(1, cfg)
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(4, cfg.d))
        pos = rng.uniform(-10, 10, (4, 3))
        out_emb, out_aff = dense_self_attention(emb, pos, w, cfg.heads)
        perm = np.array([2, 0, 3, 1])
        p_emb, p_aff = dense_self_attention(emb[perm], pos[perm], w, cfg.heads)
        assert np.allclose(p_emb, out_emb[perm], atol=1e-12)
        assert np.allclose(p_aff, out_aff[np.ix_(perm, perm)], atol=1e-12)

    def test_matches_dense_oracle(self):
        cfg = toy_config()
        w = init_weights(2, cfg)
        rng = np.random.default_rng(4)
        n = 8
        emb = rng.normal(size=(n, cfg.d))
        pos = rng.uniform(-10, 10, (n, 3))
        got_emb, got_aff = dense_self_attention(emb, pos, w, cfg.heads)
        pe = sinusoidal_position_encoding(pos, cfg.d)
        from hqfusion.decoder import mha_weights
        mw = mha_weights(w, "self_attn", cfg.heads)
        blocked = np.zeros((n, n), dtype=bool)
        ref_out, ref_attn = naive_mha(emb + pe, emb + pe, emb, blocked, mw)
        ref_emb = naive_layer_norm(emb + ref_out, w["self_attn.ln.gamma"],
                                   w["self_attn.ln.beta"])
        assert np.allclose(got_emb, ref_emb, rtol=1e-9, atol=1e-12)
        assert np.allclose(got_aff, ref_attn, rtol=1e-9, atol=1e-12)


class TestSampleFeatures:
    def test_outside_all_frusta_no_pv_tokens(self):
        _, features, queries, weights, cfg = toy_setup()
        # a point at the rig center has ~zero depth in every camera
        center = np.array([0.0, 0.0, 1.6])
        sets = predict_base_sets(np.zeros((1, cfg.d)), center[None], weights,
                                 cfg.qswap.k_base)
        per_q = {kind: sets[kind][0] for kind in BEV_KINDS}
        assert all(project_to_view(center, c) is None
                   for c in features.rig)
        tokens = sample_features(center, np.zeros(cfg.d), features, weights,
                                 per_q, cfg.k_pv)
        assert all(t.kind != "pv" for t in tokens)
        assert len(tokens) == 2 * cfg.qswap.k_base

    def test_zero_offsets_sample_at_position(self):
        _, features, queries, weights, cfg = toy_setup()
        emb = np.zeros((1, cfg.d))
        pos = np.array([2.3, -1.7, 0.0])
        k = cfg.qswap.k_base
        sets = {kind: base_bank(pos[None], np.zeros((1, k, 2)), np.zeros((1, k)))
                for kind in BEV_KINDS}
        for kind in BEV_KINDS:
            tokens = sample_features(pos, emb[0], features, weights,
                                     {k: sets[k][0] for k in BEV_KINDS}, 0)
            grid = features.grid(kind)
            want = bilinear_sample(grid, pos[:2])
            for t in tokens:
                if t.kind == kind:
                    assert np.allclose(t.feature, want, atol=1e-12)

    def test_matches_projection_and_bilinear_oracles(self):
        _, features, queries, weights, cfg = toy_setup()
        rng = np.random.default_rng(5)
        emb = rng.normal(size=cfg.d)
        pos = np.array([6.0, 3.0, 0.5])
        sets = predict_base_sets(emb[None], pos[None], weights, cfg.qswap.k_base)
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        per_q = {kind: sets[kind][0] for kind in BEV_KINDS}
        tokens = sample_features(pos, emb, features, weights, per_q, cfg.k_pv)

        bev_tokens = [t for t in tokens if t.kind in BEV_KINDS]
        i = 0
        for kind in BEV_KINDS:
            s = per_q[kind]
            grid = features.grid(kind)
            for k in range(s.size):
                t = bev_tokens[i]
                want = naive_bilinear(grid, s.points[k, 0], s.points[k, 1])
                assert np.allclose(t.feature, want, atol=1e-12)
                assert np.isclose(t.weight, s.weights[k])
                i += 1

        pv_tokens = [t for t in tokens if t.kind == "pv"]
        pv_off = weights["sample.pv.offsets"]
        want_feats = []
        for cam, pv in zip(features.rig, features.pv_maps):
            hit = project_to_view(pos, cam)
            if hit is None:
                continue
            for k in range(cfg.k_pv):
                u = hit[0] + pv_off[k, 0]
                v = hit[1] + pv_off[k, 1]
                want_feats.append(naive_bilinear_frac(
                    pv.data, v / pv.voxel - 0.5, u / pv.voxel - 0.5))
        assert len(pv_tokens) == len(want_feats)
        for t, want in zip(pv_tokens, want_feats):
            assert np.allclose(t.feature, want, atol=1e-12)
        if pv_tokens:
            assert np.isclose(sum(t.weight for t in pv_tokens), 1.0, atol=1e-9)


class TestBuildTokens:
    def test_rows_match_per_query_token_lists(self):
        _, features, queries, weights, cfg = toy_setup()
        n = queries.n
        emb = queries.embeddings
        pos = queries.positions.copy()
        pos[0] = [0.0, 0.0, 1.6]  # the rig center: no camera sees it
        sets = predict_base_sets(emb, pos, weights, cfg.qswap.k_base)
        aff = np.full((n, n), 1.0 / n)
        boxes = np.tile([2.0, 4.0], (n, 1))
        nbs = [select_in_row(i, aff[i], boxes, pos[:, :2], cfg.qswap)
               for i in range(n)]
        padded = pad_neighbors(nbs, aff)
        sets = {kind: swap_samples(sets[kind], *padded, cfg.qswap)
                for kind in BEV_KINDS}
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        assert len(set(sets[BEV_KINDS[0]].sizes.tolist())) > 1  # ragged rows
        tok, logw, valid = build_tokens(
            plan_tokens(emb, pos, features, weights, sets, cfg.k_pv),
            slice(0, n))
        for i in range(n):
            tokens = sample_features(pos[i], emb[i], features, weights,
                                     {k: sets[k][i] for k in BEV_KINDS},
                                     cfg.k_pv)
            assert valid[i].sum() == len(tokens)
            assert valid[i, :len(tokens)].all()
            for k, t in enumerate(tokens):
                assert np.allclose(tok[i, k], t.feature, atol=1e-12)
                assert np.isclose(logw[i, k], math.log(t.weight), atol=1e-12)
        assert valid[0].sum() == sum(sets[k].sizes[0] for k in BEV_KINDS)
        assert valid.sum(axis=1).max() == tok.shape[1]

    def test_off_grid_points_are_zero_and_never_interpolated(self,
                                                             monkeypatch):
        # hand-made points off their grid: each keeps a valid slot with its
        # log weight and exact zeros, and bilinear_at is given only the
        # points on the grid
        _, features, queries, weights, cfg = toy_setup()
        emb, pos = queries.embeddings[:3], queries.positions[:3]
        sets = predict_base_sets(emb, pos, weights, cfg.qswap.k_base)
        far = 2.0 * cfg.extent
        for kind in BEV_KINDS:
            sets[kind].points[0, 1] = (far, 0.0)
            sets[kind].points[2] = (0.0, -far)
            sets[kind].weights = normalize_sample_scores(sets[kind])
        seen = []

        def record(data, fy, fx):
            seen.append(np.size(fy))
            return bilinear_at(data, fy, fx)

        for module in (decoder, numkernel):
            monkeypatch.setattr(module, "bilinear_at", record)
        plan = plan_tokens(emb, pos, features, weights, sets, 0)
        tok, logw, valid = build_tokens(plan, slice(0, 3))
        on = []
        for kind in BEV_KINDS:
            grid = features.grid(kind)
            x, y = np.moveaxis(sets[kind].points, -1, 0)
            on.append((x >= grid.x_min) & (x <= grid.x_max)
                      & (y >= grid.y_min) & (y <= grid.y_max))
        on = np.hstack(on)
        k = cfg.qswap.k_base
        assert np.array_equal(logw, np.log(np.hstack(
            [sets[kind].weights for kind in BEV_KINDS])))
        assert not on[0, [1, k + 1]].any() and not on[2].any()
        assert on[:2].sum() > 2
        assert valid.all()
        assert np.array_equal(plan.sampled, on)
        assert (tok[~on] == 0.0).all()
        assert sum(seen) == on.sum()
        for i, j in zip(*np.nonzero(on)):
            kind = BEV_KINDS[j // k]
            want = naive_bilinear(features.grid(kind),
                                  *sets[kind].points[i, j % k])
            assert np.allclose(tok[i, j], want, atol=1e-12)

    def test_zero_sample_weight_is_minus_inf(self):
        # a sampling weight that underflowed to 0 gets log weight -inf, and
        # aggregation gives that token no attention, without a warning
        _, features, queries, weights, cfg = toy_setup()
        emb, pos = queries.embeddings, queries.positions
        sets = predict_base_sets(emb, pos, weights, cfg.qswap.k_base)
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
            sets[kind].weights[0, 0] = 0.0
        tok, logw, valid = build_tokens(
            plan_tokens(emb, pos, features, weights, sets, cfg.k_pv),
            slice(0, queries.n))
        assert logw[0, 0] == -np.inf and valid[0, 0]
        out = aggregate_features_batch(emb, token_space(emb, weights), tok, logw,
                                       valid, weights)
        assert np.isfinite(out).all()


def preset_inputs(**overrides):
    """Config, features, queries and weights of the toy preset."""
    cfg = cli.config_from_dict({})
    for key, value in {**cli.PRESETS["toy"], **overrides}.items():
        cli.apply_override(cfg, key, value)
    inputs, features = cli.prepare_inputs(cfg)
    return cfg, features, inputs["queries"], inputs["weights"]


def record_blocks(monkeypatch):
    """Wrap decoder.build_tokens; returns a list that records each call.

    An entry is (rows, token tensor shape, its bytes, a copy of valid).
    """
    calls = []
    build = decoder.build_tokens

    def keep(plan, rows):
        tok, logw, valid = build(plan, rows)
        calls.append((rows, tok.shape, tok.nbytes, valid.copy()))
        return tok, logw, valid

    monkeypatch.setattr(decoder, "build_tokens", keep)
    return calls


def held_arrays(value):
    """Every numpy array a value holds, through dataclasses and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from held_arrays(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from held_arrays(item)


def record_outputs(monkeypatch, name):
    """Wrap decoder.<name>, an attention stage whose last argument is its
    reducer; returns the list of the matrices that reducer was handed, in
    call order, written by a DenseAttention in front of it."""
    matrices = []
    stage = getattr(decoder, name)

    def keep(*args):
        *rest, reduce = args
        dense = DenseAttention(len(args[0]), then=reduce)
        matrices.append(dense.matrix)
        return stage(*rest, dense)

    monkeypatch.setattr(decoder, name, keep)
    return matrices


def record_affinities(monkeypatch):
    """Every layer's self-attention affinity, as decode computed it.

    Decode forms no attention matrix, so the tests rebuild them here.
    """
    return record_outputs(monkeypatch, "shared_self_attention")


def record_qmix(monkeypatch):
    """Every layer's QMix attention matrix, as decode computed it.

    Decode keeps only per-row reductions of a layer's QMix attention, so
    the tests rebuild the matrices here.
    """
    return record_outputs(monkeypatch, "qmix_attention")


class TestTokenBlocks:
    def test_block_size_does_not_change_decode(self, monkeypatch):
        cfg, features, queries, weights = preset_inputs()
        n, d = queries.n, cfg.decoder.d
        calls = record_blocks(monkeypatch)
        affinities = record_affinities(monkeypatch)
        qmixes = record_qmix(monkeypatch)
        whole = decode(features, queries, weights, cfg.decoder)
        whole_affinities = list(affinities)
        whole_qmixes = list(qmixes)
        assert [c[0] for c in calls] == [slice(0, n)] * cfg.decoder.layers
        whole_valid = [c[3] for c in calls]
        t_max = [c[1][1] for c in calls]
        # 7 rows of every layer's T_max fit and 8 do not
        block_bytes = 7 * 8 * d * max(t_max)
        assert block_bytes < 8 * 8 * d * min(t_max) and n % 7 != 0
        for rows_per_block, limit in ((1, 1), (7, block_bytes)):
            monkeypatch.setattr(decoder, "TOKEN_BLOCK_BYTES", limit)
            calls.clear()
            affinities.clear()
            qmixes.clear()
            got = decode(features, queries, weights, cfg.decoder)
            starts = list(range(0, n, rows_per_block))
            assert [c[0] for c in calls] == [
                slice(r0, min(r0 + rows_per_block, n)) for r0 in starts
            ] * cfg.decoder.layers
            per_layer = len(starts)
            for layer, (a, b) in enumerate(zip(whole, got)):
                valid = np.vstack([c[3] for c in
                                   calls[layer * per_layer:(layer + 1) * per_layer]])
                assert np.array_equal(valid, whole_valid[layer])
                for kind in BEV_KINDS:
                    assert np.array_equal(a.sample_sets[kind].sizes,
                                          b.sample_sets[kind].sizes)
                for name in ("class_scores", "centers", "sizes", "yaws",
                             "velocities"):
                    assert np.allclose(getattr(a, name), getattr(b, name),
                                       rtol=0.0, atol=1e-12), name
                assert np.allclose(whole_qmixes[layer], qmixes[layer],
                                   rtol=0.0, atol=1e-12)
                assert np.allclose(whole_affinities[layer], affinities[layer],
                                   rtol=0.0, atol=1e-12)
            assert len(affinities) == len(qmixes) == cfg.decoder.layers

    def test_blocks_stay_within_the_byte_bound(self, monkeypatch):
        cfg, features, queries, weights = preset_inputs(**{
            "scene.feature_dim": 256, "decoder.d": 256, "decoder.heads": 8,
            "queries.n_world": 150})
        calls = record_blocks(monkeypatch)
        decode(features, queries, weights, cfg.decoder)
        assert len(calls) > cfg.decoder.layers  # more than one block a layer
        for rows, shape, nbytes, _ in calls:
            assert nbytes <= decoder.TOKEN_BLOCK_BYTES or shape[0] == 1
        assert sum(c[1][0] for c in calls) == queries.n * cfg.decoder.layers

    def test_inner_block_matches_per_query_token_lists(self):
        _, features, queries, weights, cfg = toy_setup()
        emb, pos = queries.embeddings, queries.positions
        sets = predict_base_sets(emb, pos, weights, cfg.qswap.k_base)
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        plan = plan_tokens(emb, pos, features, weights, sets, cfg.k_pv)
        build_tokens(plan, slice(0, queries.n))
        plan.buffer.fill(np.nan)  # what an earlier block left must not show
        rows = slice(5, 12)
        tok, logw, valid = build_tokens(plan, rows)
        assert tok.shape[0] == logw.shape[0] == valid.shape[0] == 7
        assert (tok[~valid] == 0.0).all()
        for b, i in enumerate(range(rows.start, rows.stop)):
            tokens = sample_features(pos[i], emb[i], features, weights,
                                     {k: sets[k][i] for k in BEV_KINDS},
                                     cfg.k_pv)
            assert valid[b].sum() == len(tokens)
            assert valid[b, :len(tokens)].all()
            for k, t in enumerate(tokens):
                assert np.allclose(tok[b, k], t.feature, atol=1e-12)
                assert np.isclose(logw[b, k], math.log(t.weight), atol=1e-12)


class TestAggregate:
    def test_no_tokens_identity(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        emb = np.random.default_rng(0).normal(size=(1, cfg.d))
        got = aggregate_features_batch(emb, token_space(emb, w),
                                       np.zeros((1, 0, cfg.d)),
                                       np.zeros((1, 0)),
                                       np.zeros((1, 0), dtype=bool), w)
        assert np.array_equal(got, emb)
        assert got is not emb
        assert np.array_equal(aggregate_features(emb[0], [], w), emb[0])

    def test_single_token_identity_projections(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        d = cfg.d
        for p in ("q", "k", "v", "o"):
            w[f"agg.w{p}"] = np.eye(d)
            w[f"agg.b{p}"] = np.zeros(d)
        rng = np.random.default_rng(1)
        emb = rng.normal(size=d)
        tok = rng.normal(size=d)
        out = aggregate_features_batch(emb[None], token_space(emb[None], w),
                                       tok[None, None],
                                       np.zeros((1, 1)),
                                       np.ones((1, 1), dtype=bool), w)
        assert np.allclose(out[0], emb + tok, atol=1e-12)

    def test_matches_dense_oracle(self):
        cfg = toy_config()
        w = init_weights(2, cfg)
        rng = np.random.default_rng(3)
        d = cfg.d
        emb = rng.normal(size=d)
        feats = rng.normal(size=(5, d))
        weights_ = rng.uniform(0.05, 1.0, size=5)
        weights_ /= weights_.sum()
        got = aggregate_features_batch(emb[None], token_space(emb[None], w),
                                       feats[None],
                                       np.log(weights_)[None],
                                       np.ones((1, 5), dtype=bool), w)[0]
        qp = w["agg.wq"] @ emb + w["agg.bq"]
        logits = []
        for i in range(5):
            kp = w["agg.wk"] @ feats[i] + w["agg.bk"]
            logits.append(float(qp @ kp) / math.sqrt(d) + math.log(weights_[i]))
        logits = np.array(logits)
        att = np.exp(logits - logits.max())
        att /= att.sum()
        ctx = sum(att[i] * (w["agg.wv"] @ feats[i] + w["agg.bv"])
                  for i in range(5))
        want = emb + w["agg.wo"] @ ctx + w["agg.bo"]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
        tokens = [Token(feats[i], float(weights_[i]), "rad_bev")
                  for i in range(5)]
        assert np.allclose(aggregate_features(emb, tokens, w), want,
                           rtol=1e-9, atol=1e-12)

    def test_batch_matches_per_query(self):
        _, features, queries, weights, cfg = toy_setup()
        emb = queries.embeddings
        sets = predict_base_sets(emb, queries.positions, weights,
                                 cfg.qswap.k_base)
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        tok, logw, valid = build_tokens(
            plan_tokens(emb, queries.positions, features, weights, sets,
                        cfg.k_pv),
            slice(0, queries.n))
        got = aggregate_features_batch(emb, token_space(emb, weights), tok, logw,
                                       valid, weights)
        for i in range(queries.n):
            tokens = sample_features(queries.positions[i], emb[i], features,
                                     weights,
                                     {k: sets[k][i] for k in BEV_KINDS},
                                     cfg.k_pv)
            want = aggregate_features(emb[i], tokens, weights)
            assert np.allclose(got[i], want, rtol=1e-9, atol=1e-11)

    def test_ragged_padding_at_paper_width(self):
        """Padded token slots must be finite; build_tokens zero-fills them.

        A padded slot gets attention weight exactly 0, so finite junk in its
        token and log-weight leaves every row equal to the per-token oracle
        on the row's valid prefix, and a row with no valid token comes back
        bit-equal to its embedding.
        """
        cfg = toy_config(d=256, heads=8)
        w = init_weights(4, cfg)
        d = cfg.d
        rng = np.random.default_rng(7)
        for p in ("q", "k", "v", "o"):
            w[f"agg.b{p}"] = rng.normal(0.0, 0.5, size=d)
        counts = np.array([9, 3, 0, 6, 1])
        n, t_max = len(counts), int(counts.max())
        emb = rng.normal(size=(n, d))
        tok = rng.normal(size=(n, t_max, d))
        logw = np.zeros((n, t_max))
        valid = np.arange(t_max) < counts[:, None]
        rows = []
        for i, c in enumerate(counts):
            wts = rng.uniform(0.05, 1.0, size=c)
            wts /= wts.sum()
            logw[i, :c] = np.log(wts)
            rows.append([Token(tok[i, k].copy(), float(wts[k]), "img_bev")
                         for k in range(c)])
        pad = ~valid
        tok[pad] = rng.uniform(-1e3, 1e3, size=(pad.sum(), d))
        logw[pad] = rng.uniform(-5.0, 5.0, size=pad.sum())
        got = aggregate_features_batch(emb, token_space(emb, w), tok, logw,
                                       valid, w)
        assert np.array_equal(got[2], emb[2])
        for i, tokens in enumerate(rows):
            want = aggregate_features(emb[i], tokens, w)
            assert np.allclose(got[i], want, rtol=1e-9, atol=1e-11)


class TestDetectionHead:
    def test_zero_weights(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        w["head.cls.w"] = np.zeros_like(w["head.cls.w"])
        w["head.box.w"] = np.zeros_like(w["head.box.w"])
        pos = np.array([[1.0, 2.0, 0.0], [-3.0, 0.5, 0.2]])
        emb = np.random.default_rng(0).normal(size=(2, cfg.d))
        cls, centers, sizes, yaws, vel = detection_head(emb, pos, w, cfg)
        assert np.allclose(cls, 0.5)
        assert np.allclose(centers, pos)
        assert np.allclose(sizes, 1.0)
        assert np.allclose(yaws, 0.0)
        assert np.allclose(vel, 0.0)

    def test_center_clipped_to_extent(self):
        cfg = toy_config(extent=5.0)
        w = init_weights(0, cfg)
        w["head.box.w"] = np.zeros_like(w["head.box.w"])
        b = np.zeros(10)
        b[0] = 100.0
        w["head.box.b"] = b
        pos = np.array([[0.0, 0.0, 0.0]])
        emb = np.zeros((1, cfg.d))
        _, centers, _, _, _ = detection_head(emb, pos, w, cfg)
        assert centers[0, 0] == 5.0

    def test_overflowing_exp_is_exact(self):
        # logits past exp's range give score 0 / size 30 and no warning
        cfg = toy_config()
        w = init_weights(0, cfg)
        w["head.cls.w"] = np.zeros_like(w["head.cls.w"])
        w["head.box.w"] = np.zeros_like(w["head.box.w"])
        w["head.cls.b"] = np.full(cfg.num_classes, -1e4)
        w["head.box.b"] = np.r_[0.0, 0.0, 0.0, 1e4, -1e4, 1e4, 0, 1, 0, 0]
        emb = np.zeros((1, cfg.d))
        cls, _, sizes, _, _ = detection_head(emb, np.zeros((1, 3)), w, cfg)
        assert (cls == 0.0).all()
        assert sizes.tolist() == [[30.0, 0.1, 30.0]]

    def test_matches_affine_atan2_oracle(self):
        cfg = toy_config()
        w = init_weights(4, cfg)
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(3, cfg.d))
        pos = rng.uniform(-5, 5, (3, 3))
        cls, centers, sizes, yaws, vel = detection_head(emb, pos, w, cfg)
        for i in range(3):
            raw = w["head.box.w"] @ emb[i] + w["head.box.b"]
            craw = np.clip(pos[i] + raw[:3], -cfg.extent, cfg.extent)
            assert np.allclose(centers[i], craw, atol=1e-12)
            assert np.allclose(sizes[i], np.clip(np.exp(raw[3:6]), 0.1, 30.0),
                               atol=1e-12)
            assert np.isclose(yaws[i], math.atan2(raw[6], raw[7]))
            logits = w["head.cls.w"] @ emb[i] + w["head.cls.b"]
            assert np.allclose(cls[i], 1 / (1 + np.exp(-logits)), atol=1e-12)


class TestDecode:
    def test_output_shapes(self, monkeypatch):
        _, features, queries, weights, cfg = toy_setup()
        affinities = record_affinities(monkeypatch)
        outs = decode(features, queries, weights, cfg)
        assert len(outs) == len(affinities) == cfg.layers
        for out, affinity in zip(outs, affinities):
            assert out.class_scores.shape == (queries.n, cfg.num_classes)
            assert out.centers.shape == (queries.n, 3)
            assert affinity.shape == (queries.n, queries.n)
            assert (out.sizes > 0).all()
            assert ((out.yaws > -math.pi) & (out.yaws <= math.pi)).all()

    def test_qinit_baseline_flags(self):
        cfg = toy_config(enable_qmix=False, enable_qswap=False)
        _, features, queries, weights, cfg = toy_setup(cfg=cfg)
        outs = decode(features, queries, weights, cfg)
        for out in outs:
            assert out.qmix_attn is None
            assert out.qmix_stats is None
            for kind in BEV_KINDS:
                assert all(s.size == cfg.qswap.k_base
                           for s in out.sample_sets[kind])

    def test_qmix_same_type_suppression(self, monkeypatch):
        _, features, queries, weights, cfg = toy_setup()
        qmixes = record_qmix(monkeypatch)
        outs = decode(features, queries, weights, cfg)
        types = queries.types
        same = (types[:, None] == types[None, :]) & ~np.eye(queries.n, dtype=bool)
        assert len(qmixes) == len(outs) == cfg.layers
        for out, attn in zip(outs, qmixes):
            assert out.qmix_attn is not None
            assert attn[same].sum() <= 1e-12

    def test_qswap_append_sizes(self):
        _, features, queries, weights, cfg = toy_setup()
        outs = decode(features, queries, weights, cfg)
        lo = cfg.qswap.k_base
        hi = lo + cfg.qswap.k_extra
        for out in outs:
            for kind in BEV_KINDS:
                sizes = [s.size for s in out.sample_sets[kind]]
                assert min(sizes) >= lo and max(sizes) <= hi

    def test_replace_mode_sizes(self):
        cfg = toy_config(qswap=QSwapConfig(k_base=4, mode="replace"))
        _, features, queries, weights, cfg = toy_setup(cfg=cfg)
        outs = decode(features, queries, weights, cfg)
        for out in outs:
            for kind in BEV_KINDS:
                assert all(s.size == 4 for s in out.sample_sets[kind])

    @pytest.mark.parametrize("mode", ["append", "replace"])
    def test_imported_points_are_source_base_points(self, mode, monkeypatch):
        # no stage re-expresses a point in another frame: an imported point
        # is its source query's base point, bit for bit
        cfg, features, queries, weights = preset_inputs(**{
            "decoder.qswap.radius_factor": 30, "decoder.qswap.mode": mode})
        calls = []
        swap = decoder.swap_samples

        def keep(base, *args, **kwargs):
            calls.append((base, swap(base, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(decoder, "swap_samples", keep)
        decode(features, queries, weights, cfg.decoder)
        assert len(calls) == len(BEV_KINDS) * cfg.decoder.layers
        imported = 0
        for base, out in calls:
            ti, cols = np.nonzero((out.origins == ORIGIN_SHARED) & out.valid)
            pts, src = out.points[ti, cols], out.sources[ti, cols]
            # the source's base point nearest the import must be the import
            near = np.linalg.norm(base.points[src] - pts[:, None], axis=2
                                  ).argmin(axis=1)
            assert np.array_equal(pts, base.points[src, near])
            imported += len(ti)
        assert imported > 0

    @pytest.mark.parametrize("placement", [None, *decoder.PLACEMENTS])
    def test_one_attention_matrix_per_layer(self, placement, monkeypatch):
        # a layer's links come from one matrix, QMix's when the layer mixed,
        # else the shared self-attention; its output keeps the link rows of
        # that matrix and no array of N x N values
        overrides = {"decoder.enable_qmix": placement is not None,
                     "emit.links": True}
        if placement:
            overrides["decoder.qmix_placement"] = placement
        cfg, _, _, _ = preset_inputs(**overrides)
        affinities = record_affinities(monkeypatch)
        qmixes = record_qmix(monkeypatch)
        result = cli.run_pipeline(cfg)
        report = cli.build_report(cfg, result)
        types = result["queries"].types
        n = len(types)
        layers = cfg.decoder.layers
        mixed = placement not in (None, "post_self")
        assert len(affinities) == len(result["outputs"]) == layers
        assert len(qmixes) == (layers if mixed else 0)
        for layer, (out, rec) in enumerate(zip(result["outputs"],
                                               report["layers"])):
            for f in dataclasses.fields(out):
                sizes = [a.size for a in held_arrays(getattr(out, f.name))]
                assert max(sizes, default=0) < n * n, f.name
            assert (out.qmix_attn is not None) == mixed
            assert (out.self_attn is None) == mixed
            attn = qmixes[layer] if mixed else affinities[layer]
            want = naive_top_links(attn, types, out.class_scores.max(axis=1))
            assert rec["links"] == want
            assert json.dumps(rec["links"]) == json.dumps(want)
            assert rec["links"]

    @pytest.mark.parametrize("qmix", [True, False])
    def test_link_rows_padding(self, qmix):
        # a row with fewer cross-type partners than LINKS_PER_QUERY ends in
        # target -1 and weight 0.0: world queries only, then one image query
        # among them, from the QMix attention or the shared self-attention
        for n_img in (0, 1):
            cfg, features, queries, weights = preset_inputs(**{
                "queries.n_img": n_img, "queries.n_rad": 0,
                "decoder.enable_qmix": qmix})
            img = np.flatnonzero(queries.types == TYPE_IMG)
            world = np.flatnonzero(queries.types == TYPE_W)
            assert len(img) == n_img and len(world) == queries.n - n_img
            for out in decode(features, queries, weights, cfg.decoder):
                rows = out.qmix_attn if qmix else out.self_attn
                if n_img == 0:
                    assert (rows.counts == 0).all()
                    assert (rows.targets == -1).all()
                    assert (rows.weights == 0.0).all()
                    continue
                assert (rows.counts[world] == 1).all()
                assert (rows.targets[world, 0] == img[0]).all()
                assert (rows.targets[world, 1] == -1).all()
                assert (rows.weights[world, 1] == 0.0).all()
                assert rows.counts[img[0]] == 2
                assert (rows.targets[img[0]] >= 0).all()

    def test_decode_forms_no_attention_matrix(self):
        # 3,060 queries and one layer: decode's peak above its entry stays
        # under 0.75 N^2 doubles (about 3.2 while each attention matrix was
        # formed and held)
        cfg, features, queries, weights = preset_inputs(**{
            "queries.n_world": 3000, "decoder.layers": 1})
        n = queries.n
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            decode(features, queries, weights, cfg.decoder)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert n == 3060
        assert peak < 0.75 * 8 * n * n

    def test_positions_stay_in_extent(self):
        _, features, queries, weights, cfg = toy_setup()
        outs = decode(features, queries, weights, cfg)
        for out in outs:
            assert np.abs(out.centers[:, :2]).max() <= cfg.extent + 1e-12

    def test_placements_run_and_differ(self):
        results = {}
        for placement in ("post_agg", "pre_agg", "post_self", "post_self_cross"):
            cfg = toy_config(qmix_placement=placement)
            _, features, queries, weights, cfg = toy_setup(cfg=cfg)
            outs = decode(features, queries, weights, cfg)
            results[placement] = outs[-1].class_scores
            if placement in ("post_agg", "pre_agg", "post_self_cross"):
                assert outs[-1].qmix_attn is not None
            else:
                assert outs[-1].qmix_attn is None
        assert not np.allclose(results["post_agg"], results["pre_agg"])
        assert not np.allclose(results["post_agg"], results["post_self"])

    def test_config_errors_surface_before_layers(self, monkeypatch):
        _, features, queries, weights, cfg = toy_setup()
        bad = toy_config(heads=3)  # 3 does not divide 16
        with pytest.raises(ConfigError):
            decode(features, queries, weights, bad)

        def no_layer(*args, **kwargs):
            raise AssertionError("layer 0 ran")

        monkeypatch.setattr(decoder, "apply_type_adapter", no_layer)
        # a PV map of width 4 under d = 16, and a rig with one PV map too few
        pv = features.pv_maps
        narrow = dataclasses.replace(pv[0], data=pv[0].data[..., :4].copy())
        for maps, word in (([narrow, *pv[1:]], "width"), (pv[1:], "3 PV maps")):
            with pytest.raises(ConfigError, match=word):
                decode(dataclasses.replace(features, pv_maps=maps), queries,
                       weights, cfg)

    @pytest.mark.parametrize("tensor, stage", [
        ("self_attn.ln.beta", "self-attention output of layer 0"),
        ("sample.rad_bev.b", "rad_bev base scores of layer 0"),
        ("head.box.b", "detection head output of layer 0")])
    def test_non_finite_stage_named(self, tensor, stage):
        _, features, queries, weights, cfg = toy_setup()
        weights[tensor][:] = np.nan
        with pytest.raises(NonFiniteError, match=stage):
            decode(features, queries, weights, cfg)

    def test_deterministic(self):
        _, features, queries, weights, cfg = toy_setup()
        a = decode(features, queries, weights, cfg)
        b = decode(features, queries, weights, cfg)
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.class_scores, ob.class_scores)
            assert np.array_equal(oa.centers, ob.centers)

    def test_single_layer_matches_hand_stepped_composition(self, monkeypatch):
        cfg = toy_config(layers=1)
        _, features, queries, weights, cfg = toy_setup(cfg=cfg)
        affinities = record_affinities(monkeypatch)
        qmixes = record_qmix(monkeypatch)
        out = decode(features, queries, weights, cfg)[0]
        assert len(affinities) == len(qmixes) == 1

        pos0 = queries.positions.astype(np.float64).copy()
        box_wl = np.tile(BOX_PRIOR_WL, (queries.n, 1))
        emb = apply_type_adapter(queries.embeddings.copy(), queries.types,
                                 weights)
        emb, affinity = dense_self_attention(emb, pos0, weights, cfg.heads)
        sets = predict_base_sets(emb, pos0, weights, cfg.qswap.k_base)
        neighbors = [select_in_row(i, affinity[i], box_wl, pos0[:, :2],
                                   cfg.qswap) for i in range(queries.n)]
        padded = pad_neighbors(neighbors, affinity)
        sets = {kind: swap_samples(sets[kind], *padded, cfg.qswap)
                for kind in BEV_KINDS}
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        rows = []
        for i in range(queries.n):
            tokens = sample_features(pos0[i], emb[i], features, weights,
                                     {k: sets[k][i] for k in BEV_KINDS},
                                     cfg.k_pv)
            rows.append(aggregate_features(emb[i], tokens, weights))
        emb = np.vstack(rows)
        emb, qattn = dense_qmix(emb, queries.types,
                                mixing_weights(weights, "qmix", cfg.heads))
        cls, centers, sizes, yaws, vel = detection_head(emb, pos0, weights, cfg)

        assert np.allclose(affinities[0], affinity, atol=1e-12)
        assert np.allclose(qmixes[0], qattn, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.class_scores, cls, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.centers, centers, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.sizes, sizes, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.yaws, yaws, rtol=1e-9, atol=1e-11)

    def test_permutation_equivariance_small(self, monkeypatch):
        cfg = toy_config()
        _, features, queries, weights, cfg = toy_setup(cfg=cfg)
        affinities = record_affinities(monkeypatch)
        qmixes = record_qmix(monkeypatch)
        outs = decode(features, queries, weights, cfg)
        rng = np.random.default_rng(9)
        perm = rng.permutation(queries.n)
        permuted = QuerySet(queries.embeddings[perm], queries.positions[perm],
                            queries.types[perm])
        outs_p = decode(features, permuted, weights, cfg)
        assert len(affinities) == len(qmixes) == 2 * cfg.layers
        for a, b, aff_a, aff_b, mix_a, mix_b in zip(
                outs, outs_p, affinities[:cfg.layers], affinities[cfg.layers:],
                qmixes[:cfg.layers], qmixes[cfg.layers:]):
            assert np.allclose(b.class_scores, a.class_scores[perm], atol=1e-9)
            assert np.allclose(b.centers, a.centers[perm], atol=1e-9)
            assert np.allclose(aff_b, aff_a[np.ix_(perm, perm)], atol=1e-9)
            assert np.allclose(mix_b, mix_a[np.ix_(perm, perm)], atol=1e-9)
