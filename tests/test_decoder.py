import math

import numpy as np
import pytest

from hqfusion.decoder import (DecoderConfig, SceneFeatures, apply_type_adapter,
                              build_tokens, decode, detection_head,
                              mixing_weights, predict_base_sets,
                              shared_self_attention,
                              sinusoidal_position_encoding)
from hqfusion.errors import ConfigError
from hqfusion.numkernel import bilinear_sample
from hqfusion.qinit import (TYPE_IMG, TYPE_RAD, TYPE_W, QuerySet,
                            concat_query_sets, generate_2d_proposals,
                            init_image_queries, init_radar_queries,
                            init_world_queries)
from hqfusion.qmix import qmix_attention
from hqfusion.qswap import (BEV_KINDS, QSwapConfig, normalize_sample_scores,
                            select_neighbors, swap_samples)
from hqfusion.scene import (GridConfig, RadarSimConfig, encode_radar_bev,
                            generate_scene, project_to_view, render_image_bev,
                            render_pv_features, simulate_radar_points)
from hqfusion.weights_io import init_weights

from reference import (Token, aggregate_features, naive_bilinear,
                       naive_bilinear_frac, naive_layer_norm, naive_mha,
                       sample_features)


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
    scene, rig = generate_scene(seed, scfg)
    gc = GridConfig(extent=cfg.extent, voxel=1.0)
    pv = render_pv_features(scene, rig, cfg.d, 0.02, seed=seed)
    img_bev = render_image_bev(scene, gc, cfg.d, 0.02, miss_rate=0.2, seed=seed)
    cloud = simulate_radar_points(scene, seed, RadarSimConfig(clutter_count=6))
    rad_bev, heatmap = encode_radar_bev(cloud, gc, cfg.d, seed=seed)
    world = init_world_queries(n_world, cfg.extent, cfg.d, seed, rings=3)
    props = generate_2d_proposals(scene, rig, pv, per_view=6, seed=seed)
    image, _ = init_image_queries(props, rig, n_img, cfg.extent)
    radar = init_radar_queries(heatmap, rad_bev, n_rad)
    queries = concat_query_sets(world, image, radar)
    features = SceneFeatures(img_bev, rad_bev, pv, rig)
    weights = init_weights(seed, cfg)
    return scene, features, queries, weights, cfg


class TestTypeAdapter:
    def test_zero_adapter_is_identity(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        for name in list(w.tensors):
            if name.startswith(("adapter.", "type_emb.")):
                w.tensors[name] = np.zeros_like(w.tensors[name])
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(6, cfg.d))
        types = np.array([TYPE_IMG, TYPE_RAD, TYPE_W, TYPE_W, TYPE_IMG, TYPE_RAD])
        out = apply_type_adapter(emb, types, w)
        assert np.allclose(out, emb, atol=1e-12)

    def test_only_w_embedding_moves_w_queries(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        for name in list(w.tensors):
            if name.startswith(("adapter.", "type_emb.")):
                w.tensors[name] = np.zeros_like(w.tensors[name])
        w.tensors["type_emb.w"] = np.full(cfg.d, 0.5)
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
        _, affinity = shared_self_attention(emb, pos, w, cfg.heads)
        assert np.allclose(affinity, [[1.0]])

    def test_permutation_equivariance(self):
        cfg = toy_config()
        w = init_weights(1, cfg)
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(4, cfg.d))
        pos = rng.uniform(-10, 10, (4, 3))
        out_emb, out_aff = shared_self_attention(emb, pos, w, cfg.heads)
        perm = np.array([2, 0, 3, 1])
        p_emb, p_aff = shared_self_attention(emb[perm], pos[perm], w, cfg.heads)
        assert np.allclose(p_emb, out_emb[perm], atol=1e-12)
        assert np.allclose(p_aff, out_aff[np.ix_(perm, perm)], atol=1e-12)

    def test_matches_dense_oracle(self):
        cfg = toy_config()
        w = init_weights(2, cfg)
        rng = np.random.default_rng(4)
        n = 8
        emb = rng.normal(size=(n, cfg.d))
        pos = rng.uniform(-10, 10, (n, 3))
        got_emb, got_aff = shared_self_attention(emb, pos, w, cfg.heads)
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
        sets = predict_base_sets(np.zeros((1, cfg.d)), weights, cfg.qswap.k_base)
        per_q = {kind: sets[kind][0] for kind in BEV_KINDS}
        # a point at the rig center has ~zero depth in every camera
        center = np.array([0.0, 0.0, 1.6])
        assert all(project_to_view(center, c) is None
                   for c in features.rig.cameras)
        tokens = sample_features(center, np.zeros(cfg.d), features, weights,
                                 per_q, cfg.k_pv)
        assert all(t.kind != "pv" for t in tokens)
        assert len(tokens) == 2 * cfg.qswap.k_base

    def test_zero_offsets_sample_at_position(self):
        _, features, queries, weights, cfg = toy_setup()
        emb = np.zeros((1, cfg.d))
        sets = predict_base_sets(emb, weights, cfg.qswap.k_base)
        pos = np.array([2.3, -1.7, 0.0])
        for kind in BEV_KINDS:
            s = sets[kind][0]
            s.offsets[:] = 0.0
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
        sets = predict_base_sets(emb[None], weights, cfg.qswap.k_base)
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        per_q = {kind: sets[kind][0] for kind in BEV_KINDS}
        pos = np.array([6.0, 3.0, 0.5])
        tokens = sample_features(pos, emb, features, weights, per_q, cfg.k_pv)

        bev_tokens = [t for t in tokens if t.kind in BEV_KINDS]
        i = 0
        for kind in BEV_KINDS:
            s = per_q[kind]
            grid = features.grid(kind)
            for k in range(s.size):
                t = bev_tokens[i]
                want = naive_bilinear(grid, pos[0] + s.offsets[k, 0],
                                      pos[1] + s.offsets[k, 1])
                assert np.allclose(t.feature, want, atol=1e-12)
                assert np.isclose(t.weight, s.weights[k])
                i += 1

        pv_tokens = [t for t in tokens if t.kind == "pv"]
        pv_off = weights["sample.pv.offsets"]
        want_feats = []
        for cam, pv in zip(features.rig.cameras, features.pv_maps):
            hit = project_to_view(pos, cam)
            if hit is None:
                continue
            for k in range(cfg.k_pv):
                u = hit[0] + pv_off[k, 0]
                v = hit[1] + pv_off[k, 1]
                want_feats.append(naive_bilinear_frac(
                    pv.data, v / pv.downsample - 0.5, u / pv.downsample - 0.5))
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
        sets = predict_base_sets(emb, weights, cfg.qswap.k_base)
        aff = np.full((n, n), 1.0 / n)
        boxes = np.tile([2.0, 4.0], (n, 1))
        nbs = [select_neighbors(i, aff[i], boxes, pos[:, :2], cfg.qswap)
               for i in range(n)]
        sets = {kind: swap_samples(sets[kind], nbs, aff, pos[:, :2], cfg.qswap)
                for kind in BEV_KINDS}
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        assert len(set(sets[BEV_KINDS[0]].sizes.tolist())) > 1  # ragged rows
        tok, logw, valid = build_tokens(emb, pos, features, weights, sets,
                                        cfg.k_pv)
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


class TestAggregate:
    def test_no_tokens_identity(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        emb = np.random.default_rng(0).normal(size=cfg.d)
        assert np.array_equal(aggregate_features(emb, [], w), emb)

    def test_single_token_identity_projections(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        d = cfg.d
        for p in ("q", "k", "v", "o"):
            w.tensors[f"agg.w{p}"] = np.eye(d)
            w.tensors[f"agg.b{p}"] = np.zeros(d)
        rng = np.random.default_rng(1)
        emb = rng.normal(size=d)
        tok = rng.normal(size=d)
        out = aggregate_features(emb, [Token(tok, 1.0, "img_bev")], w)
        assert np.allclose(out, emb + tok, atol=1e-12)

    def test_matches_dense_oracle(self):
        cfg = toy_config()
        w = init_weights(2, cfg)
        rng = np.random.default_rng(3)
        d = cfg.d
        emb = rng.normal(size=d)
        feats = rng.normal(size=(5, d))
        weights_ = rng.uniform(0.05, 1.0, size=5)
        weights_ /= weights_.sum()
        tokens = [Token(feats[i], float(weights_[i]), "rad_bev")
                  for i in range(5)]
        got = aggregate_features(emb, tokens, w)
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

    def test_batch_matches_per_query(self):
        _, features, queries, weights, cfg = toy_setup()
        emb = queries.embeddings
        sets = predict_base_sets(emb, weights, cfg.qswap.k_base)
        for kind in BEV_KINDS:
            sets[kind].weights = normalize_sample_scores(sets[kind])
        tok, logw, valid = build_tokens(emb, queries.positions, features,
                                        weights, sets, cfg.k_pv)
        from hqfusion.decoder import aggregate_features_batch
        got = aggregate_features_batch(emb, tok, logw, valid, weights)
        for i in range(queries.n):
            tokens = sample_features(queries.positions[i], emb[i], features,
                                     weights,
                                     {k: sets[k][i] for k in BEV_KINDS},
                                     cfg.k_pv)
            want = aggregate_features(emb[i], tokens, weights)
            assert np.allclose(got[i], want, rtol=1e-9, atol=1e-11)


class TestDetectionHead:
    def test_zero_weights(self):
        cfg = toy_config()
        w = init_weights(0, cfg)
        w.tensors["head.cls.w"] = np.zeros_like(w.tensors["head.cls.w"])
        w.tensors["head.box.w"] = np.zeros_like(w.tensors["head.box.w"])
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
        w.tensors["head.box.w"] = np.zeros_like(w.tensors["head.box.w"])
        b = np.zeros(10)
        b[0] = 100.0
        w.tensors["head.box.b"] = b
        pos = np.array([[0.0, 0.0, 0.0]])
        emb = np.zeros((1, cfg.d))
        _, centers, _, _, _ = detection_head(emb, pos, w, cfg)
        assert centers[0, 0] == 5.0

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
    def test_output_shapes(self):
        _, features, queries, weights, cfg = toy_setup()
        outs = decode(features, queries, weights, cfg)
        assert len(outs) == cfg.layers
        for out in outs:
            assert out.class_scores.shape == (queries.n, cfg.num_classes)
            assert out.centers.shape == (queries.n, 3)
            assert out.self_attn.shape == (queries.n, queries.n)
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

    def test_qmix_same_type_suppression(self):
        _, features, queries, weights, cfg = toy_setup()
        outs = decode(features, queries, weights, cfg)
        types = queries.types
        same = (types[:, None] == types[None, :]) & ~np.eye(queries.n, dtype=bool)
        for out in outs:
            assert out.qmix_attn is not None
            assert out.qmix_attn[same].sum() <= 1e-12

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

    def test_positions_stay_in_extent(self):
        _, features, queries, weights, cfg = toy_setup()
        outs = decode(features, queries, weights, cfg)
        for out in outs:
            assert np.abs(out.positions[:, :2]).max() <= cfg.extent + 1e-12

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

    def test_config_errors_surface_before_layers(self):
        _, features, queries, weights, cfg = toy_setup()
        bad = toy_config(heads=3)  # 3 does not divide 16
        with pytest.raises(ConfigError):
            decode(features, queries, weights, bad)

    def test_deterministic(self):
        _, features, queries, weights, cfg = toy_setup()
        a = decode(features, queries, weights, cfg)
        b = decode(features, queries, weights, cfg)
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.class_scores, ob.class_scores)
            assert np.array_equal(oa.centers, ob.centers)

    def test_single_layer_matches_hand_stepped_composition(self):
        cfg = toy_config(layers=1)
        _, features, queries, weights, cfg = toy_setup(cfg=cfg)
        out = decode(features, queries, weights, cfg)[0]

        pos0 = queries.positions.astype(np.float64).copy()
        box_wl = queries.box_state[:, :2].copy()
        emb = apply_type_adapter(queries.embeddings.copy(), queries.types,
                                 weights)
        emb, affinity = shared_self_attention(emb, pos0, weights, cfg.heads)
        sets = predict_base_sets(emb, weights, cfg.qswap.k_base)
        neighbors = [select_neighbors(i, affinity[i], box_wl, pos0[:, :2],
                                      cfg.qswap) for i in range(queries.n)]
        sets = {kind: swap_samples(sets[kind], neighbors, affinity,
                                   pos0[:, :2], cfg.qswap)
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
        emb, qattn = qmix_attention(emb, queries.types,
                                    mixing_weights(weights, "qmix", cfg.heads))
        cls, centers, sizes, yaws, vel = detection_head(emb, pos0, weights, cfg)

        assert np.allclose(out.self_attn, affinity, atol=1e-12)
        assert np.allclose(out.qmix_attn, qattn, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.class_scores, cls, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.centers, centers, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.sizes, sizes, rtol=1e-9, atol=1e-11)
        assert np.allclose(out.yaws, yaws, rtol=1e-9, atol=1e-11)

    def test_permutation_equivariance_small(self):
        cfg = toy_config()
        _, features, queries, weights, cfg = toy_setup(cfg=cfg)
        outs = decode(features, queries, weights, cfg)
        rng = np.random.default_rng(9)
        perm = rng.permutation(queries.n)
        permuted = QuerySet(queries.embeddings[perm], queries.positions[perm],
                            queries.types[perm], queries.init_score[perm],
                            queries.box_state[perm])
        outs_p = decode(features, permuted, weights, cfg)
        for a, b in zip(outs, outs_p):
            assert np.allclose(b.class_scores, a.class_scores[perm], atol=1e-9)
            assert np.allclose(b.centers, a.centers[perm], atol=1e-9)
            assert np.allclose(b.self_attn, a.self_attn[np.ix_(perm, perm)],
                               atol=1e-9)
            assert np.allclose(b.qmix_attn, a.qmix_attn[np.ix_(perm, perm)],
                               atol=1e-9)
