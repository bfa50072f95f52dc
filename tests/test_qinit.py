import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfusion.errors import ConfigError
from hqfusion.qinit import (BOX_PRIOR, TYPE_IMG, TYPE_RAD, TYPE_W, QuerySet,
                            backproject, concat_query_sets,
                            generate_2d_proposals, init_image_queries,
                            init_radar_queries, init_world_queries, ring_counts)
from hqfusion.scene import (CameraRig, FeatureGrid, GridConfig, SceneConfig,
                            build_rig, make_camera, render_pv_features)

from reference import cell_center, empty_query_set, project_to_view
from test_scene import manual_scene


class TestRingCounts:
    def test_proportional_example(self):
        # radii 10, 20, 30 -> quotas 1, 2, 3 exactly
        assert ring_counts(6, 3).tolist() == [1, 2, 3]

    def test_default_total(self):
        counts = ring_counts(450, 15)
        assert counts.sum() == 450

    @given(st.integers(1, 30), st.integers(30, 700))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_monotone(self, rings, n_world):
        counts = ring_counts(n_world, rings)
        assert counts.sum() == n_world
        assert (np.diff(counts) >= 0).all()


class TestWorldQueries:
    def test_positions_within_extent(self):
        qs = init_world_queries(450, 30.0, 16, seed=0)
        assert qs.n == 450
        assert np.abs(qs.positions[:, :2]).max() <= 30.0
        assert (qs.positions[:, 2] == 0.0).all()
        assert (qs.types == TYPE_W).all()
        assert (qs.init_score == 1.0).all()
        qs.validate(extent=30.0)

    def test_deterministic(self):
        a = init_world_queries(60, 20.0, 8, seed=5)
        b = init_world_queries(60, 20.0, 8, seed=5)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.positions, b.positions)

    def test_too_few_for_rings(self):
        with pytest.raises(ConfigError):
            init_world_queries(10, 20.0, 8, seed=0, rings=15)

    def test_box_prior(self):
        qs = init_world_queries(30, 20.0, 8, seed=0, rings=3)
        assert np.allclose(qs.box_state, np.tile(BOX_PRIOR, (30, 1)))


def proposals_setup(centers, noise=False, **scene_kw):
    scene, rig = manual_scene(centers, **scene_kw)
    pv_maps = render_pv_features(scene, rig, scene.config.feature_dim, 0.0)
    kw = dict(center_noise_px=0.0, depth_noise=0.0) if not noise else {}
    props = generate_2d_proposals(scene, rig, pv_maps, per_view=6, seed=3, **kw)
    return scene, rig, pv_maps, props


class TestProposals:
    def test_empty_scene_all_distractors(self):
        _, rig, _, props = proposals_setup([])
        assert len(props) == len(rig.cameras)
        for view in props:
            assert len(view) == 6
            for p in view:
                assert p.object_id == -1
                assert p.score < 0.2

    def test_zero_noise_exact_centers(self):
        scene, rig, _, props = proposals_setup([(8.0, 0.5, 0.9)])
        obj = scene.objects[0]
        found = 0
        for ci, cam in enumerate(rig.cameras):
            hit = project_to_view(obj.center, cam)
            if hit is None:
                continue
            matches = [p for p in props[ci] if p.object_id == 0]
            assert len(matches) == 1
            assert abs(matches[0].u - hit[0]) < 1e-9
            assert abs(matches[0].v - hit[1]) < 1e-9
            assert abs(matches[0].depth - hit[2]) < 1e-9
            found += 1
        assert found >= 1

    def test_score_at_depth_60(self):
        # oracle: 0.9 * exp(-60/60) = 0.33109149705429813, jitter in [0, 0.05)
        scene, rig, _, props = proposals_setup([(60.0, 0.0, 1.6)], extent=64.0)
        cands = [p for view in props for p in view if p.object_id == 0]
        assert cands
        base = 0.33109149705429813
        for p in cands:
            assert base <= p.score < base + 0.05


class TestImageQueries:
    def test_exact_backprojection(self):
        scene, rig, _, props = proposals_setup([(8.0, 0.5, 0.9)])
        qs, padded = init_image_queries(props, rig, 1, extent=16.0, d=8)
        assert padded == 0
        assert np.allclose(qs.positions[0], scene.objects[0].center, atol=1e-6)
        assert qs.types[0] == TYPE_IMG

    def test_top_k_by_score(self):
        cam = make_camera(100, 100, 10, 6, 0.0, (0, 0, 0), 20, 12)
        rig = CameraRig([cam])
        feat = np.zeros(4)
        from hqfusion.qinit import Proposal
        props = [[Proposal(5.0, 5.0, 0.1, 10.0, feat, 0, -1),
                  Proposal(6.0, 6.0, 0.9, 12.0, feat + 1.0, 0, 0)]]
        qs, _ = init_image_queries(props, rig, 1, extent=30.0, d=4)
        assert qs.init_score[0] == 0.9
        assert np.allclose(qs.embeddings[0], 1.0)

    def test_padding_when_short(self):
        cam = make_camera(100, 100, 10, 6, 0.0, (0, 0, 0), 20, 12)
        rig = CameraRig([cam])
        from hqfusion.qinit import Proposal
        props = [[Proposal(5.0, 5.0, 0.4, 10.0, np.ones(4), 0, 0)]]
        qs, padded = init_image_queries(props, rig, 3, extent=30.0, d=4)
        assert padded == 2
        assert qs.n == 3
        assert (qs.init_score[1:] == 0.0).all()
        assert (qs.positions[1:] == 0.0).all()

    def test_embedding_is_pv_feature(self):
        scene, rig, pv_maps, props = proposals_setup([(8.0, 0.5, 0.9)])
        qs, _ = init_image_queries(props, rig, 1, extent=16.0, d=8)
        best = max((p for view in props for p in view), key=lambda p: p.score)
        assert np.array_equal(qs.embeddings[0], best.feature)


def radar_grid_with(heatmap_shape=(6, 6), d=4, extent=3.0, voxel=1.0):
    gc = GridConfig(extent=extent, voxel=voxel)
    grid = FeatureGrid.allocate(gc, d)
    rng = np.random.default_rng(0)
    grid.data[:] = rng.normal(size=grid.data.shape)
    return grid


class TestRadarQueries:
    def test_zero_heatmap_row_major_tiebreak(self):
        grid = radar_grid_with()
        heatmap = np.zeros((6, 6))
        qs = init_radar_queries(heatmap, grid, 4)
        assert (qs.init_score == 0.0).all()
        expected = [cell_center(grid, 0, c) for c in range(4)]
        assert np.allclose(qs.positions[:, :2], expected)
        assert (qs.types == TYPE_RAD).all()

    def test_single_hot_cell(self):
        grid = radar_grid_with()
        heatmap = np.zeros((6, 6))
        heatmap[3, 2] = 0.8
        qs = init_radar_queries(heatmap, grid, 1)
        assert np.allclose(qs.positions[0, :2], cell_center(grid, 3, 2))
        assert np.array_equal(qs.embeddings[0], grid.data[3, 2])
        assert qs.init_score[0] == 0.8

    def test_matches_full_sort_oracle(self):
        grid = radar_grid_with()
        rng = np.random.default_rng(7)
        heatmap = rng.uniform(0, 1, size=(6, 6))
        n = 10
        qs = init_radar_queries(heatmap, grid, n)
        flat = heatmap.ravel()
        oracle = sorted(range(36), key=lambda i: (-flat[i], i))[:n]
        assert np.allclose(qs.init_score, flat[oracle])
        rows = [i // 6 for i in oracle]
        cols = [i % 6 for i in oracle]
        centers = np.array([cell_center(grid, r, c) for r, c in zip(rows, cols)])
        assert np.allclose(qs.positions[:, :2], centers)

    def test_too_many(self):
        grid = radar_grid_with()
        with pytest.raises(ConfigError):
            init_radar_queries(np.zeros((6, 6)), grid, 37)


class TestConcat:
    def test_block_order(self):
        world = init_world_queries(12, 20.0, 4, seed=0, rings=3)
        grid = radar_grid_with()
        radar = init_radar_queries(np.zeros((6, 6)), grid, 5)
        cam = make_camera(100, 100, 10, 6, 0.0, (0, 0, 0), 20, 12)
        from hqfusion.qinit import Proposal
        props = [[Proposal(5.0, 5.0, 0.4, 10.0, np.ones(4), 0, 0)]]
        image, _ = init_image_queries(props, CameraRig([cam]), 3,
                                      extent=20.0, d=4)
        qs = concat_query_sets(world, image, radar)
        assert qs.n == 20
        assert (qs.types[:3] == TYPE_IMG).all()
        assert (qs.types[3:8] == TYPE_RAD).all()
        assert (qs.types[8:] == TYPE_W).all()
        qs.validate(extent=20.0)

    def test_default_counts_total_900(self):
        world = init_world_queries(450, 51.2, 4, seed=0)
        gc = GridConfig(extent=12.0, voxel=0.8)
        grid = FeatureGrid.allocate(gc, 4)
        heatmap = np.random.default_rng(0).uniform(0, 1, (grid.h, grid.w))
        radar = init_radar_queries(heatmap, grid, 225)
        emb = np.zeros((225, 4))
        image = QuerySet(emb, np.zeros((225, 3)),
                         np.full(225, TYPE_IMG, dtype=np.int64),
                         np.zeros(225), np.tile(BOX_PRIOR, (225, 1)))
        qs = concat_query_sets(world, image, radar)
        assert qs.n == 900

    def test_empty_plus_empty(self):
        world = init_world_queries(6, 20.0, 4, seed=0, rings=3)
        qs = concat_query_sets(world, empty_query_set(4), empty_query_set(4))
        assert qs.n == 6
        assert np.array_equal(qs.positions, world.positions)


class TestBackproject:
    def test_roundtrip(self):
        rig = build_rig(SceneConfig(num_cameras=6, feature_dim=4))
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(-30, 30, 3)
            for cam in rig.cameras:
                hit = project_to_view(p, cam)
                if hit is None:
                    continue
                u, v, depth = hit
                back = backproject(cam, u, v, depth)
                assert np.allclose(back, p, atol=1e-9)
