import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfusion.errors import ConfigError
from hqfusion.qinit import (TYPE_IMG, TYPE_RAD, TYPE_W, Proposals, QuerySet,
                            backproject, concat_query_sets,
                            generate_2d_proposals, init_image_queries,
                            init_radar_queries, init_world_queries, ring_counts)
from hqfusion.scene import (FeatureGrid, SceneConfig, build_rig, make_camera,
                            render_pv_features)

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
        qs.validate(extent=30.0)

    def test_deterministic(self):
        a = init_world_queries(60, 20.0, 8, seed=5)
        b = init_world_queries(60, 20.0, 8, seed=5)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.positions, b.positions)

    def test_too_few_for_rings(self):
        with pytest.raises(ConfigError):
            init_world_queries(10, 20.0, 8, seed=0, rings=15)


def proposals_setup(centers, noise=False, **scene_kw):
    scene = manual_scene(centers, **scene_kw)
    pv_maps = render_pv_features(scene, scene.config.feature_dim, 0.0)
    kw = dict(center_noise_px=0.0, depth_noise=0.0) if not noise else {}
    props = generate_2d_proposals(scene, pv_maps, per_view=6, seed=3, **kw)
    return scene, scene.rig, pv_maps, props


def proposal_table(rows, features):
    """Proposals of (u, v, score, depth, view, object id) rows."""
    rows = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return Proposals(rows[:, :2], rows[:, 2], rows[:, 3],
                     np.asarray(features, dtype=np.float64),
                     rows[:, 4].astype(np.int64), rows[:, 5].astype(np.int64))


class TestProposals:
    def test_empty_scene_all_distractors(self):
        _, rig, _, props = proposals_setup([])
        assert props.views.tolist() == [c for c in range(len(rig))
                                        for _ in range(6)]
        assert (props.object_ids == -1).all()
        assert (props.scores < 0.2).all()

    def test_empty_scene_draws_are_the_view_stream(self):
        # each distractor is four uniform draws (u, v, score, depth) of its
        # view's stream default_rng([seed, 3, view]); proposals_setup: seed 3
        _, rig, _, props = proposals_setup([])
        for c, cam in enumerate(rig):
            rng = np.random.default_rng([3, 3, c])
            for i in np.flatnonzero(props.views == c):
                want = [rng.uniform(0.0, cam.width - 1),
                        rng.uniform(0.0, cam.height - 1),
                        rng.uniform(0.0, 0.2), rng.uniform(1.0, 60.0)]
                got = [*props.uv[i], props.scores[i], props.depths[i]]
                assert got == want

    def test_zero_noise_exact_centers(self):
        scene, rig, _, props = proposals_setup([(8.0, 0.5, 0.9)])
        obj = scene.objects[0]
        found = 0
        for ci, cam in enumerate(rig):
            hit = project_to_view(obj.center, cam)
            if hit is None:
                continue
            matches = np.flatnonzero((props.views == ci) & (props.object_ids == 0))
            assert len(matches) == 1
            assert abs(props.uv[matches[0], 0] - hit[0]) < 1e-9
            assert abs(props.uv[matches[0], 1] - hit[1]) < 1e-9
            assert abs(props.depths[matches[0]] - hit[2]) < 1e-9
            found += 1
        assert found >= 1

    def test_score_at_depth_60(self):
        # oracle: 0.9 * exp(-60/60) = 0.33109149705429813, jitter in [0, 0.05)
        scene, rig, _, props = proposals_setup([(60.0, 0.0, 1.6)], extent=64.0)
        scores = props.scores[props.object_ids == 0]
        assert scores.size
        base = 0.33109149705429813
        assert ((base <= scores) & (scores < base + 0.05)).all()


class TestImageQueries:
    def test_exact_backprojection(self):
        scene, rig, _, props = proposals_setup([(8.0, 0.5, 0.9)])
        qs, padded = init_image_queries(props, rig, 1, extent=16.0, d=8)
        assert padded == 0
        assert np.allclose(qs.positions[0], scene.objects[0].center, atol=1e-6)
        assert qs.types[0] == TYPE_IMG

    def test_top_k_by_score(self):
        cam = make_camera(100, 100, 10, 6, 0.0, (0, 0, 0), 20, 12)
        rig = [cam]
        props = proposal_table([(5.0, 5.0, 0.1, 10.0, 0, -1),
                                (6.0, 6.0, 0.9, 12.0, 0, 0)],
                               [np.zeros(4), np.ones(4)])
        qs, _ = init_image_queries(props, rig, 1, extent=30.0, d=4)
        assert np.allclose(qs.embeddings[0], 1.0)

    def test_score_ties_go_to_earlier_view_then_earlier_proposal(self):
        # 3 views of 20 proposals with only 3 distinct scores; row i's
        # feature is the one-hot e_i, so the embeddings name the chosen rows
        cam = make_camera(100, 100, 10, 6, 0.0, (0, 0, 0), 20, 12)
        scores = np.random.default_rng(0).choice([0.2, 0.5, 0.9], 60)
        props = proposal_table([(5.0, 5.0, s, 10.0, i // 20, -1)
                                for i, s in enumerate(scores)], np.eye(60))
        qs, _ = init_image_queries(props, [cam] * 3, 45,
                                   extent=30.0, d=60)
        oracle = sorted(range(60), key=lambda i: (-scores[i], i // 20, i))
        assert np.argmax(qs.embeddings, axis=1).tolist() == oracle[:45]

    def test_padding_when_short(self):
        cam = make_camera(100, 100, 10, 6, 0.0, (0, 0, 0), 20, 12)
        rig = [cam]
        props = proposal_table([(5.0, 5.0, 0.4, 10.0, 0, 0)], [np.ones(4)])
        qs, padded = init_image_queries(props, rig, 3, extent=30.0, d=4)
        assert padded == 2
        assert qs.n == 3
        assert (qs.positions[1:] == 0.0).all()

    def test_embedding_is_pv_feature(self):
        scene, rig, pv_maps, props = proposals_setup([(8.0, 0.5, 0.9)])
        qs, _ = init_image_queries(props, rig, 1, extent=16.0, d=8)
        assert np.array_equal(qs.embeddings[0],
                              props.features[np.argmax(props.scores)])


def radar_grid_with(heatmap_shape=(6, 6), d=4, extent=3.0, voxel=1.0):
    grid = FeatureGrid.square(extent, voxel, d)
    rng = np.random.default_rng(0)
    grid.data[:] = rng.normal(size=grid.data.shape)
    return grid


class TestRadarQueries:
    def test_zero_heatmap_row_major_tiebreak(self):
        grid = radar_grid_with()
        heatmap = np.zeros((6, 6))
        qs = init_radar_queries(heatmap, grid, 4)
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

    def test_matches_full_sort_oracle(self):
        grid = radar_grid_with()
        rng = np.random.default_rng(7)
        heatmap = rng.uniform(0, 1, size=(6, 6))
        n = 10
        qs = init_radar_queries(heatmap, grid, n)
        flat = heatmap.ravel()
        oracle = sorted(range(36), key=lambda i: (-flat[i], i))[:n]
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
        props = proposal_table([(5.0, 5.0, 0.4, 10.0, 0, 0)], [np.ones(4)])
        image, _ = init_image_queries(props, [cam], 3,
                                      extent=20.0, d=4)
        qs = concat_query_sets(world, image, radar)
        assert qs.n == 20
        assert (qs.types[:3] == TYPE_IMG).all()
        assert (qs.types[3:8] == TYPE_RAD).all()
        assert (qs.types[8:] == TYPE_W).all()
        qs.validate(extent=20.0)

    def test_default_counts_total_900(self):
        world = init_world_queries(450, 51.2, 4, seed=0)
        grid = FeatureGrid.square(12.0, 0.8, 4)
        heatmap = np.random.default_rng(0).uniform(
            0, 1, (grid.data.shape[0], grid.data.shape[1]))
        radar = init_radar_queries(heatmap, grid, 225)
        emb = np.zeros((225, 4))
        image = QuerySet(emb, np.zeros((225, 3)),
                         np.full(225, TYPE_IMG, dtype=np.int64))
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
            for cam in rig:
                hit = project_to_view(p, cam)
                if hit is None:
                    continue
                u, v, depth = hit
                back = backproject(cam, u, v, depth)
                assert np.allclose(back, p, atol=1e-9)
