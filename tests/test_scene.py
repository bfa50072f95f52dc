import math

import numpy as np
import pytest

from hqfusion.cli import RunConfig, load_scene
from hqfusion.errors import ConfigError, GenerationError, ShapeError
from hqfusion.scene import (Camera, FeatureGrid,
                            RadarPointCloud, RadarSimConfig, Scene, SceneConfig,
                            SceneObject, bev_cells, build_rig, encode_radar_bev,
                            generate_scene, make_camera,
                            project_points, render_image_bev,
                            render_pv_features, save_scene,
                            scene_from_dict, scene_to_dict, simulate_radar_points,
                            smooth_heatmap)

from reference import (bilinear_sample, cell_center, naive_convolve3x3,
                       project_to_view, project_with_matrix)


def small_config(**kw):
    base = dict(extent=16.0, num_objects=4, num_clutter=4, num_classes=5,
                num_cameras=4, feature_dim=8)
    base.update(kw)
    return SceneConfig(**base)


def manual_scene(centers, d=8, extent=16.0, sizes=None, num_cameras=4):
    """Scene with hand-placed objects and orthonormal signatures."""
    cfg = small_config(num_objects=len(centers), feature_dim=d, extent=extent,
                       num_cameras=num_cameras)
    objects = []
    for i, c in enumerate(centers):
        sig = np.zeros(d)
        sig[i % d] = 1.0
        size = np.array(sizes[i]) if sizes else np.array([2.0, 4.0, 1.5])
        objects.append(SceneObject(i, np.array(c, dtype=float), size, 0.0,
                                   np.zeros(2), i % cfg.num_classes, sig))
    return Scene(objects, 0, cfg, build_rig(cfg))


class TestGenerateScene:
    def test_empty(self):
        scene = generate_scene(7, small_config(num_objects=0))
        assert scene.objects == []
        assert len(scene.rig) == 4

    def test_deterministic(self):
        a = generate_scene(7, small_config())
        b = generate_scene(7, small_config())
        for oa, ob in zip(a.objects, b.objects):
            assert np.array_equal(oa.center, ob.center)
            assert np.array_equal(oa.signature, ob.signature)
            assert oa.yaw == ob.yaw and oa.class_id == ob.class_id

    def test_min_separation(self):
        cfg = SceneConfig(extent=51.2, num_objects=20, feature_dim=8)
        scene = generate_scene(7, cfg)
        centers = np.array([o.center[:2] for o in scene.objects])
        for i in range(20):
            for j in range(i + 1, 20):
                assert np.hypot(*(centers[i] - centers[j])) >= 2.0

    def test_extent_too_small(self):
        with pytest.raises(GenerationError):
            generate_scene(7, small_config(extent=3.0, num_objects=50))

    def test_signatures_unit_norm(self):
        scene = generate_scene(3, small_config())
        for o in scene.objects:
            assert abs(np.linalg.norm(o.signature) - 1.0) < 1e-12


class TestProjection:
    def test_principal_point(self):
        cam = make_camera(500, 500, 400, 225, 0.0, (0, 0, 1.6), 800, 450)
        uv, depth, vis = project_points([(10.0, 0.0, 1.6)], cam)
        assert vis[0]
        (u, v), depth = uv[0], depth[0]
        assert abs(u - 400) < 1e-9 and abs(v - 225) < 1e-9 and abs(depth - 10) < 1e-9

    def test_behind_camera(self):
        cam = make_camera(500, 500, 400, 225, 0.0, (0, 0, 1.6), 800, 450)
        assert not project_points([(-5.0, 0.0, 1.6)], cam)[2][0]

    def test_matches_projection_matrix(self):
        rng = np.random.default_rng(0)
        rig = build_rig(small_config())
        checked = 0
        for _ in range(200):
            p = rng.uniform(-15, 15, size=3)
            p[2] = rng.uniform(0.0, 3.0)
            for cam in rig:
                uv, depth, vis = project_points([p], cam)
                if not vis[0]:
                    continue
                (u, v), depth = uv[0], depth[0]
                mu, mv, md = project_with_matrix(cam, p)
                assert abs(u - mu) < 1e-9 and abs(v - mv) < 1e-9
                assert abs(depth - md) < 1e-9
                checked += 1
        assert checked > 50

    def test_project_points_matches_scalar(self):
        rng = np.random.default_rng(1)
        cam = build_rig(small_config())[1]
        pts = rng.uniform(-20, 20, size=(100, 3))
        uv, depth, vis = project_points(pts, cam)
        for i, p in enumerate(pts):
            got = project_to_view(p, cam)
            if got is None:
                assert not vis[i]
            else:
                assert vis[i]
                assert np.allclose(uv[i], got[:2], atol=1e-9)

    def test_rotations_orthonormal(self):
        rig = build_rig(small_config(num_cameras=6))
        for cam in rig:
            assert np.allclose(cam.r_wc @ cam.r_wc.T, np.eye(3), atol=1e-9)


class TestRadarSim:
    def test_empty(self):
        scene = manual_scene([])
        cloud = simulate_radar_points(scene, 0, RadarSimConfig(clutter_count=0))
        assert len(cloud) == 0

    def test_zero_noise_on_perimeter(self):
        scene = manual_scene([(6.0, 2.0, 0.75)])
        cfg = RadarSimConfig(points_per_object=16, pos_noise=0.0, vel_noise=0.0,
                             clutter_count=0)
        cloud = simulate_radar_points(scene, 1, cfg)
        corners = scene.objects[0].footprint_corners()
        for p in cloud.xyz:
            dists = []
            for i in range(4):
                a, b = corners[i], corners[(i + 1) % 4]
                t = np.clip(np.dot(p[:2] - a, b - a) / np.dot(b - a, b - a), 0, 1)
                dists.append(np.linalg.norm(p[:2] - (a + t * (b - a))))
            assert min(dists) < 1e-9
        assert np.allclose(cloud.velocity, 0.0)

    def test_counts(self):
        scene = manual_scene([(i * 4.0 - 8.0, 0.0, 0.75) for i in range(5)])
        cfg = RadarSimConfig(points_per_object=8, clutter_count=10)
        cloud = simulate_radar_points(scene, 2, cfg)
        assert len(cloud) == 50
        assert (cloud.object_ids >= 0).sum() == 40
        assert (cloud.object_ids == -1).sum() == 10


class TestRenderPv:
    def test_empty_zero_noise(self):
        scene = manual_scene([])
        maps = render_pv_features(scene, 8, 0.0)
        assert all((m.data == 0.0).all() for m in maps)

    def test_peak_equals_signature(self):
        # camera chosen so the projected center lands on feature cell (1, 2)
        scene = manual_scene([(5.0, 0.0, 0.0)])
        cam = make_camera(100, 100, 10.0, 6.0, 0.0, (0.0, 0.0, 0.0), 20, 12)
        scene.rig = [cam]
        maps = render_pv_features(scene, 8, 0.0, downsample=4)
        assert np.allclose(maps[0].data[1, 2], scene.objects[0].signature,
                           atol=1e-9)

    def test_visible_in_two_cameras(self):
        # 30 deg sits inside the overlap of cameras 0 and 1 on a 6-camera rig
        scene = manual_scene([(np.cos(np.pi / 6) * 12,
                                    np.sin(np.pi / 6) * 12, 0.9)],
                                  num_cameras=6)
        obj = scene.objects[0]
        seen = [i for i, cam in enumerate(scene.rig)
                if project_to_view(obj.center, cam) is not None]
        assert len(seen) >= 2
        maps = render_pv_features(scene, 8, 0.0)
        for ci in seen:
            hit = project_to_view(obj.center, scene.rig[ci])
            fy, fx = maps[ci].frac_coords(hit[0], hit[1])
            cell = maps[ci].data[round(float(fy)), round(float(fx))]
            assert cell @ obj.signature > 0.5

    @pytest.mark.parametrize("ds", [7, 16])
    def test_map_is_grid_in_pixels(self, ds):
        # 7 does not divide the image, so the map covers fewer pixels than it
        scene = manual_scene([(5.0, 1.0, 0.9)])
        cam = scene.rig[0]
        pv = render_pv_features(scene, 8, 0.1, downsample=ds)[0]
        hf, wf = cam.height // ds, cam.width // ds
        assert isinstance(pv, FeatureGrid) and pv.data.shape == (hf, wf, 8)
        assert (pv.x_min, pv.x_max, pv.y_min, pv.y_max, pv.voxel) == (
            0.0, wf * ds, 0.0, hf * ds, ds)
        # the first, middle and last pixel
        u = np.array([0.0, cam.width // 2, cam.width - 1])
        v = np.array([0.0, cam.height // 2, cam.height - 1])
        fy, fx = pv.frac_coords(u, v)
        assert fy.tobytes() == (v / ds - 0.5).tobytes()
        assert fx.tobytes() == (u / ds - 0.5).tobytes()

    def test_deterministic(self):
        scene = manual_scene([(5.0, 1.0, 0.9)])
        a = render_pv_features(scene, 8, 0.1, seed=3)
        b = render_pv_features(scene, 8, 0.1, seed=3)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.data, mb.data)


class TestRenderImageBev:
    def test_empty_zero_noise(self):
        scene = manual_scene([])
        grid = render_image_bev(scene, 1.0, 8, 0.0)
        assert (grid.data == 0.0).all()

    def test_peak_equals_signature(self):
        scene = manual_scene([(0.5, 0.5, 0.75)])
        grid = render_image_bev(scene, 1.0, 8, 0.0)
        assert np.allclose(bilinear_sample(grid, (0.5, 0.5)),
                           scene.objects[0].signature, atol=1e-9)

    def test_miss_rate_omits_seeded_half(self):
        centers = [(x, y, 0.75) for x in (-10.5, -3.5, 3.5, 10.5)
                   for y in (-10.5, 10.5)]
        scene = manual_scene(centers)
        seed = 11
        grid = render_image_bev(scene, 1.0, 8,
                                0.0, miss_rate=0.5, seed=seed)
        # reproduce the documented miss stream independently
        draws = np.random.default_rng([seed, 5]).random(len(centers))
        for obj, miss in zip(scene.objects, draws < 0.5):
            peak = bilinear_sample(grid, obj.center[:2])
            present = abs(peak @ obj.signature) > 0.5
            assert present == (not miss)
        assert 0 < (draws < 0.5).sum() < len(centers)


class TestEncodeRadarBev:
    def test_empty_cloud(self):
        grid, heatmap = encode_radar_bev(RadarPointCloud.empty(),
                                         8.0, 1.0, 8)
        assert (grid.data == 0.0).all()
        assert (heatmap == 0.0).all()

    def test_single_cell_support(self):
        pts = RadarPointCloud(
            np.array([[0.3, 0.2, 0.0], [0.1, 0.4, 0.0], [0.45, 0.05, 0.0]]),
            np.ones((3, 2)), np.full(3, 0.5), np.zeros(3, dtype=int))
        grid, heatmap = encode_radar_bev(pts, 8.0, 1.0, 8)
        nz = np.argwhere((grid.data != 0.0).any(axis=2))
        assert nz.shape[0] == 1
        row, col = nz[0]
        assert heatmap[row, col] == heatmap.max()

    def test_means_match_bruteforce(self):
        rng = np.random.default_rng(5)
        m = 80
        pts = RadarPointCloud(
            np.column_stack([rng.uniform(-8, 8, m), rng.uniform(-8, 8, m),
                             np.zeros(m)]),
            rng.normal(size=(m, 2)), rng.uniform(0, 1, m),
            rng.integers(-1, 4, m))
        seed = 9
        grid, heatmap = encode_radar_bev(pts, 8.0, 1.0, 8, seed=seed)
        embed = np.random.default_rng([seed, 2]).normal(
            0.0, 1.0 / math.sqrt(6.0), size=(6, 8))
        n = grid.data.shape[0]
        assert grid.data.shape == (n, n, 6) and grid.d == 8, (
            "the radar BEV grid has rank 6 and is stored as 6 pooled channels "
            "times a (6, d) basis; radar noise would make it full rank and "
            "break that factored storage")
        assert np.array_equal(grid.basis, embed)
        dense = grid.data @ grid.basis
        # brute-force grouping oracle
        for row in range(n):
            for col in range(n):
                members = []
                for i in range(m):
                    c = int(np.floor((pts.xyz[i, 0] - grid.x_min) / grid.voxel))
                    r = int(np.floor((pts.xyz[i, 1] - grid.y_min) / grid.voxel))
                    if (r, c) == (row, col):
                        members.append(i)
                if not members:
                    assert (grid.data[row, col] == 0.0).all()
                    continue
                cx, cy = cell_center(grid, row, col)
                feats = np.array([
                    [pts.xyz[i, 0] - cx, pts.xyz[i, 1] - cy,
                     pts.velocity[i, 0], pts.velocity[i, 1], pts.rcs[i], 1.0]
                    for i in members
                ])
                pooled = feats.mean(axis=0)
                pooled[5] = len(members)
                assert np.array_equal(grid.data[row, col], pooled)
                assert np.allclose(dense[row, col], pooled @ embed, atol=1e-12), \
                    "radar BEV features are the pooled channels times the basis"
        assert heatmap.min() >= 0.0 and heatmap.max() <= 1.0

    def test_far_points_dropped_before_the_cell_cast(self):
        # a point far beyond a small grid has a cell index past int64; it
        # is dropped like any point off the grid, with no cast warning
        rng = np.random.default_rng(7)
        xyz = np.zeros((9, 3))
        xyz[:6, :2] = rng.uniform(-1e-6, 1e-6, (6, 2))
        xyz[6:, :2] = [[1e300, 0.0], [0.0, -1e300], [-1.0, 1.0]]
        both = RadarPointCloud(xyz, rng.normal(size=(9, 2)),
                               rng.uniform(0, 1, 9), np.zeros(9, dtype=int))
        near = RadarPointCloud(xyz[:6], both.velocity[:6], both.rcs[:6],
                               both.object_ids[:6])
        grid, heatmap = encode_radar_bev(both, 1e-6, 1e-7, 4)
        near_grid, near_heatmap = encode_radar_bev(near, 1e-6, 1e-7, 4)
        assert np.array_equal(grid.data, near_grid.data)
        assert np.array_equal(heatmap, near_heatmap)

    def test_heatmap_range(self):
        rng = np.random.default_rng(6)
        m = 200
        pts = RadarPointCloud(
            np.column_stack([rng.normal(0, 2, m), rng.normal(0, 2, m),
                             np.zeros(m)]),
            rng.normal(size=(m, 2)), rng.uniform(0, 1, m),
            np.full(m, -1, dtype=int))
        _, heatmap = encode_radar_bev(pts, 8.0, 1.0, 4)
        assert heatmap.min() >= 0.0 and heatmap.max() <= 1.0


def preset_radar_heatmaps():
    """(unsmoothed, encoded) radar heatmaps of the default and toy presets.

    The unsmoothed map is each cell's point count over the largest count,
    counted point by point.
    """
    from hqfusion import cli
    for preset in ("default", "toy"):
        for seed in range(5):
            cfg = cli.config_from_dict(cli.PRESETS[preset])
            scene = generate_scene(seed, cfg.scene)
            cloud = simulate_radar_points(scene, seed, cfg.radar)
            grid, encoded = encode_radar_bev(cloud, cfg.scene.extent,
                                             cfg.render.voxel, 1, seed=seed)
            counts = np.zeros((grid.data.shape[0], grid.data.shape[1]))
            for x, y, _ in cloud.xyz:
                col = int(np.floor((x - grid.x_min) / grid.voxel))
                row = int(np.floor((y - grid.y_min) / grid.voxel))
                if 0 <= row < grid.data.shape[0] and 0 <= col < grid.data.shape[1]:
                    counts[row, col] += 1
            assert counts.max() > 0
            yield counts / counts.max(), encoded


class TestSmoothHeatmap:
    kernel = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0

    def test_preset_heatmaps_match_the_oracles(self):
        from scipy.signal import convolve2d
        for raw, encoded in preset_radar_heatmaps():
            got = smooth_heatmap(raw)
            assert np.array_equal(got, naive_convolve3x3(raw, self.kernel))
            assert np.array_equal(got, convolve2d(raw, self.kernel, mode="same",
                                                  boundary="fill"))
            assert np.array_equal(encoded, np.clip(got, 0.0, 1.0))

    def test_random_maps_match_the_oracles(self):
        from scipy.signal import convolve2d
        rng = np.random.default_rng(11)
        shapes = [(1, 1), (1, 4), (3, 2), (16, 16), (33, 20)]
        shapes += [tuple(rng.integers(1, 40, 2)) for _ in range(15)]
        for shape in shapes:
            raw = rng.uniform(0.0, 1.0, shape) ** 3
            got = smooth_heatmap(raw)
            assert got.shape == raw.shape
            assert np.array_equal(got, naive_convolve3x3(raw, self.kernel))
            assert np.array_equal(got, convolve2d(raw, self.kernel, mode="same",
                                                  boundary="fill"))


class TestSignatureRecoverability:
    def test_bev_center_cosine(self):
        scene = generate_scene(13, small_config(num_objects=5, extent=20.0))
        grid = render_image_bev(scene, 0.8, 8, 0.0)
        for obj in scene.objects:
            feat = bilinear_sample(grid, obj.center[:2])
            cos = feat @ obj.signature / max(np.linalg.norm(feat), 1e-12)
            assert cos >= 0.99


class TestGridTypes:
    def test_bev_cells(self):
        assert bev_cells(51.2, 0.8) == 128
        with pytest.raises(ConfigError):
            bev_cells(1.0, 0.3)

    def test_feature_grid_invariant(self):
        with pytest.raises(ShapeError):
            FeatureGrid(np.zeros((4, 4, 2)), -2.0, 2.0, -2.0, 2.1, 1.0)
        for basis in (np.zeros((3, 5)), np.zeros(2), np.zeros((2, 5, 1))):
            with pytest.raises(ShapeError):
                FeatureGrid(np.zeros((4, 4, 2)), -2.0, 2.0, -2.0, 2.0, 1.0,
                            basis=basis)
        grid = FeatureGrid(np.zeros((4, 4, 2)), -2.0, 2.0, -2.0, 2.0, 1.0,
                           basis=np.zeros((2, 5)))
        assert grid.d == 5


class TestSceneSerialization:
    def test_roundtrip(self, tmp_path):
        scene = generate_scene(21, small_config())
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        back = load_scene(RunConfig(), path)
        assert scene_to_dict(back) == scene_to_dict(scene)

    def test_dict_roundtrip_objects(self):
        scene = generate_scene(22, small_config())
        doc = scene_to_dict(scene)
        back = scene_from_dict(doc, scene.config)
        for a, b in zip(scene.objects, back.objects):
            assert np.array_equal(a.center, b.center)
            assert a.class_id == b.class_id
