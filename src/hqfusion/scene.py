"""Synthetic 3-D scenes and the multi-modal feature maps rendered from them.

This module stands in for real sensor backbones: it generates a Scene
(ground-truth objects and the surround-view camera rig, a list of Cameras)
and a radar point cloud, then renders per-camera perspective-view (PV)
feature maps, an image BEV grid and a radar BEV grid plus detection
heatmap; both BEV grids come from FeatureGrid.square.  Every map is a
FeatureGrid, a PV map in pixels and a BEV grid in metres.  Every object
carries a distinct unit-norm "signature" embedding that the renderers splat
at the object location, so tests can verify that sampled evidence really
comes from the object it claims to.

All generation and rendering is deterministic given (seed, config); random
streams are isolated per purpose via numpy SeedSequence lists.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import jsontext
from .errors import (MAX_FLOAT, MIN_POSITIVE, ConfigError, GenerationError,
                     ShapeError, bounded, echo)

# Seed-stream tags, so independent draws never alias each other.
_STREAM_OBJECTS = 0
_STREAM_RADAR = 7
_STREAM_PV_NOISE = 4
_STREAM_BEV_MISS = 5
_STREAM_BEV_NOISE = 6
_STREAM_RADAR_EMBED = 2

MIN_CAMERA_DEPTH = 0.1
# A 1e6 px focal length sees 0.05 degrees of an 800 px image; beyond such
# bounds a scene is no longer plausible and its arithmetic can overflow.
MAX_FOCAL = 1e6   # pixels
MAX_SPEED = 1e3   # m/s per axis; generated objects move at most 10 m/s
_PLACEMENT_MARGIN = 2.0  # object centers keep this far from the scene edge
# Object placement gives up after this many rejected draws in a row: past
# it the free area is a vanishing fraction of the scene (random placement
# jams near 55% disk cover), whatever the requested count.
MAX_REJECTED_DRAWS = 10_000
# Work bounds of the generators that loop in Python once per item: placing
# 10,000 objects at separation 0 takes about 2.3 s (it grows as the square
# of the count) and a toy run with them about 4 s.
# The rig, the PV renderer, the proposal generator and every decoder
# layer's token plan loop over cameras: with one-cell PV maps
# (render.pv_downsample at its bound) a `default` run with MAX_CAMERAS
# cameras takes about 5-6 s, against 2.3 s with 6, and a `toy` run 0.8 s.
MAX_OBJECTS = 10_000
MAX_CAMERAS = 128

# 3x3 binomial kernel used to smooth the radar heatmap.
_HEATMAP_KERNEL = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float64) / 16.0


@dataclass
class SceneObject:
    """One ground-truth box: center/size in meters, yaw in radians."""

    id: int
    center: np.ndarray        # (3,) x, y, z
    size: np.ndarray          # (3,) w, l, h
    yaw: float
    velocity: np.ndarray      # (2,) vx, vy
    class_id: int
    signature: np.ndarray     # (d,) unit-norm embedding planted by renderers

    def footprint_corners(self) -> np.ndarray:
        """(4,2) BEV corners of the box footprint, counter-clockwise."""
        w, l = float(self.size[0]), float(self.size[1])
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        local = np.array(
            [[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]]
        )
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + self.center[:2]


@dataclass
class Camera:
    """Pinhole camera: world -> camera rotation plus center position."""

    fx: float
    fy: float
    cx: float
    cy: float
    r_wc: np.ndarray      # (3,3), rows are camera axes in world coords
    position: np.ndarray  # (3,) camera center in world coords
    width: int
    height: int


@dataclass
class SceneConfig:
    # feature_dim is tied to decoder.d, which declares its range; num_clutter
    # is kept for the report's config block
    # the scene spans [-extent, extent]^2 in x, y
    extent: float = bounded(51.2, MIN_POSITIVE, MAX_FLOAT / 2.0)
    num_objects: int = bounded(12, 0, MAX_OBJECTS)
    num_clutter: int = 20
    # rng.integers draws class ids as int64
    num_classes: int = bounded(10, 1, 1 << 63)
    num_cameras: int = bounded(6, 0, MAX_CAMERAS)
    feature_dim: int = 256
    min_separation: float = bounded(2.0, 0.0, MAX_FLOAT)
    image_width: int = bounded(800, 1, math.inf)
    image_height: int = bounded(450, 1, math.inf)
    focal: float = bounded(500.0, MIN_POSITIVE, MAX_FOCAL)
    camera_height: float = bounded(1.6, 0.0, MAX_FLOAT)

    def validate(self):
        if not 0.0 < 2.0 * self.extent < math.inf:
            raise ConfigError("scene.extent must be positive with a finite span "
                              f"2 * extent, got {self.extent}")
        if not self.camera_height <= self.extent:
            raise ConfigError("scene.camera_height must not exceed scene.extent")
        # centers lie in a square of side L = 2 * (extent - margin); disks of
        # radius s/2 around them are disjoint and lie in the square of side
        # L + s, so more than (L + s)^2 / (pi s^2 / 4) objects never fit
        s = self.min_separation
        if s > 0.0:
            ratio = (2.0 * (self.extent - _PLACEMENT_MARGIN) + s) / s
            if self.num_objects > 4.0 / math.pi * ratio * ratio:
                raise ConfigError(
                    f"scene.num_objects={self.num_objects} objects cannot be "
                    f"{s} m apart inside +/-{self.extent - _PLACEMENT_MARGIN} m")


@dataclass
class Scene:
    objects: list[SceneObject]
    seed: int
    config: SceneConfig
    rig: list[Camera]


def bev_cells(extent: float, voxel: float) -> int:
    """Cells per side of the BEV grid over [-extent, extent]^2 at voxel size."""
    span = 2.0 * extent
    n = round(span / voxel)
    if n < 1 or abs(n * voxel - span) > 1e-9 * max(span, 1.0):
        raise ConfigError(
            f"extent {extent} is not an integer number of {voxel} m voxels")
    return n


@dataclass
class FeatureGrid:
    """H x W feature map over an extent, stored as c channels a cell.

    A BEV grid's extent and voxel are in metres; a PV map's are in pixels,
    its voxel the render downsample.  With no basis the channels are the d
    features (c = d).  With a (c, d) basis, cell (i, j)'s feature is
    data[i, j] @ basis: a grid of rank c is kept at c channels, and a reader
    applies the basis to what it reads (bilinear interpolation commutes with
    it).  Rows index y, columns index x; cell (i, j) is centered at
    (x_min + (j+.5)*voxel, y_min + (i+.5)*voxel).
    """

    data: np.ndarray
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    voxel: float
    basis: np.ndarray | None = None

    def __post_init__(self):
        h, w, c = self.data.shape
        for span, n, axis in ((self.x_max - self.x_min, w, "x"),
                              (self.y_max - self.y_min, h, "y")):
            if abs(span / self.voxel - n) > 1e-9:
                raise ShapeError(f"{axis} extent does not tile into {n} voxels")
        if self.basis is not None and (self.basis.ndim != 2
                                       or self.basis.shape[0] != c):
            raise ShapeError(f"a basis of shape {self.basis.shape} does not "
                             f"map {c} channels")

    @property
    def d(self) -> int:
        """The feature width: the basis's columns, else the channels."""
        return (self.data if self.basis is None else self.basis).shape[-1]

    @classmethod
    def square(cls, extent: float, voxel: float, c: int,
               basis: np.ndarray | None = None) -> "FeatureGrid":
        """A zero BEV grid of c channels over [-extent, extent]^2."""
        n = bev_cells(extent, voxel)
        return cls(np.zeros((n, n, c)), -extent, extent, -extent, extent, voxel,
                   basis)

    def frac_coords(self, x, y):
        """x, y (scalars or arrays) -> fractional (fy, fx) cell coords."""
        return ((y - self.y_min) / self.voxel - 0.5,
                (x - self.x_min) / self.voxel - 0.5)

    def cell_centers(self, rows, cols):
        """(x, y) centers of the cells at integer (rows, cols)."""
        return (self.x_min + (cols + 0.5) * self.voxel,
                self.y_min + (rows + 0.5) * self.voxel)


@dataclass
class RadarPointCloud:
    xyz: np.ndarray         # (M, 3)
    velocity: np.ndarray    # (M, 2)
    rcs: np.ndarray         # (M,)
    object_ids: np.ndarray  # (M,) source object id, -1 for clutter

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @classmethod
    def empty(cls) -> "RadarPointCloud":
        return cls(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0),
                   np.zeros(0, dtype=int))


@dataclass
class RadarSimConfig:
    points_per_object: int = bounded(8, 0, math.inf)
    # metres and m/s, far past any radar's error; the renderers stay finite
    pos_noise: float = bounded(0.3, 0.0, 1e3)
    vel_noise: float = bounded(0.2, 0.0, 1e3)
    clutter_count: int = bounded(20, 0, math.inf)


def make_camera(fx, fy, cx, cy, yaw, position, width, height) -> Camera:
    """Camera at `position` looking along world yaw, optical axis horizontal.

    Camera frame: +x right, +y down, +z forward (right-handed).
    """
    fwd = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    r_wc = np.stack([right, down, fwd])
    return Camera(fx, fy, cx, cy, r_wc, np.asarray(position, dtype=np.float64),
                  width, height)


def build_rig(config: SceneConfig) -> list[Camera]:
    """Surround-view rig: cameras at scene center, evenly spaced in yaw."""
    cams = []
    for k in range(config.num_cameras):
        yaw = 2.0 * math.pi * k / config.num_cameras
        cams.append(make_camera(
            config.focal, config.focal,
            config.image_width / 2.0, config.image_height / 2.0,
            yaw, (0.0, 0.0, config.camera_height),
            config.image_width, config.image_height,
        ))
    return cams


def generate_scene(seed: int, config: SceneConfig) -> Scene:
    """Place objects uniformly with a minimum center separation.

    Raises GenerationError when MAX_REJECTED_DRAWS draws in a row land too
    close to a placed object, so an infeasible count fails in a time that
    does not grow with it.
    """
    rng = np.random.default_rng([seed, _STREAM_OBJECTS])
    n = config.num_objects
    lo, hi = -config.extent + _PLACEMENT_MARGIN, config.extent - _PLACEMENT_MARGIN
    if n > 0 and hi <= lo:
        raise GenerationError("extent too small for any object placement")

    placed = np.zeros((n, 2))
    count = rejected = 0
    while count < n:
        if rejected >= MAX_REJECTED_DRAWS:
            raise GenerationError(
                f"could not place {n} objects at {config.min_separation} m "
                f"separation inside +/-{config.extent} m: {count} placed, then "
                f"{rejected} draws in a row were too close"
            )
        xy = rng.uniform(lo, hi, size=2)
        gap = xy - placed[:count]
        if (np.hypot(gap[:, 0], gap[:, 1]) >= config.min_separation).all():
            placed[count] = xy
            count += 1
            rejected = 0
        else:
            rejected += 1

    objects = []
    for i, (x, y) in enumerate(placed):
        w = rng.uniform(1.5, 3.0)
        l = rng.uniform(3.0, 6.0)
        h = rng.uniform(1.0, 2.5)
        center = np.array([x, y, h / 2.0])
        yaw = rng.uniform(-math.pi, math.pi)
        vel = rng.uniform(-10.0, 10.0, size=2)
        class_id = int(rng.integers(0, config.num_classes))
        sig = rng.normal(0.0, 1.0, size=config.feature_dim)
        sig /= np.linalg.norm(sig)
        objects.append(SceneObject(i, center, np.array([w, l, h]), float(yaw),
                                   vel, class_id, sig))
    return Scene(objects, seed, config, build_rig(config))


def project_points(points: np.ndarray, camera: Camera):
    """Vectorized projection: (uv (N,2), depth (N,), visible (N,) bool)."""
    p_cam = (np.asarray(points, dtype=np.float64) - camera.position) @ camera.r_wc.T
    depth = p_cam[:, 2]
    safe = np.where(depth > MIN_CAMERA_DEPTH, depth, 1.0)
    u = camera.fx * p_cam[:, 0] / safe + camera.cx
    v = camera.fy * p_cam[:, 1] / safe + camera.cy
    visible = (
        (depth > MIN_CAMERA_DEPTH)
        & (u >= 0.0) & (u < camera.width)
        & (v >= 0.0) & (v < camera.height)
    )
    return np.stack([u, v], axis=1), depth, visible


def simulate_radar_points(scene: Scene, seed: int, config: RadarSimConfig) -> RadarPointCloud:
    """Radar returns near each box's sensor-facing face, plus clutter.

    With pos_noise = 0 the object points lie exactly on the footprint
    perimeter.  Velocities copy the object velocity plus Gaussian noise;
    clutter points are uniform in the extent with object id -1.
    """
    rng = np.random.default_rng([seed, _STREAM_RADAR])
    xyz, vel, rcs, ids = [], [], [], []
    for obj in scene.objects:
        corners = obj.footprint_corners()
        edges = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]
        mids = [0.5 * (a + b) for a, b in edges]
        near = int(np.argmin([np.hypot(*m) for m in mids]))
        a, b = edges[near]
        for _ in range(config.points_per_object):
            t = rng.uniform(0.0, 1.0)
            pt = a + t * (b - a) + rng.normal(0.0, config.pos_noise, size=2)
            xyz.append([pt[0], pt[1], 0.0])
            vel.append(obj.velocity + rng.normal(0.0, config.vel_noise, size=2))
            rcs.append(rng.uniform(0.3, 1.0))
            ids.append(obj.id)
    e = scene.config.extent
    for _ in range(config.clutter_count):
        xyz.append([rng.uniform(-e, e), rng.uniform(-e, e), 0.0])
        vel.append(rng.normal(0.0, 1.0, size=2))
        rcs.append(rng.uniform(0.0, 0.3))
        ids.append(-1)
    if not xyz:
        return RadarPointCloud.empty()
    return RadarPointCloud(np.array(xyz), np.array(vel), np.array(rcs),
                           np.array(ids, dtype=int))


def _splat(data: np.ndarray, fy: float, fx: float, vec: np.ndarray, sigma: float):
    """Add a Gaussian-weighted copy of vec around fractional cell (fy, fx).

    Peak weight is exactly 1 at zero distance, so a splat centered on a cell
    deposits the unmodified vector there.
    """
    h, w = data.shape[:2]
    r = int(math.ceil(3.0 * sigma))
    y0, y1 = max(0, math.floor(fy) - r), min(h - 1, math.ceil(fy) + r)
    x0, x1 = max(0, math.floor(fx) - r), min(w - 1, math.ceil(fx) + r)
    if y1 < y0 or x1 < x0:
        return
    ys = np.arange(y0, y1 + 1)
    xs = np.arange(x0, x1 + 1)
    d2 = (ys[:, None] - fy) ** 2 + (xs[None, :] - fx) ** 2
    weight = np.exp(-d2 / (2.0 * sigma * sigma))
    data[y0:y1 + 1, x0:x1 + 1] += weight[:, :, None] * vec


def render_pv_features(scene: Scene, d: int, noise_sigma: float, seed: int = 0,
                       downsample: int = 16) -> list[FeatureGrid]:
    """Per-camera PV maps: noise background + signature splats at projected centers."""
    if d != scene.config.feature_dim:
        raise ConfigError("feature dim does not match scene signatures")
    centers = np.array([o.center for o in scene.objects]).reshape(-1, 3)
    maps = []
    for ci, cam in enumerate(scene.rig):
        hf = max(1, cam.height // downsample)
        wf = max(1, cam.width // downsample)
        rng = np.random.default_rng([seed, _STREAM_PV_NOISE, ci])
        data = rng.normal(0.0, 1.0, size=(hf, wf, d)) * noise_sigma
        pv = FeatureGrid(data, 0.0, wf * downsample, 0.0, hf * downsample,
                         downsample)
        uv, _, visible = project_points(centers, cam)
        fy, fx = pv.frac_coords(uv[:, 0], uv[:, 1])
        for k in np.flatnonzero(visible):
            _splat(data, float(fy[k]), float(fx[k]), scene.objects[k].signature,
                   sigma=1.5)
        maps.append(pv)
    return maps


def render_image_bev(scene: Scene, voxel: float, d: int, noise_sigma: float,
                     miss_rate: float = 0.0, seed: int = 0) -> FeatureGrid:
    """Image-view BEV grid of the scene: signature splats at object centers.

    A seeded fraction `miss_rate` of objects is omitted, emulating camera
    depth-lifting failures.  Miss decisions use the first len(objects) draws
    of stream [seed, 5] so tests can reproduce them independently.
    """
    grid = FeatureGrid.square(scene.config.extent, voxel, d)
    miss = np.random.default_rng([seed, _STREAM_BEV_MISS]).random(len(scene.objects))
    # the noise is drawn into the grid, with no temporary of its size;
    # += 0.0 makes it exactly zero + noise, turning the -0.0 of a negative
    # draw times a zero sigma into 0.0
    np.random.default_rng([seed, _STREAM_BEV_NOISE]).standard_normal(out=grid.data)
    grid.data *= noise_sigma
    grid.data += 0.0
    for obj, m in zip(scene.objects, miss):
        if m < miss_rate:
            continue
        fy, fx = grid.frac_coords(float(obj.center[0]), float(obj.center[1]))
        _splat(grid.data, fy, fx, obj.signature, sigma=1.0)
    return grid


def encode_radar_bev(points: RadarPointCloud, extent: float, voxel: float, d: int,
                     seed: int = 0) -> tuple[FeatureGrid, np.ndarray]:
    """Pillar-style radar encoding of [-extent, extent]^2 plus a detection heatmap.

    Per cell, the feature is the mean of a fixed hand-rolled featurization
    (in-cell offsets, velocity, RCS, count) pushed through a seeded fixed
    linear embedding to d channels.  No noise is added, so the grid has rank
    6: it holds the 6 pooled channels of each cell, with the (6, d)
    embedding as its basis.  The heatmap is the per-cell point count
    normalized by its max, smoothed with a 3x3 Gaussian and clipped to [0,1].
    Clutter contributes exactly like object points.
    """
    embed = np.random.default_rng([seed, _STREAM_RADAR_EMBED]).normal(
        0.0, 1.0 / math.sqrt(6.0), size=(6, d))
    grid = FeatureGrid.square(extent, voxel, 6, basis=embed)
    n = grid.data.shape[0]
    heatmap = np.zeros((n, n))

    if len(points) > 0:
        # cell coordinates as floats: a far point's would not fit an int
        fc = (points.xyz[:, 0] - grid.x_min) / grid.voxel
        fr = (points.xyz[:, 1] - grid.y_min) / grid.voxel
        inside = (fc >= 0) & (fc < n) & (fr >= 0) & (fr < n)
        cols = np.floor(fc[inside]).astype(int)
        rows = np.floor(fr[inside]).astype(int)
        pts = points.xyz[inside]
        vel = points.velocity[inside]
        rcs = points.rcs[inside]

        flat = rows * n + cols
        counts = np.bincount(flat, minlength=n * n).astype(np.float64)
        cx, cy = grid.cell_centers(rows, cols)
        raw = np.stack([pts[:, 0] - cx, pts[:, 1] - cy, vel[:, 0], vel[:, 1],
                        rcs, np.ones(len(rcs))], axis=1)
        sums = np.zeros((n * n, 6))
        np.add.at(sums, flat, raw)
        occupied = counts > 0
        pooled = grid.data.reshape(n * n, 6)
        pooled[occupied] = sums[occupied] / counts[occupied, None]
        pooled[occupied, 5] = counts[occupied]  # count channel stays a count

        cgrid = counts.reshape(n, n)
        if cgrid.max() > 0:
            heatmap = cgrid / cgrid.max()

    return grid, np.clip(smooth_heatmap(heatmap), 0.0, 1.0)


def smooth_heatmap(heatmap: np.ndarray) -> np.ndarray:
    """Same-size 3x3 convolution with the heatmap kernel, zero outside.

    Nine shifted adds of the zero-padded map, over shifts (dy, dx) from
    (2, 2) down to (0, 0): scipy.signal.convolve2d(mode="same",
    boundary="fill") sums in that order, so the two agree bit for bit.
    """
    h, w = heatmap.shape
    padded = np.pad(heatmap, 1)
    out = np.zeros((h, w))
    for dy in (2, 1, 0):
        for dx in (2, 1, 0):
            out += _HEATMAP_KERNEL[2 - dy, 2 - dx] * padded[dy:dy + h, dx:dx + w]
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def scene_to_dict(scene: Scene) -> dict:
    return {
        "seed": scene.seed,
        "config": asdict(scene.config),
        "objects": [
            {
                "id": o.id, "center": o.center.tolist(), "size": o.size.tolist(),
                "yaw": o.yaw, "velocity": o.velocity.tolist(),
                "class_id": o.class_id, "signature": o.signature.tolist(),
            }
            for o in scene.objects
        ],
        "rig": [
            {
                "fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy,
                "r_wc": c.r_wc.tolist(), "position": c.position.tolist(),
                "width": c.width, "height": c.height,
            }
            for c in scene.rig
        ],
    }


_OBJECT_KEYS = {"id", "center", "size", "yaw", "velocity", "class_id", "signature"}
_CAMERA_KEYS = {"fx", "fy", "cx", "cy", "r_wc", "position", "width", "height"}


def _require(ok, what: str):
    if not ok:
        raise ConfigError(f"scene file: {what}")


def _numbers(value, shape: tuple, what: str, bound: float = math.inf) -> np.ndarray:
    """A JSON number, or nested lists of numbers of `shape`, within +/-bound."""
    def fits(v, shape):
        if not shape:
            return type(v) in (int, float)
        return (type(v) is list and len(v) == shape[0]
                and all(fits(x, shape[1:]) for x in v))
    try:
        arr = np.array(value, dtype=np.float64) if fits(value, shape) else None
    except OverflowError:  # an int beyond the float range
        arr = None
    _require(arr is not None and np.isfinite(arr).all()
             and (np.abs(arr) <= bound).all(),
             f"{what} must be {'x'.join(map(str, shape)) or 'a'} finite "
             f"number(s) within +/-{bound}, got {echo(value)}")
    return arr


def _int(value, what: str, lo: int, hi: int) -> int:
    _require(type(value) is int and lo <= value < hi,
             f"{what} must be an int in [{lo}, {hi}), got {echo(value)}")
    return value


def _records(doc: dict, key: str, names: set) -> list:
    items = doc[key]
    _require(type(items) is list
             and all(type(r) is dict and set(r) == names for r in items),
             f"{key} must be a list of objects with the keys {sorted(names)}")
    return items


def _scene_object(o: dict, where: str, config: SceneConfig) -> SceneObject:
    size = _numbers(o["size"], (3,), f"{where}.size", 2.0 * config.extent)
    signature = _numbers(o["signature"], (config.feature_dim,),
                         f"{where}.signature", 1.0)
    _require((size > 0.0).all(), f"{where}.size must be positive")
    _require(abs(np.linalg.norm(signature) - 1.0) <= 1e-6,
             f"{where}.signature must have unit norm")
    return SceneObject(
        _int(o["id"], f"{where}.id", 0, 2 ** 63),
        _numbers(o["center"], (3,), f"{where}.center", config.extent), size,
        float(_numbers(o["yaw"], (), f"{where}.yaw")),
        _numbers(o["velocity"], (2,), f"{where}.velocity", MAX_SPEED),
        _int(o["class_id"], f"{where}.class_id", 0, config.num_classes), signature)


def _camera(c: dict, where: str, config: SceneConfig) -> Camera:
    width, height = c["width"], c["height"]
    _require(type(width) is int and type(height) is int
             and (width, height) == (config.image_width, config.image_height),
             f"{where}.width and height must equal scene.image_width and "
             f"image_height, got {echo(width, 20)} and {echo(height, 20)}")
    fx, fy = (float(_numbers(c[k], (), f"{where}.{k}", MAX_FOCAL))
              for k in ("fx", "fy"))
    cx, cy = (float(_numbers(c[k], (), f"{where}.{k}")) for k in ("cx", "cy"))
    r_wc = _numbers(c["r_wc"], (3, 3), f"{where}.r_wc", 1.0)
    _require(min(fx, fy) > 0.0, f"{where}.fx and fy must be positive")
    _require(0.0 <= cx <= width and 0.0 <= cy <= height,
             f"{where}.cx and cy must lie inside the image")
    _require(np.abs(r_wc @ r_wc.T - np.eye(3)).max() <= 1e-6
             and np.linalg.det(r_wc) > 0.0, f"{where}.r_wc must be a rotation")
    return Camera(fx, fy, cx, cy, r_wc,
                  _numbers(c["position"], (3,), f"{where}.position", config.extent),
                  width, height)


def scene_from_dict(doc: dict, config: SceneConfig) -> Scene:
    """The scene of a scene document; `config` is its hydrated config block.

    Every field is checked against the config, and a bad one raises
    ConfigError: shapes, finite values, objects and cameras inside the scene
    (each coordinate within +/-extent), sizes in (0, 2 * extent], velocity
    components up to MAX_SPEED, class ids below num_classes, unit-norm
    signatures of feature_dim entries, num_cameras cameras of the config's
    image size with a rotation r_wc, focal lengths in (0, MAX_FOCAL] and the
    principal point inside the image, and num_objects objects.
    """
    config.validate()
    _require({"seed", "objects", "rig"} <= set(doc),
             "a scene document holds 'seed', 'objects' and 'rig'")
    seed = _int(doc["seed"], "seed", 0, math.inf)
    records = _records(doc, "objects", _OBJECT_KEYS)
    _require(len(records) == config.num_objects, f"objects holds {len(records)}"
             f" objects, scene.num_objects is {config.num_objects}")
    objects = [_scene_object(o, f"objects[{i}]", config)
               for i, o in enumerate(records)]
    cams = [_camera(c, f"rig[{i}]", config)
            for i, c in enumerate(_records(doc, "rig", _CAMERA_KEYS))]
    _require(len(cams) == config.num_cameras,
             f"rig holds {len(cams)} cameras, scene.num_cameras is "
             f"{config.num_cameras}")
    return Scene(objects, seed, config, cams)


def save_scene(scene: Scene, path):
    """Write the scene document, with no trailing newline, through
    `jsontext.write`.

    A NaN or an infinity raises NonFiniteError and leaves path as it was.
    """
    jsontext.write(path, scene_to_dict(scene), end="")
