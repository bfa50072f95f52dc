"""Heterogeneous query initialization.

Three query sources feed the decoder: world queries laid out on concentric
rings (denser at range), image queries lifted from 2-D proposals, and radar
queries taken from the hottest cells of the radar heatmap.  All three share
one QuerySet layout so they can be concatenated into a single decoding set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numkernel import bilinear_at
from .scene import Camera, CameraRig, FeatureGrid, PvFeatureMap, Scene, project_to_view

TYPE_IMG, TYPE_RAD, TYPE_W = 0, 1, 2
TYPE_NAMES = ("img", "rad", "w")

# Box prior (w, l, h, yaw) applied to every fresh query; the swap-sampling
# radius reads predicted w/l at layer 1, before any head refinement exists.
BOX_PRIOR = (2.0, 4.0, 1.5, 0.0)

_STREAM_WORLD_EMB = 1
_STREAM_PROPOSALS = 3

# Floor applied to noisy proposal depths before lifting.
MINIMUM_DEPTH = 0.5


@dataclass
class QuerySet:
    """Aligned per-query arrays; immutable by convention once built."""

    embeddings: np.ndarray   # (N, d)
    positions: np.ndarray    # (N, 3) meters
    types: np.ndarray        # (N,) in {TYPE_IMG, TYPE_RAD, TYPE_W}
    init_score: np.ndarray   # (N,) proposal/heatmap confidence, 1.0 for world
    box_state: np.ndarray    # (N, 4) w, l, h, yaw

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]

    def validate(self, extent: float | None = None):
        n = self.n
        for name in ("positions", "types", "init_score", "box_state"):
            if getattr(self, name).shape[0] != n:
                raise ConfigError(f"{name} length does not match embeddings ({n})")
        if self.positions.shape[1] != 3 or self.box_state.shape[1] != 4:
            raise ConfigError("positions must be (N,3) and box_state (N,4)")
        if not np.isin(self.types, (TYPE_IMG, TYPE_RAD, TYPE_W)).all():
            raise ConfigError("unknown query type label")
        if extent is not None and n > 0:
            if np.abs(self.positions[:, :2]).max() > extent + 1e-9:
                raise ConfigError("query positions exceed the scene extent")


def empty_query_set(d: int) -> QuerySet:
    return QuerySet(np.zeros((0, d)), np.zeros((0, 3)),
                    np.zeros(0, dtype=np.int64), np.zeros(0),
                    np.zeros((0, 4)))


def _box_prior(n: int) -> np.ndarray:
    return np.tile(np.array(BOX_PRIOR), (n, 1))


def ring_counts(n_world: int, rings: int) -> np.ndarray:
    """Queries per ring, proportional to ring radius.

    Uses largest-remainder rounding so the counts sum to n_world exactly;
    remainder ties go to the outer ring, keeping counts non-decreasing.
    """
    radii = np.arange(1, rings + 1, dtype=np.float64)
    quota = n_world * radii / radii.sum()
    counts = np.floor(quota).astype(int)
    remainder = quota - counts
    short = n_world - int(counts.sum())
    if short > 0:
        # stable argsort on (-remainder, -index): outer rings win ties
        order = sorted(range(rings), key=lambda k: (-remainder[k], -k))
        for k in order[:short]:
            counts[k] += 1
    return counts


def init_world_queries(n_world: int, extent: float, d: int, seed: int,
                       rings: int = 15, r_max: float | None = None) -> QuerySet:
    """World queries on concentric rings, denser at larger range.

    Ring k (1-based) sits at radius k * r_max / rings and receives a share
    of queries proportional to its radius, uniformly spaced in angle with a
    per-ring phase offset.  Positions are clamped into the square extent.
    """
    if n_world < 1:
        raise ConfigError("n_world must be >= 1")
    if n_world < rings:
        raise ConfigError(f"n_world ({n_world}) must be >= ring count ({rings})")
    if r_max is None:
        r_max = extent
    counts = ring_counts(n_world, rings)
    xs, ys = [], []
    for k in range(1, rings + 1):
        n_k = counts[k - 1]
        if n_k == 0:
            continue
        radius = k * r_max / rings
        phase = k * math.pi / rings
        theta = 2.0 * math.pi * np.arange(n_k) / n_k + phase
        xs.append(radius * np.cos(theta))
        ys.append(radius * np.sin(theta))
    x = np.clip(np.concatenate(xs), -extent, extent)
    y = np.clip(np.concatenate(ys), -extent, extent)
    positions = np.stack([x, y, np.zeros(n_world)], axis=1)
    rng = np.random.default_rng([seed, _STREAM_WORLD_EMB])
    emb = rng.normal(0.0, 1.0 / math.sqrt(d), size=(n_world, d))
    return QuerySet(emb, positions, np.full(n_world, TYPE_W, dtype=np.int64),
                    np.ones(n_world), _box_prior(n_world))


@dataclass
class Proposal:
    """One 2-D detection proposal in a camera view."""

    u: float
    v: float
    score: float
    depth: float           # noisy depth estimate used for lifting
    feature: np.ndarray    # (d,) PV feature at (u, v)
    view: int
    object_id: int         # ground-truth source, -1 for distractors


def _sample_pv(pv: PvFeatureMap, u: float, v: float) -> np.ndarray:
    fy, fx = pv.pixel_to_frac(u, v)
    return bilinear_at(pv.data, float(fy), float(fx))


def generate_2d_proposals(scene: Scene, rig: CameraRig, pv_maps: list[PvFeatureMap],
                          per_view: int = 50, center_noise_px: float = 2.0,
                          depth_noise: float = 1.0, seed: int = 0
                          ) -> list[list[Proposal]]:
    """Oracle pre-detector: per view, proposals at noisy projected centers.

    Object proposals score 0.9 * exp(-depth / 60) plus uniform jitter in
    [0, 0.05); the remaining slots are filled with distractors scoring
    below 0.2.  Each view returns exactly per_view proposals.
    """
    out = []
    for ci, cam in enumerate(rig.cameras):
        rng = np.random.default_rng([seed, _STREAM_PROPOSALS, ci])
        pv = pv_maps[ci]
        props: list[Proposal] = []
        for obj in scene.objects:
            hit = project_to_view(obj.center, cam)
            if hit is None:
                continue
            u0, v0, depth = hit
            u = float(np.clip(u0 + rng.normal(0.0, center_noise_px), 0, cam.width - 1))
            v = float(np.clip(v0 + rng.normal(0.0, center_noise_px), 0, cam.height - 1))
            score = 0.9 * math.exp(-depth / 60.0) + rng.uniform(0.0, 0.05)
            noisy_depth = max(depth + rng.normal(0.0, depth_noise), MINIMUM_DEPTH)
            props.append(Proposal(u, v, score, noisy_depth,
                                  _sample_pv(pv, u, v), ci, obj.id))
        props.sort(key=lambda p: -p.score)
        props = props[:per_view]
        while len(props) < per_view:
            u = rng.uniform(0.0, cam.width - 1)
            v = rng.uniform(0.0, cam.height - 1)
            props.append(Proposal(float(u), float(v), rng.uniform(0.0, 0.2),
                                  rng.uniform(1.0, 60.0), _sample_pv(pv, u, v),
                                  ci, -1))
        out.append(props)
    return out


def backproject(camera: Camera, u: float, v: float, depth: float) -> np.ndarray:
    """Invert the pinhole projection at a given depth."""
    p_cam = np.array([(u - camera.cx) / camera.fx * depth,
                      (v - camera.cy) / camera.fy * depth,
                      depth])
    return camera.r_wc.T @ p_cam + camera.position


def init_image_queries(proposals: list[list[Proposal]], rig: CameraRig,
                       n_img: int, extent: float) -> tuple[QuerySet, int]:
    """Top-scoring proposals lifted to 3-D; returns (queries, padded count).

    When fewer proposals exist than n_img, zero-score queries at the origin
    pad the set and the pad count is reported for the run log.
    """
    flat = [(p, vi, i) for vi, view in enumerate(proposals)
            for i, p in enumerate(view)]
    flat.sort(key=lambda t: (-t[0].score, t[1], t[2]))
    chosen = flat[:n_img]
    padded = n_img - len(chosen)

    d = chosen[0][0].feature.shape[0] if chosen else 1
    emb = np.zeros((n_img, d))
    pos = np.zeros((n_img, 3))
    score = np.zeros(n_img)
    for row, (p, vi, _) in enumerate(chosen):
        emb[row] = p.feature
        world = backproject(rig.cameras[vi], p.u, p.v, p.depth)
        pos[row, 0] = np.clip(world[0], -extent, extent)
        pos[row, 1] = np.clip(world[1], -extent, extent)
        pos[row, 2] = world[2]
        score[row] = p.score
    qs = QuerySet(emb, pos, np.full(n_img, TYPE_IMG, dtype=np.int64), score,
                  _box_prior(n_img))
    return qs, padded


def init_radar_queries(heatmap: np.ndarray, radar_grid: FeatureGrid,
                       n_rad: int) -> QuerySet:
    """Top heatmap cells become radar queries (ties: row-major cell order).

    Embeddings copy the cell's radar BEV feature; positions are cell centers
    at z = 0.  The heatmap carries classification confidence only, so the
    box state stays at the prior.
    """
    h, w = heatmap.shape
    if n_rad > h * w:
        raise ConfigError(f"n_rad ({n_rad}) exceeds heatmap cells ({h * w})")
    flat = heatmap.ravel()
    order = np.argsort(-flat, kind="stable")[:n_rad]
    rows, cols = np.divmod(order, w)
    x = radar_grid.x_min + (cols + 0.5) * radar_grid.voxel
    y = radar_grid.y_min + (rows + 0.5) * radar_grid.voxel
    positions = np.stack([x, y, np.zeros(n_rad)], axis=1)
    emb = radar_grid.data[rows, cols].astype(np.float64)
    return QuerySet(emb, positions, np.full(n_rad, TYPE_RAD, dtype=np.int64),
                    flat[order].astype(np.float64), _box_prior(n_rad))


def concat_query_sets(world: QuerySet, image: QuerySet, radar: QuerySet) -> QuerySet:
    """Stable concatenation in (img, rad, w) block order."""
    parts = [image, radar, world]
    return QuerySet(
        np.concatenate([p.embeddings for p in parts]),
        np.concatenate([p.positions for p in parts]),
        np.concatenate([p.types for p in parts]),
        np.concatenate([p.init_score for p in parts]),
        np.concatenate([p.box_state for p in parts]),
    )
