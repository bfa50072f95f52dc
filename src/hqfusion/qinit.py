"""Heterogeneous query initialization.

Three query sources feed the decoder: world queries laid out on concentric
rings (denser at range), image queries lifted from 2-D proposals, and radar
queries taken from the hottest cells of the radar heatmap.  All three share
one QuerySet layout (embeddings, positions, types) so they can be
concatenated into a single decoding set.  The proposals of all views are one
view-major Proposals table, ranked by one stable sort and lifted by one
backprojection per camera; only the draws of visible objects loop in Python.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numkernel import bilinear_at
from .scene import Camera, FeatureGrid, Scene, project_points

TYPE_IMG, TYPE_RAD, TYPE_W = 0, 1, 2
TYPE_NAMES = ("img", "rad", "w")

# Box prior (w, l) of every fresh query; the swap-sampling radius reads the
# predicted w/l at layer 1, before any head refinement exists.
BOX_PRIOR_WL = (2.0, 4.0)

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

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]

    def validate(self, extent: float | None = None):
        n = self.n
        if self.positions.shape != (n, 3) or self.types.shape != (n,):
            raise ConfigError(f"positions must be ({n}, 3) and types ({n},)")
        if not np.isin(self.types, (TYPE_IMG, TYPE_RAD, TYPE_W)).all():
            raise ConfigError("unknown query type label")
        if extent is not None and n > 0:
            if np.abs(self.positions[:, :2]).max() > extent + 1e-9:
                raise ConfigError("query positions exceed the scene extent")


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
    counts[np.lexsort((-radii, -remainder))[:short]] += 1
    return counts


def init_world_queries(n_world: int, extent: float, d: int, seed: int,
                       rings: int = 15) -> QuerySet:
    """World queries on concentric rings, denser at larger range.

    Ring k (1-based) sits at radius k * extent / rings and receives a share
    of queries proportional to its radius, uniformly spaced in angle with a
    per-ring phase offset.  Positions are clamped into the square extent.
    """
    if n_world < max(1, rings):
        raise ConfigError(f"n_world ({n_world}) must be >= max(1, rings={rings})")
    counts = ring_counts(n_world, rings)
    ring = np.repeat(np.arange(1, rings + 1), counts)
    index = np.arange(n_world) - np.repeat(np.cumsum(counts) - counts, counts)
    theta = 2.0 * math.pi * index / counts[ring - 1] + ring * math.pi / rings
    radius = ring * extent / rings
    x = np.clip(radius * np.cos(theta), -extent, extent)
    y = np.clip(radius * np.sin(theta), -extent, extent)
    positions = np.stack([x, y, np.zeros(n_world)], axis=1)
    rng = np.random.default_rng([seed, _STREAM_WORLD_EMB])
    emb = rng.normal(0.0, 1.0 / math.sqrt(d), size=(n_world, d))
    return QuerySet(emb, positions, np.full(n_world, TYPE_W, dtype=np.int64))


@dataclass
class Proposals:
    """The 2-D detection proposals of all views, view-major, one row each."""

    uv: np.ndarray           # (P, 2) pixel coordinates
    scores: np.ndarray       # (P,)
    depths: np.ndarray       # (P,) noisy depth estimate used for lifting
    features: np.ndarray     # (P, d) PV feature at uv
    views: np.ndarray        # (P,) camera index
    object_ids: np.ndarray   # (P,) int64 ground-truth source, -1 for distractors


def generate_2d_proposals(scene: Scene, pv_maps: list[FeatureGrid],
                          per_view: int = 50, center_noise_px: float = 2.0,
                          depth_noise: float = 1.0, seed: int = 0) -> Proposals:
    """Oracle pre-detector: per camera, proposals at noisy projected centers.

    Object proposals score 0.9 * exp(-depth / 60) plus uniform jitter in
    [0, 0.05); the remaining slots are filled with distractors scoring
    below 0.2.  Each view gets exactly per_view rows, whose PV features are
    sampled in one bilinear call per view.
    """
    centers = np.array([o.center for o in scene.objects]).reshape(-1, 3)
    ids = np.array([o.id for o in scene.objects], dtype=np.int64)
    n = len(scene.rig) * per_view
    table = np.empty((n, 4))   # u, v, score, noisy depth
    object_ids = np.full(n, -1, dtype=np.int64)
    features = np.empty((n, scene.config.feature_dim))
    for ci, cam in enumerate(scene.rig):
        rng = np.random.default_rng([seed, _STREAM_PROPOSALS, ci])
        view = slice(ci * per_view, (ci + 1) * per_view)
        uv, depths, visible = project_points(centers, cam)
        seen = np.flatnonzero(visible)
        found = np.empty((seen.size, 4))
        # one object's normal and uniform draws interleave, so this loops
        for row, k in zip(found, seen):
            depth = float(depths[k])
            u = uv[k, 0] + rng.normal(0.0, center_noise_px)
            v = uv[k, 1] + rng.normal(0.0, center_noise_px)
            score = 0.9 * math.exp(-depth / 60.0) + rng.uniform(0.0, 0.05)
            row[:] = u, v, score, max(depth + rng.normal(0.0, depth_noise), MINIMUM_DEPTH)
        found[:, :2] = np.clip(found[:, :2], 0, (cam.width - 1, cam.height - 1))
        keep = np.argsort(-found[:, 2], kind="stable")[:per_view]
        rows = table[view]
        rows[:keep.size] = found[keep]
        object_ids[view][:keep.size] = ids[seen[keep]]
        # the four rng.uniform draws of each distractor, as one array
        lo = np.array([0.0, 0.0, 0.0, 1.0])
        hi = np.array([cam.width - 1, cam.height - 1, 0.2, 60.0])
        rows[keep.size:] = lo + (hi - lo) * rng.random((per_view - keep.size, 4))
        fy, fx = pv_maps[ci].frac_coords(rows[:, 0], rows[:, 1])
        features[view] = bilinear_at(pv_maps[ci].data, fy, fx)
    views = np.repeat(np.arange(len(scene.rig)), per_view)
    return Proposals(table[:, :2], table[:, 2], table[:, 3], features, views,
                     object_ids)


def backproject(camera: Camera, u, v, depth) -> np.ndarray:
    """Invert the pinhole projection at the given depths; (m,) -> (m, 3)."""
    depth = np.asarray(depth, dtype=np.float64)
    p_cam = np.stack([(u - camera.cx) / camera.fx * depth,
                      (v - camera.cy) / camera.fy * depth, depth], axis=-1)
    return p_cam @ camera.r_wc + camera.position


def init_image_queries(proposals: Proposals, rig: list[Camera], n_img: int,
                       extent: float, d: int) -> tuple[QuerySet, int]:
    """Top-scoring proposals lifted to 3-D; returns (queries, padded count).

    Ties go to the earlier view, then to the earlier proposal of a view.
    When fewer proposals exist than n_img, zero d-dim embeddings at the
    origin pad the set, and the pad count is reported for the run log.
    """
    chosen = np.argsort(-proposals.scores, kind="stable")[:n_img]
    emb = np.zeros((n_img, d))
    pos = np.zeros((n_img, 3))
    emb[:chosen.size] = proposals.features[chosen]
    views = proposals.views[chosen]
    for ci in np.unique(views):
        rows = np.flatnonzero(views == ci)
        p = chosen[rows]
        pos[rows] = backproject(rig[ci], proposals.uv[p, 0],
                                proposals.uv[p, 1], proposals.depths[p])
    pos[:, :2] = np.clip(pos[:, :2], -extent, extent)
    image = QuerySet(emb, pos, np.full(n_img, TYPE_IMG, dtype=np.int64))
    return image, n_img - chosen.size


def init_radar_queries(heatmap: np.ndarray, radar_grid: FeatureGrid,
                       n_rad: int) -> QuerySet:
    """Top heatmap cells become radar queries (ties: row-major cell order).

    Embeddings are the cell's radar BEV feature, its channels times the
    grid's basis when it has one; positions are cell centers at z = 0.
    """
    h, w = heatmap.shape
    if n_rad > h * w:
        raise ConfigError(f"n_rad ({n_rad}) exceeds heatmap cells ({h * w})")
    order = np.argsort(-heatmap.ravel(), kind="stable")[:n_rad]
    rows, cols = np.divmod(order, w)
    x, y = radar_grid.cell_centers(rows, cols)
    positions = np.stack([x, y, np.zeros(n_rad)], axis=1)
    emb = radar_grid.data[rows, cols]
    if radar_grid.basis is not None:
        emb = emb @ radar_grid.basis
    return QuerySet(emb, positions, np.full(n_rad, TYPE_RAD, dtype=np.int64))


def concat_query_sets(world: QuerySet, image: QuerySet, radar: QuerySet) -> QuerySet:
    """Stable concatenation in (img, rad, w) block order."""
    parts = [image, radar, world]
    return QuerySet(*(np.concatenate([getattr(p, f) for p in parts])
                      for f in ("embeddings", "positions", "types")))
