"""Interactive swap sampling between related queries.

Each query predicts a base set of deformable sampling points on every BEV
grid.  Swap sampling then lets a query import high-score points from its
neighbors: neighbors are the top-affinity partners from the shared
self-attention, kept only when their BEV distance falls inside a radius
that adapts to the query's predicted footprint.  Imported points are
ranked by the neighbor's own score plus a log-affinity prior, accepted
greedily under per-neighbor and total caps, and either appended to the base
set or swapped in for its weakest base points.  Point scores are then
normalized jointly so aggregation sees a single weighting per set.

The sets of all queries on one grid live in one SampleBank of padded
(N, K) arrays; every stage works on whole banks, and `bank[i]` is a view of
query i's set.

Swap sampling applies to the BEV grids only; perspective-view sampling is
too sensitive to geometric perturbation to benefit from shared points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numkernel import _softmax_rows

IMG_BEV = "img_bev"
RAD_BEV = "rad_bev"
BEV_KINDS = (IMG_BEV, RAD_BEV)

ORIGIN_BASE = 0
ORIGIN_SHARED = 1


@dataclass
class QSwapConfig:
    radius_factor: float = 1.5     # scales the footprint-adaptive radius
    prior_strength: float = 1.0    # weight of the log-affinity term
    n_neighbors: int = 4           # top-affinity partners considered
    k_base: int = 20               # base sampling points per query per grid
    k_per: int = 2                 # max points imported from one neighbor
    k_extra: int = 4               # max imported points in total
    mode: str = "append"           # "append" grows the set, "replace" keeps k_base
    affinity_floor: float = 1e-8   # floor before the log (affinities can underflow)

    def validate(self):
        if self.mode not in ("append", "replace"):
            raise ConfigError(f"unknown swap mode {self.mode!r}")
        if self.k_per > self.k_extra:
            raise ConfigError("k_per must not exceed k_extra")
        if min(self.k_base, self.k_per, self.k_extra, self.n_neighbors) < 0:
            raise ConfigError("swap caps must be non-negative")
        if self.affinity_floor <= 0.0:
            raise ConfigError("affinity_floor must be positive")
        if self.mode == "replace" and self.k_extra > self.k_base:
            raise ConfigError("replace mode needs k_extra <= k_base")


@dataclass
class SampleSet:
    """Ordered sampling points of one query on one grid (a SampleBank row)."""

    owner: int
    grid_kind: str
    offsets: np.ndarray              # (K, 2) metric offsets from the owner position
    scores: np.ndarray               # (K,) raw logits; imported points carry s-tilde
    origins: np.ndarray              # (K,) ORIGIN_BASE / ORIGIN_SHARED
    sources: np.ndarray              # (K,) query id the point came from
    weights: np.ndarray | None = None  # set after joint normalization

    @property
    def size(self) -> int:
        return self.offsets.shape[0]

    def shared_count(self) -> int:
        return int((self.origins == ORIGIN_SHARED).sum())


@dataclass
class SampleBank:
    """Sampling points of every query on one grid, padded to K columns.

    Row i holds query i's points in its first sizes[i] columns; the padding
    columns hold zeros and carry weight 0 once weights are set.
    """

    grid_kind: str
    offsets: np.ndarray              # (N, K, 2)
    scores: np.ndarray               # (N, K)
    origins: np.ndarray              # (N, K) uint8
    sources: np.ndarray              # (N, K) int64
    sizes: np.ndarray                # (N,) int64
    weights: np.ndarray | None = None  # (N, K), set by normalize_sample_scores

    def __len__(self) -> int:
        return self.sizes.shape[0]

    def __getitem__(self, i: int) -> SampleSet:
        """Query i's set as views into the bank's arrays."""
        i = range(len(self))[i]
        k = int(self.sizes[i])
        return SampleSet(i, self.grid_kind, self.offsets[i, :k], self.scores[i, :k],
                         self.origins[i, :k], self.sources[i, :k],
                         None if self.weights is None else self.weights[i, :k])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def valid(self) -> np.ndarray:
        """(N, K) mask of the columns that hold points."""
        return np.arange(self.scores.shape[1]) < self.sizes[:, None]

    def padded(self, width: int) -> "SampleBank":
        """Copy with `width` columns; new columns are padding."""
        n, k = self.scores.shape

        def grow(a):
            out = np.zeros((n, width) + a.shape[2:], dtype=a.dtype)
            out[:, :k] = a
            return out

        return SampleBank(self.grid_kind, grow(self.offsets), grow(self.scores),
                          grow(self.origins), grow(self.sources), self.sizes.copy())


def base_bank(grid_kind: str, offsets: np.ndarray, scores: np.ndarray) -> SampleBank:
    """Bank of (N, K) predicted points per query, all of base origin."""
    n, k = scores.shape
    return SampleBank(grid_kind, np.asarray(offsets, dtype=np.float64),
                      np.asarray(scores, dtype=np.float64),
                      np.full((n, k), ORIGIN_BASE, dtype=np.uint8),
                      np.repeat(np.arange(n, dtype=np.int64)[:, None], k, axis=1),
                      np.full(n, k, dtype=np.int64))


def predict_base_samples(embedding: np.ndarray, head_w: np.ndarray,
                         head_b: np.ndarray, range_scale: float,
                         k_base: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear head: embedding -> k_base (dx, dy, score) rows per grid.

    Offsets are scaled by the per-layer metric range parameter; scores stay
    raw logits.
    """
    raw = (embedding @ head_w.T + head_b).reshape(-1, k_base, 3)
    offsets = raw[..., :2] * range_scale
    scores = raw[..., 2]
    if embedding.ndim == 1:
        return offsets[0], scores[0]
    return offsets, scores


def adaptive_radius(width: float, length: float, radius_factor: float) -> float:
    return radius_factor * math.hypot(width, length)


def select_neighbors(i: int, affinity_row: np.ndarray, boxes_wl: np.ndarray,
                     positions_bev: np.ndarray, cfg: QSwapConfig) -> np.ndarray:
    """Top-affinity partners of query i inside its adaptive radius.

    affinity_row is the head-averaged shared self-attention row for i; the
    self entry is ignored.  Ties in affinity resolve to the lower id.
    """
    a = np.asarray(affinity_row, dtype=np.float64)
    ids = np.arange(a.shape[0])
    ids = ids[ids != i]
    top = ids[np.argsort(-a[ids], kind="stable")][:cfg.n_neighbors]
    r = adaptive_radius(boxes_wl[i, 0], boxes_wl[i, 1], cfg.radius_factor)
    dist = np.linalg.norm(positions_bev[top] - positions_bev[i], axis=1)
    return top[dist <= r]


def score_shared_points(score, affinity, prior_strength: float,
                        affinity_floor: float = 1e-8):
    """Import ranking: neighbor score plus scaled log-affinity prior."""
    return score + prior_strength * np.log(np.maximum(affinity, affinity_floor))


def _rank_in_group(group: np.ndarray) -> np.ndarray:
    """Per element, how many earlier elements share its group id."""
    order = np.argsort(group, kind="stable")
    g = group[order]
    pos = np.arange(g.size)
    start = np.maximum.accumulate(np.where(np.r_[True, g[1:] != g[:-1]], pos, 0))
    rank = np.empty_like(pos)
    rank[order] = pos - start
    return rank


def swap_samples(base: SampleBank, neighbor_lists: list[np.ndarray],
                 affinities: np.ndarray, positions_bev: np.ndarray,
                 cfg: QSwapConfig) -> SampleBank:
    """Exchange sampling points between neighbors on one grid.

    The candidate pool of query i holds every point of its valid neighbors,
    ranked by descending s-tilde (ties: lower neighbor id, then lower point
    index).  Acceptance is greedy under the per-neighbor and total caps: a
    candidate is taken when fewer than k_per points of its neighbor rank
    before it and fewer than k_extra points were taken before it.  Imported
    points keep their absolute BEV position and are re-expressed as offsets
    from the receiving query.  Append mode writes them after the row's
    points; replace mode overwrites the weakest points (ties: lower index),
    so a row must hold at least as many points as it imports.
    """
    cfg.validate()
    n = len(base)
    width = max((len(nb) for nb in neighbor_lists), default=0)
    nbr = np.full((n, width), -1, dtype=np.int64)
    for i, nb in enumerate(neighbor_lists):
        nbr[i, :len(nb)] = nb

    # every candidate (receiver i, neighbor j, point k), in acceptance order
    ci, slot, ck = np.nonzero((nbr >= 0)[:, :, None] & base.valid[nbr])
    cj = nbr[ci, slot]
    st = score_shared_points(base.scores[cj, ck], affinities[ci, cj],
                             cfg.prior_strength, cfg.affinity_floor)
    order = np.lexsort((ck, cj, -st, ci))
    ci, cj, ck, st = ci[order], cj[order], ck[order], st[order]

    eligible = _rank_in_group(ci * n + cj) < cfg.k_per
    earlier = np.cumsum(eligible) - eligible  # eligible candidates before each
    before = earlier - earlier[np.searchsorted(ci, ci)]
    taken = eligible & (before < cfg.k_extra)
    ti, tj, tk, rank = ci[taken], cj[taken], ck[taken], before[taken]
    m = np.bincount(ti, minlength=n)

    if cfg.mode == "append":
        out = base.padded(base.scores.shape[1] + int(m.max(initial=0)))
        cols = base.sizes[ti] + rank
        out.sizes += m
    else:
        out = base.padded(base.scores.shape[1])
        weakest = np.argsort(np.where(base.valid, base.scores, np.inf), axis=1,
                             kind="stable")
        cols = weakest[ti, rank]
    out.offsets[ti, cols] = (positions_bev[tj] + base.offsets[tj, tk]
                             - positions_bev[ti])
    out.scores[ti, cols] = st[taken]
    out.origins[ti, cols] = ORIGIN_SHARED
    out.sources[ti, cols] = tj
    return out


def normalize_sample_scores(bank: SampleBank) -> np.ndarray:
    """Joint softmax per row over base scores and imported s-tilde values."""
    return _softmax_rows(bank.scores, ~bank.valid)
