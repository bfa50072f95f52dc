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
query i's set.  Banks hold absolute BEV points: base_bank adds each query's
position to its predicted offsets once, and an import is a plain copy.

Swap sampling applies to the BEV grids only; perspective-view sampling is
too sensitive to geometric perturbation to benefit from shared points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_FLOAT, MIN_POSITIVE, ConfigError, bounded, one_of
from .numkernel import softmax_rows

IMG_BEV = "img_bev"
RAD_BEV = "rad_bev"
BEV_KINDS = (IMG_BEV, RAD_BEV)

ORIGIN_BASE = 0
ORIGIN_SHARED = 1


@dataclass
class QSwapConfig:
    radius_factor: float = bounded(1.5, 0.0, MAX_FLOAT)  # scales the radius
    prior_strength: float = 1.0     # weight of the log-affinity term
    # top-affinity partners considered; base points per query and grid; the
    # most points imported from one neighbor and in total (caps only cut)
    n_neighbors: int = bounded(4, 0, math.inf)
    k_base: int = bounded(20, 1, math.inf)
    k_per: int = bounded(2, 0, math.inf)
    k_extra: int = bounded(4, 0, math.inf)
    mode: str = one_of("append", "append", "replace")  # replace keeps k_base
    # floor before the log (affinities can underflow)
    affinity_floor: float = bounded(1e-8, MIN_POSITIVE, MAX_FLOAT)

    def validate(self):
        if self.k_per > self.k_extra:
            raise ConfigError("decoder.qswap.k_per must not exceed "
                              "decoder.qswap.k_extra")
        # bounds the prior term of every affinity in [0, 1], so an s-tilde
        # of -inf marks only an empty slot in swap_samples
        if not math.isfinite(self.prior_strength * math.log(self.affinity_floor)):
            raise ConfigError(
                "decoder.qswap.prior_strength * log(decoder.qswap.affinity_floor)"
                f" must be finite, got prior_strength {self.prior_strength}")
        if self.mode == "replace" and self.k_extra > self.k_base:
            raise ConfigError("replace mode needs decoder.qswap.k_extra <= "
                              "decoder.qswap.k_base")


@dataclass
class SampleSet:
    """Ordered sampling points of one query on one grid (a SampleBank row)."""

    owner: int
    points: np.ndarray               # (K, 2) absolute BEV (x, y)
    scores: np.ndarray               # (K,) raw logits; imported points carry s-tilde
    origins: np.ndarray              # (K,) ORIGIN_BASE / ORIGIN_SHARED
    sources: np.ndarray              # (K,) query id the point came from
    weights: np.ndarray | None = None  # set after joint normalization

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def shared_count(self) -> int:
        return int((self.origins == ORIGIN_SHARED).sum())


@dataclass
class SampleBank:
    """Sampling points of every query on one grid, padded to K columns.

    Row i holds query i's points in its first sizes[i] columns; the padding
    columns hold zeros and carry weight 0 once weights are set.
    """

    points: np.ndarray               # (N, K, 2) absolute BEV (x, y)
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
        return SampleSet(i, self.points[i, :k], self.scores[i, :k],
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

        return SampleBank(grow(self.points), grow(self.scores),
                          grow(self.origins), grow(self.sources), self.sizes.copy())


def base_bank(positions: np.ndarray, offsets: np.ndarray, scores: np.ndarray
              ) -> SampleBank:
    """Base-origin bank: query i's points are positions[i, :2] + offsets[i]."""
    n, k = scores.shape
    return SampleBank(positions[:, None, :2] + offsets,
                      np.asarray(scores, dtype=np.float64),
                      np.full((n, k), ORIGIN_BASE, dtype=np.uint8),
                      np.repeat(np.arange(n, dtype=np.int64)[:, None], k, axis=1),
                      np.full(n, k, dtype=np.int64))


def predict_base_samples(embedding: np.ndarray, head_w: np.ndarray,
                         head_b: np.ndarray, range_scale: float,
                         k_base: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear head: (N, d) embeddings -> k_base (dx, dy, score) rows per query.

    Offsets are scaled by the per-layer metric range parameter; scores stay
    raw logits.
    """
    raw = (embedding @ head_w.T + head_b).reshape(-1, k_base, 3)
    offsets = raw[..., :2] * range_scale
    return offsets, raw[..., 2]


def adaptive_radius(width: float, length: float, radius_factor: float) -> float:
    return radius_factor * math.hypot(width, length)


def select_neighbors(i: int, candidates: np.ndarray, boxes_wl: np.ndarray,
                     positions_bev: np.ndarray, cfg: QSwapConfig) -> np.ndarray:
    """Positions in `candidates` of the partners inside query i's radius.

    candidates holds query i's top-affinity partner ids (see
    qmix.AttentionRows); the radius adapts to query i's predicted footprint.
    """
    r = adaptive_radius(boxes_wl[i, 0], boxes_wl[i, 1], cfg.radius_factor)
    dist = np.linalg.norm(positions_bev[candidates] - positions_bev[i], axis=1)
    return np.flatnonzero(dist <= r)


def score_shared_points(score, affinity, prior_strength: float,
                        affinity_floor: float = 1e-8):
    """Import ranking: neighbor score plus scaled log-affinity prior."""
    return score + prior_strength * np.log(np.maximum(affinity, affinity_floor))


def swap_samples(base: SampleBank, neighbors: np.ndarray,
                 affinities: np.ndarray, cfg: QSwapConfig) -> SampleBank:
    """Exchange sampling points between neighbors on one grid.

    neighbors (N, w) holds each receiver's neighbor ids in any order, -1
    for an empty slot, and affinities (N, w) the affinity of each pair.
    Acceptance is two top-k selections on s-tilde.  Each (receiver,
    neighbor) pair gives its k_per best points (ties: lower point index);
    the receiver then takes its k_extra best gifts (ties: lower neighbor
    id, then lower point index).  An imported point is a copy of the
    neighbor's point, with its absolute BEV position.  Append mode writes
    the imports after the row's points; replace mode overwrites the weakest
    points (ties: lower index), so a row must hold at least as many points
    as it imports.  An empty neighbor slot or point carries an
    s-tilde of -inf and is never taken.
    """
    cfg.validate()
    n = len(base)
    # so gifts are flattened in neighbor-id order
    order = np.argsort(neighbors, axis=1, kind="stable")
    nbr = np.take_along_axis(neighbors, order, axis=1)
    aff = np.take_along_axis(affinities, order, axis=1)

    # s-tilde of every (receiver i, neighbor slot, point k)
    st = np.where((nbr >= 0)[:, :, None] & base.valid[nbr],
                  score_shared_points(base.scores[nbr], aff[:, :, None],
                                      cfg.prior_strength, cfg.affinity_floor),
                  -np.inf)
    # each pair's gifts, then each row's k_extra best gifts in acceptance
    # order; the finite ones are taken and their position is their rank
    gifts = np.argsort(-st, axis=2, kind="stable")[:, :, :cfg.k_per]
    k_gift = gifts.shape[2]
    gift_st = np.take_along_axis(st, gifts, axis=2).reshape(
        n, nbr.shape[1] * k_gift)
    pick = np.argsort(-gift_st, axis=1, kind="stable")[:, :cfg.k_extra]
    ti, rank = np.nonzero(np.take_along_axis(gift_st, pick, axis=1) > -np.inf)
    slot, g = np.divmod(pick[ti, rank], k_gift)
    tj, tk = nbr[ti, slot], gifts[ti, slot, g]
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
    out.points[ti, cols] = base.points[tj, tk]
    out.scores[ti, cols] = st[ti, slot, tk]
    out.origins[ti, cols] = ORIGIN_SHARED
    out.sources[ti, cols] = tj
    return out


def normalize_sample_scores(bank: SampleBank) -> np.ndarray:
    """Joint softmax per row over base scores and imported s-tilde values."""
    return softmax_rows(bank.scores.copy(), ~bank.valid)
