"""Desk-scale detection metrics on the decoder's arrays.

One prediction per query (argmax class, its sigmoid score as confidence),
greedy center-distance matching per class, 101-point interpolated average
precision over a set of distance thresholds, and translation / orientation
error means over matched pairs.  This is a simplified analog of the public
benchmark protocol, not a reimplementation of it.
"""
from __future__ import annotations

import math

import numpy as np

DEFAULT_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
ERROR_MATCH_THRESHOLD = 2.0  # matching radius used for ATE / AOE reporting
_RECALL_LEVELS = np.linspace(0.0, 1.0, 101) - 1e-12


def greedy_match(dist: np.ndarray, threshold: float) -> np.ndarray:
    """Matched ground-truth column of each row of a (P, G) distance matrix.

    Rows are predictions in ranking order; each takes the nearest still-free
    ground truth within the threshold, equal distances going to the later
    column.  -1 marks a row without a match.
    """
    match = np.full(dist.shape[0], -1, dtype=np.int64)
    free = np.ones(dist.shape[1], dtype=bool)
    within = dist <= threshold
    for p in np.flatnonzero(within.any(axis=1)):
        cand = np.flatnonzero(within[p] & free)[::-1]
        if cand.size:
            g = cand[np.argmin(dist[p, cand])]
            match[p] = g
            free[g] = False
    return match


def interpolated_ap(tp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of ranked predictions flagged true/false positive.

    Recall never decreases, so the precision maximum over recall >= r is the
    running maximum of precision from the end, read at the first such index.
    The 101 values are added left to right.
    """
    if tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, tp.size + 1)
    best = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(cum_tp / n_gt, _RECALL_LEVELS)
    values = np.where(first < tp.size, best[np.minimum(first, tp.size - 1)], 0.0)
    return np.cumsum(values)[-1] / 101.0


def evaluate_layer(class_scores: np.ndarray, centers: np.ndarray, yaws: np.ndarray,
                   gt_centers: np.ndarray, gt_yaws: np.ndarray,
                   gt_classes: np.ndarray) -> dict:
    """The metric bundle reported per decoder layer.

    class_scores (N, C), centers (N, >=2), yaws (N,) are the head outputs;
    gt_centers (G, >=2), gt_yaws (G,), gt_classes (G,) the ground truth.
    AP is averaged over the ground-truth classes and the thresholds; ATE and
    AOE average the matches at ERROR_MATCH_THRESHOLD, class by class in
    ranking order, and are NaN without a match.
    """
    cls = np.argmax(class_scores, axis=1)
    conf = class_scores[np.arange(cls.size), cls]
    aps, dists, yaw_diffs = [], [], []
    for c in np.unique(gt_classes):
        preds = np.flatnonzero(cls == c)
        preds = preds[np.lexsort((preds, -conf[preds]))]
        gts = np.flatnonzero(gt_classes == c)
        diff = centers[preds, None, :2] - gt_centers[None, gts, :2]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        # each distinct threshold once: the error radius is also an AP one
        match = {th: greedy_match(dist, th) for th in dict.fromkeys(
            (*DEFAULT_THRESHOLDS, ERROR_MATCH_THRESHOLD))}
        aps += [interpolated_ap((match[th] >= 0) * 1.0, gts.size)
                for th in DEFAULT_THRESHOLDS]
        match = match[ERROR_MATCH_THRESHOLD]
        hit = np.flatnonzero(match >= 0)
        dists.append(dist[hit, match[hit]])
        yaw_diffs.append(yaws[preds[hit]] - gt_yaws[gts[match[hit]]])
    dists = np.concatenate(dists) if dists else np.zeros(0)
    if dists.size:
        dy = np.abs(np.concatenate(yaw_diffs)) % (2.0 * math.pi)
        ate = float(np.mean(dists))
        aoe = float(np.mean(np.minimum(dy, 2.0 * math.pi - dy)))
    else:
        ate = aoe = math.nan
    return {
        "map_center": float(np.mean(aps)) if aps else 0.0,
        "ate": ate,
        "aoe": aoe,
        "num_matches": int(dists.size),
        "num_gt": len(gt_classes),
    }
