"""Desk-scale detection metrics.

Center-distance matching, 101-point interpolated average precision over a
set of distance thresholds, and translation / orientation error means over
matched pairs.  This is a simplified analog of the public benchmark
protocol, not a reimplementation of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
ERROR_MATCH_THRESHOLD = 2.0  # matching radius used for ATE / AOE reporting


@dataclass
class Detection:
    center: np.ndarray   # (2,) BEV x, y in meters
    size: np.ndarray     # (3,) w, l, h
    yaw: float
    class_id: int
    confidence: float


def detections_from_arrays(class_scores: np.ndarray, centers: np.ndarray,
                           sizes: np.ndarray, yaws: np.ndarray) -> list[Detection]:
    """One detection per query: argmax class, max sigmoid score as confidence."""
    out = []
    for i in range(class_scores.shape[0]):
        cid = int(np.argmax(class_scores[i]))
        out.append(Detection(centers[i, :2].copy(), sizes[i].copy(),
                             float(yaws[i]), cid, float(class_scores[i, cid])))
    return out


def gt_detections(objects) -> list[Detection]:
    return [Detection(o.center[:2].copy(), o.size.copy(), float(o.yaw),
                      o.class_id, 1.0) for o in objects]


@dataclass
class Match:
    pred_index: int
    gt_index: int
    distance: float


def _match_class(preds: list[Detection], gts: list[Detection], cid: int,
                 threshold_m: float) -> tuple[list[int], list[Match]]:
    """Greedy matching of one class: (prediction order, matches).

    Predictions go in descending confidence (ties: lower index); each grabs
    the nearest still-unmatched ground truth within the threshold, equal
    distances going to the later ground truth.
    """
    gt_idx = [i for i, g in enumerate(gts) if g.class_id == cid]
    order = sorted((i for i, p in enumerate(preds) if p.class_id == cid),
                   key=lambda i: (-preds[i].confidence, i))
    taken = set()
    matches: list[Match] = []
    for pi in order:
        best, best_d = -1, threshold_m
        for gi in gt_idx:
            if gi in taken:
                continue
            d = float(np.hypot(*(preds[pi].center - gts[gi].center)))
            if d <= best_d:
                best, best_d = gi, d
        if best >= 0:
            taken.add(best)
            matches.append(Match(pi, best, best_d))
    return order, matches


def match_detections(preds: list[Detection], gts: list[Detection],
                     threshold_m: float) -> list[Match]:
    """Greedy per-class matching in descending confidence (see _match_class)."""
    classes = {g.class_id for g in gts} | {p.class_id for p in preds}
    return [m for cid in sorted(classes)
            for m in _match_class(preds, gts, cid, threshold_m)[1]]


def _class_ap(preds: list[Detection], gts: list[Detection], cid: int,
              threshold: float) -> float:
    """101-point interpolated AP of one class at one distance threshold."""
    n_gt = sum(1 for g in gts if g.class_id == cid)
    if n_gt == 0:
        return 0.0
    order, matches = _match_class(preds, gts, cid, threshold)
    matched = {m.pred_index for m in matches}
    tp = np.array([1.0 if pi in matched else 0.0 for pi in order])
    if len(order) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, len(order) + 1)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


def average_precision(preds: list[Detection], gts: list[Detection],
                      thresholds=DEFAULT_THRESHOLDS) -> dict:
    """Per-class, per-threshold AP plus the mean over both."""
    class_ids = sorted({g.class_id for g in gts})
    per_class = {}
    values = []
    for cid in class_ids:
        row = {}
        for th in thresholds:
            ap = _class_ap(preds, gts, cid, th)
            row[th] = ap
            values.append(ap)
        per_class[cid] = row
    map_center = float(np.mean(values)) if values else 0.0
    return {"per_class": per_class, "map_center": map_center}


def translation_orientation_errors(matches: list[Match], preds: list[Detection],
                                   gts: list[Detection]) -> tuple[float, float]:
    """(mean center distance, mean absolute yaw difference in [0, pi])."""
    if not matches:
        return math.nan, math.nan
    ate = float(np.mean([m.distance for m in matches]))
    diffs = []
    for m in matches:
        dy = abs(preds[m.pred_index].yaw - gts[m.gt_index].yaw) % (2.0 * math.pi)
        diffs.append(min(dy, 2.0 * math.pi - dy))
    return ate, float(np.mean(diffs))


def evaluate_layer(preds: list[Detection], gts: list[Detection]) -> dict:
    """The metric bundle reported per decoder layer."""
    ap = average_precision(preds, gts)
    matches = match_detections(preds, gts, ERROR_MATCH_THRESHOLD)
    ate, aoe = translation_orientation_errors(matches, preds, gts)
    return {
        "map_center": ap["map_center"],
        "ate": ate,
        "aoe": aoe,
        "num_matches": len(matches),
        "num_gt": len(gts),
    }
