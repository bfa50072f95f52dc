import math

import numpy as np

from hqfusion import metrics
from hqfusion.metrics import evaluate_layer, greedy_match, interpolated_ap
from reference import (detections_from_arrays, gt_detections,
                       naive_evaluate_layer)

NUM_CLASSES = 4


def det(x, y, cls=0, conf=1.0, yaw=0.0):
    return (x, y, cls, conf, yaw)


def arrays(dets):
    """(class scores, centers, yaws, classes) of det() tuples.

    A detection's class holds its confidence and every other class a lower
    score, so the argmax class and its score are the detection's own.
    """
    n = len(dets)
    scores = np.zeros((n, NUM_CLASSES))
    centers = np.zeros((n, 3))
    yaws = np.zeros(n)
    classes = np.zeros(n, dtype=np.int64)
    for i, (x, y, cls, conf, yaw) in enumerate(dets):
        scores[i] = conf / 2.0
        scores[i, cls] = conf
        centers[i, :2] = x, y
        yaws[i], classes[i] = yaw, cls
    return scores, centers, yaws, classes


def layer(preds, gts):
    scores, centers, yaws, _ = arrays(preds)
    _, gt_centers, gt_yaws, gt_classes = arrays(gts)
    return evaluate_layer(scores, centers, yaws, gt_centers, gt_yaws, gt_classes)


def matched_pairs(preds, gts, threshold):
    """(prediction, ground truth) pairs of the per-class greedy matcher."""
    pairs = set()
    for cid in sorted({d[2] for d in preds + gts}):
        order = sorted((i for i, p in enumerate(preds) if p[2] == cid),
                       key=lambda i: (-preds[i][3], i))
        cols = [g for g, d in enumerate(gts) if d[2] == cid]
        dist = np.array([[math.hypot(preds[p][0] - gts[g][0],
                                     preds[p][1] - gts[g][1]) for g in cols]
                         for p in order]).reshape(len(order), len(cols))
        match = greedy_match(dist, threshold)
        pairs |= {(p, cols[m]) for p, m in zip(order, match) if m >= 0}
    return pairs


class TestMatching:
    def test_identical_all_matched(self):
        gts = [det(0, 0), det(5, 5, cls=1)]
        preds = [det(0, 0, conf=0.9), det(5, 5, cls=1, conf=0.8)]
        res = layer(preds, gts)
        assert res["num_matches"] == 2
        assert res["ate"] == 0.0

    def test_offset_beyond_threshold_unmatched(self):
        assert list(greedy_match(np.array([[1.0]]), 0.5)) == [-1]

    def test_each_gt_matched_once(self):
        match = greedy_match(np.array([[0.1], [0.2]]), 2.0)
        assert list(match) == [0, -1]

    def test_equal_distance_goes_to_later_gt(self):
        assert list(greedy_match(np.array([[1.0, 1.0, 3.0]]), 2.0)) == [1]

    def test_confidence_tie_lower_index_first(self):
        gts = [det(0, 0)]
        preds = [det(0.3, 0, conf=0.5), det(0.1, 0, conf=0.5)]
        res = layer(preds, gts)
        assert res["num_matches"] == 1
        assert res["ate"] == 0.3   # prediction 0, not the nearer prediction 1

    def test_matches_naive_greedy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            gts = [det(*rng.uniform(-5, 5, 2), cls=int(rng.integers(2)))
                   for _ in range(4)]
            preds = [det(*rng.uniform(-5, 5, 2), cls=int(rng.integers(2)),
                         conf=float(rng.uniform(0, 1))) for _ in range(6)]
            got = matched_pairs(preds, gts, 2.0)
            # independent loop implementation of the stated greedy rule
            want = set()
            for cid in (0, 1):
                taken = set()
                order = sorted([i for i, p in enumerate(preds) if p[2] == cid],
                               key=lambda i: (-preds[i][3], i))
                for pi in order:
                    cands = [
                        (math.hypot(preds[pi][0] - gts[gi][0],
                                    preds[pi][1] - gts[gi][1]), gi)
                        for gi in range(len(gts))
                        if gts[gi][2] == cid and gi not in taken
                    ]
                    cands = [c for c in cands if c[0] <= 2.0]
                    if cands:
                        gi = min(cands)[1]
                        taken.add(gi)
                        want.add((pi, gi))
            assert got == want


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [det(0, 0), det(6, 6)]
        preds = [det(0, 0, conf=0.9), det(6, 6, conf=0.8)]
        assert layer(preds, gts)["map_center"] == 1.0

    def test_no_detections(self):
        assert layer([], [det(0, 0)])["map_center"] == 0.0

    def test_hand_computed_three_pred_two_gt(self):
        # order by confidence: TP, FP, TP -> precision (1, .5, 2/3),
        # recall (.5, .5, 1); 101-point AP = (51*1 + 50*(2/3)) / 101
        gts = [det(0, 0), det(10, 0)]
        preds = [det(0.1, 0, conf=0.9), det(5, 5, conf=0.8),
                 det(10.2, 0, conf=0.7)]
        expected = (51 + 50 * (2.0 / 3.0)) / 101
        assert abs(interpolated_ap(np.array([1.0, 0.0, 1.0]), 2)
                   - expected) < 1e-12
        # both true positives lie within every threshold
        assert abs(layer(preds, gts)["map_center"] - expected) < 1e-12
        assert abs(expected - 0.8349834983498349) < 1e-15

    def test_range_and_monotone_tp_addition(self):
        rng = np.random.default_rng(1)
        gts = [det(*rng.uniform(-8, 8, 2)) for _ in range(5)]
        preds = [det(*rng.uniform(-8, 8, 2), conf=float(rng.uniform(0, 0.8)))
                 for _ in range(6)]
        before = layer(preds, gts)["map_center"]
        assert 0.0 <= before <= 1.0
        # a new true positive more confident than every false positive
        boosted = preds + [det(*gts[0][:2], conf=0.99)]
        after = layer(boosted, gts)["map_center"]
        assert after >= before - 1e-12
        assert 0.0 <= after <= 1.0


class TestErrors:
    def test_exact_matches_zero(self):
        gts = [det(0, 0), det(4, 4)]
        preds = [det(0, 0, conf=0.9), det(4, 4, conf=0.8)]
        res = layer(preds, gts)
        assert res["ate"] == 0.0 and res["aoe"] == 0.0

    def test_yaw_wraparound(self):
        gts = [det(0, 0, yaw=math.pi)]
        preds = [det(0, 0, yaw=-math.pi)]  # same heading modulo 2*pi
        assert abs(layer(preds, gts)["aoe"]) < 1e-12

    def test_known_means(self):
        gts = [det(0, 0, yaw=0.0), det(10, 0, yaw=1.0)]
        preds = [det(1, 0, conf=0.9, yaw=0.5), det(10, 1, conf=0.8, yaw=0.8)]
        res = layer(preds, gts)
        assert abs(res["ate"] - 1.0) < 1e-12
        assert abs(res["aoe"] - (0.5 + 0.2) / 2) < 1e-12

    def test_no_matches_nan(self):
        res = layer([], [])
        assert math.isnan(res["ate"]) and math.isnan(res["aoe"])


class TestAdapters:
    def test_detections_from_arrays(self):
        # one detection per query: query 0 is class 1 at 0.7, query 1
        # class 0 at 0.6
        scores = np.array([[0.1, 0.7], [0.6, 0.2]])
        centers = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])
        yaws = np.array([0.3, -0.4])
        res = evaluate_layer(scores, centers, yaws, centers[:, :2],
                             yaws, np.array([1, 0]))
        assert res["map_center"] == 1.0 and res["num_matches"] == 2
        # the more confident of two class-0 queries takes the one target
        scores = np.array([[0.6, 0.1], [0.7, 0.2]])
        centers[1, :2] = 1.5, 2.0
        res = evaluate_layer(scores, centers, yaws, centers[:1, :2],
                             yaws[:1], np.array([0]))
        assert res["num_matches"] == 1
        assert res["ate"] == 0.5

    def test_evaluate_layer_bundle(self):
        res = layer([det(0, 0, conf=0.9)], [det(0, 0)])
        assert res["map_center"] == 1.0
        assert res["num_matches"] == 1 and res["num_gt"] == 1
        assert res["ate"] == 0.0

    def test_each_threshold_matched_once(self, monkeypatch):
        calls = []

        def counting(dist, threshold):
            calls.append(threshold)
            return greedy_match(dist, threshold)

        monkeypatch.setattr(metrics, "greedy_match", counting)
        # two classes, each with a prediction and a ground truth
        layer([det(0, 0), det(5, 5, cls=1)], [det(0, 0), det(5, 5, cls=1)])
        distinct = {*metrics.DEFAULT_THRESHOLDS, metrics.ERROR_MATCH_THRESHOLD}
        assert sorted(calls) == sorted([*distinct] * 2)   # once per class


class TestOracle:
    def test_equals_per_object_oracle(self):
        # coordinates on a 0.5 m lattice give equal distances and distances
        # exactly at the 0.5, 1, 2 and 4 m thresholds; confidences from three
        # values give ties; classes 2 and 3 appear only among predictions
        rng = np.random.default_rng(5)
        same = lambda a, b: a == b or (math.isnan(a) and math.isnan(b))
        for trial in range(300):
            n, g = rng.integers(0, 12), rng.integers(0, 6)
            scores = rng.choice([0.2, 0.5, 0.8], size=(n, NUM_CLASSES))
            centers = rng.integers(-6, 7, size=(n, 3)) * 0.5
            yaws = rng.uniform(-math.pi, math.pi, n)
            gt_centers = rng.integers(-6, 7, size=(g, 2)) * 0.5
            gt_yaws = rng.uniform(-math.pi, math.pi, g)
            gt_classes = rng.integers(0, 2, g)
            got = evaluate_layer(scores, centers, yaws, gt_centers, gt_yaws,
                                 gt_classes)
            want = naive_evaluate_layer(
                detections_from_arrays(scores, centers, yaws),
                gt_detections(gt_centers, gt_yaws, gt_classes))
            assert got.keys() == want.keys()
            assert all(same(got[k], want[k]) for k in got), (trial, got, want)
