"""Matching, average precision, error metrics, and the composite score."""

import collections
import math

import numpy as np
import pytest

from mono3dkit import (
    Box2D,
    Box3D,
    Detection,
    EvalResult,
    GroundTruth,
    average_precision,
    depth_band,
    evaluate,
    frequency_split,
    match_group,
    nms,
    ods,
    tp_errors,
)
from mono3dkit import evaluation
from mono3dkit.evaluation import DIST_THRESHOLDS, IOU_THRESHOLDS
from mono3dkit.geometry import iou2d, iou3d


def yaw_quat(yaw):
    return np.array([math.cos(yaw / 2.0), 0.0, math.sin(yaw / 2.0), 0.0])


def make_det(image="im0", cat="chair", center=(0, 0, 5), dims=(1, 1, 1), yaw=0.0,
             box2d=(100, 100, 200, 200), s2d=0.8, s3d=0.6):
    return Detection(
        image_id=image, category=cat,
        box3d=Box3D(list(center), list(dims), yaw_quat(yaw)),
        box2d=Box2D(*box2d), s2d=s2d, s3d=s3d,
    )


def make_gt(image="im0", cat="chair", center=(0, 0, 5), dims=(1, 1, 1), yaw=0.0,
            box2d=(100, 100, 200, 200), ignore=False):
    box3d = None if ignore else Box3D(list(center), list(dims), yaw_quat(yaw))
    return GroundTruth(image_id=image, category=cat, box2d=Box2D(*box2d),
                       box3d=box3d, ignore3d=ignore)


class TestThresholdSweeps:
    def test_iou_sweep(self):
        assert IOU_THRESHOLDS == (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)

    def test_dist_sweep(self):
        assert DIST_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)


class TestNms:
    def test_score_floor(self):
        keep = make_det(s2d=0.5, s3d=0.2)
        drop = make_det(s2d=0.02, s3d=0.02, box2d=(400, 100, 500, 200))
        out = nms([keep, drop])
        assert out == [keep]

    def test_fused_score_ranking_and_suppression(self):
        # Same 2D box: the higher fused score survives. s2d + 0.5 * s3d:
        # 0.6 + 0.25 = 0.85 beats 0.7 + 0.05 = 0.75.
        a = make_det(s2d=0.6, s3d=0.5)
        b = make_det(s2d=0.7, s3d=0.1)
        out = nms([b, a])
        assert out == [a]

    def test_iou_boundary_not_suppressed(self):
        # Overlap exactly at the threshold survives (strict ">").
        a = make_det(box2d=(0, 0, 100, 100), s2d=0.9)
        b = make_det(box2d=(0, 25, 100, 125), s2d=0.5)  # IoU = 75/125 = 0.6
        out = nms([a, b], iou_threshold=0.6)
        assert len(out) == 2

    def test_categories_do_not_suppress_each_other(self):
        a = make_det(cat="chair", s2d=0.9)
        b = make_det(cat="table", s2d=0.5)
        assert len(nms([a, b])) == 2

    def test_images_independent(self):
        a = make_det(image="im0", s2d=0.9)
        b = make_det(image="im1", s2d=0.5)
        assert len(nms([a, b])) == 2

    def test_max_per_image(self):
        dets = [
            make_det(box2d=(200 * k, 0, 200 * k + 100, 100), s2d=0.9 - 0.01 * k)
            for k in range(5)
        ]
        out = nms(dets, max_per_image=3)
        assert len(out) == 3
        assert [d.s2d for d in out] == [0.9, 0.89, 0.88]


class TestMatchGroup:
    def test_exact_match_is_tp(self):
        det = make_det()
        gt = make_gt()
        (d, kind, g), = match_group([det], [gt], 0.5, "iou")
        assert kind == "tp" and g is gt

    def test_greedy_by_score(self):
        best = make_det(s2d=0.9)
        worse = make_det(s2d=0.3)
        gt = make_gt()
        results = match_group([worse, best], [gt], 0.5, "iou")
        kinds = {id(d): kind for d, kind, _ in results}
        assert kinds[id(best)] == "tp"
        assert kinds[id(worse)] == "fp"

    def test_detection_takes_best_overlap(self):
        det = make_det(center=(0, 0, 5))
        close = make_gt(center=(0.1, 0, 5))
        far = make_gt(center=(0.6, 0, 5))
        (d, kind, g), = match_group([det], [close, far], 0.05, "iou")
        assert g is close

    def test_dist_mode_strict_radius(self):
        gt = make_gt(dims=(2, 2, 2))  # half-diagonal sqrt(3)
        r = math.sqrt(3.0)
        on_radius = make_det(center=(r, 0, 5))
        inside = make_det(center=(0.99 * r, 0, 5))
        (_, kind, _), = match_group([on_radius], [gt], 1.0, "dist")
        assert kind == "fp"
        (_, kind, _), = match_group([inside], [gt], 1.0, "dist")
        assert kind == "tp"

    def test_ignore_neutralizes_unmatched(self):
        ignore = make_gt(box2d=(100, 100, 200, 200), ignore=True)
        lander = make_det(center=(9, 9, 30), box2d=(105, 105, 205, 205))
        (_, kind, _), = match_group([lander], [ignore], 0.5, "iou")
        assert kind == "neutral"
        misser = make_det(center=(9, 9, 30), box2d=(400, 400, 500, 500))
        (_, kind, _), = match_group([misser], [ignore], 0.5, "iou")
        assert kind == "fp"

    def test_ignore_never_counts_as_tp(self):
        ignore = make_gt(ignore=True)
        det = make_det()
        (_, kind, _), = match_group([det], [ignore], 0.05, "iou")
        assert kind == "neutral"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            match_group([], [], 0.5, "chamfer")


def parent_match_group(dets, gts, threshold, mode):
    """match_group as it was before the criterion table: one greedy loop per
    mode, the pair criterion computed inside the loop."""
    if mode not in ("iou", "dist"):
        raise ValueError(f"unknown matching mode {mode!r}")
    valid = [g for g in gts if not g.ignore3d]
    ignore = [g for g in gts if g.ignore3d]
    taken = [False] * len(valid)
    results = []
    order = sorted(enumerate(dets), key=lambda e: (-e[1].score, e[0]))
    for _, det in order:
        best_j = -1
        if mode == "iou":
            best_val = 0.0
            for j, gt in enumerate(valid):
                if taken[j]:
                    continue
                overlap = iou3d(det.box3d, gt.box3d)
                if overlap >= threshold and overlap > best_val:
                    best_val = overlap
                    best_j = j
        else:
            best_val = math.inf
            for j, gt in enumerate(valid):
                if taken[j]:
                    continue
                dist = float(np.linalg.norm(det.box3d.center - gt.box3d.center))
                if dist < threshold * float(np.linalg.norm(gt.box3d.dims) / 2.0) and dist < best_val:
                    best_val = dist
                    best_j = j
        if best_j >= 0:
            taken[best_j] = True
            results.append((det, "tp", valid[best_j]))
            continue
        neutral = any(iou2d(det.box2d, g.box2d) >= 0.5 for g in ignore)
        results.append((det, "neutral" if neutral else "fp", None))
    return results


CENTERS = [(0, 0, 5), (0.5, 0, 5), (1.0, 0, 5), (0.25, 0, 5.25), (6, 0, 5)]
DIMS = [(1, 1, 1), (2, 1, 1), (1, 1.5, 1)]
BOXES_2D = [(100, 100, 200, 200), (105, 100, 205, 200), (400, 100, 500, 200)]


def seeded_group(seed):
    """One (image, category) group drawn from a few boxes, so exact ties in
    IoU, distance and score are common."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    gts = [
        make_gt(center=pick(CENTERS), dims=pick(DIMS), yaw=pick((0.0, 0.4)), box2d=pick(BOXES_2D),
                ignore=bool(rng.random() < 0.25))
        for _ in range(int(rng.integers(0, 6)))
    ]
    dets = [
        make_det(center=np.add(pick(CENTERS), rng.normal(0.0, 0.2, 3) * (rng.random() < 0.5)),
                 dims=pick(DIMS), yaw=pick((0.0, 0.4)), box2d=pick(BOXES_2D), s2d=pick((0.3, 0.6, 0.9)))
        for _ in range(int(rng.integers(0, 7)))
    ]
    return dets, gts


NAMED_GROUPS = {
    # Two identical GTs and two identical detections: IoUs and distances tie.
    "tied_gts": ([make_det(), make_det()], [make_gt(), make_gt()]),
    # IoU exactly 0 and 0.5, distance exactly 0 against the wide GT.
    "zero_and_half_iou": ([make_det(center=(6, 0, 5)), make_det(s2d=0.5)], [make_gt(dims=(2, 1, 1))]),
    "no_gt": ([make_det(), make_det(center=(1, 0, 5))], []),
    "no_dets": ([], [make_gt(), make_gt(ignore=True)]),
    "ignore_only": ([make_det(), make_det(box2d=(400, 100, 500, 200))], [make_gt(ignore=True)]),
}


def identities(matches, dets, gts):
    def index(seq, item):
        return next(k for k, x in enumerate(seq) if x is item)

    return [(index(dets, d), kind, None if g is None else index(gts, g)) for d, kind, g in matches]


class TestMatchGroupEqualsParent:
    """The criterion table plus one greedy loop assigns exactly as the two
    per-mode loops it replaced, ties included."""

    @pytest.mark.parametrize("mode", ["iou", "dist"])
    @pytest.mark.parametrize("group", [*NAMED_GROUPS, *(f"seed{s}" for s in range(40))])
    def test_same_assignment(self, group, mode):
        dets, gts = NAMED_GROUPS[group] if group in NAMED_GROUPS else seeded_group(int(group[4:]))
        for t in (0.0, 0.05, 0.25, 0.5, 1.0):
            got = identities(match_group(dets, gts, t, mode), dets, gts)
            assert got == identities(parent_match_group(dets, gts, t, mode), dets, gts), t

    def test_each_pair_evaluated_once_per_pass(self, monkeypatch):
        dets, gts = [], []
        for image in ("im0", "im1", "im2"):
            for j, z in enumerate((5.0, 20.0, 50.0)):  # one GT per depth band
                gts.append(make_gt(image=image, center=(0, 0, z), box2d=(200 * j, 0, 200 * j + 100, 100)))
                dets.append(make_det(image=image, center=(0.2, 0, z), box2d=(200 * j, 0, 200 * j + 100, 100)))
                dets.append(make_det(image=image, center=(0, 0, z + 0.3), box2d=(200 * j, 200, 200 * j + 100, 300)))
            gts.append(make_gt(image=image, box2d=(700, 0, 800, 100), ignore=True))
        calls = []
        ap_by_category = evaluation._ap_by_category

        def counting_iou3d(a, b):
            calls[-1][(id(a), id(b))] += 1
            return iou3d(a, b)

        def one_pass(*args):
            calls.append(collections.Counter())
            return ap_by_category(*args)

        monkeypatch.setattr(evaluation, "iou3d", counting_iou3d)
        monkeypatch.setattr(evaluation, "_ap_by_category", one_pass)
        evaluate(dets, gts, mode="iou")
        assert len(calls) == 4  # overall AP, then the near, medium and far bands
        pairs = {
            (id(d.box3d), id(g.box3d)) for d in nms(dets) for g in gts
            if d.image_id == g.image_id and not g.ignore3d
        }
        assert len(pairs) == 54 and set(calls[0]) == pairs
        assert sum(len(c) for c in calls[1:]) == len(pairs)
        assert all(n == 1 for c in calls for n in c.values())


def brute_force_ap(kinds_by_rank, n_gt):
    """Direct PR enumeration over the 101-point recall grid."""
    tp = fp = 0
    points = []
    for kind in kinds_by_rank:
        if kind == "neutral":
            continue
        if kind == "tp":
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        eligible = [p for rec, p in points if rec >= r - 1e-12]
        total += max(eligible) if eligible else 0.0
    return total / 101.0


class TestAveragePrecision:
    def test_hand_case(self):
        outcomes = [(0.9, "tp"), (0.8, "fp"), (0.7, "tp")]
        # Recall 0.5 at precision 1, recall 1.0 at precision 2/3.
        expected = (51 * 1.0 + 50 * (2.0 / 3.0)) / 101.0
        assert average_precision(outcomes, 2) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            scores = rng.permutation(n) / n + 0.5
            kinds = rng.choice(["tp", "fp", "neutral"], size=n, p=[0.4, 0.4, 0.2])
            n_gt = int(np.sum(kinds == "tp")) + int(rng.integers(1, 5))
            outcomes = list(zip(scores, kinds))
            ranked = [k for _, k in sorted(outcomes, key=lambda o: -o[0])]
            assert average_precision(outcomes, n_gt) == pytest.approx(
                brute_force_ap(ranked, n_gt), abs=1e-12
            )

    def test_neutral_entries_are_invisible(self):
        base = [(0.9, "tp"), (0.7, "fp"), (0.5, "tp")]
        padded = base + [(0.8, "neutral"), (0.6, "neutral"), (0.95, "neutral")]
        assert average_precision(padded, 3) == average_precision(base, 3)

    def test_perfect_detector(self):
        outcomes = [(0.9, "tp"), (0.8, "tp")]
        assert average_precision(outcomes, 2) == pytest.approx(1.0)

    def test_all_false_positives(self):
        assert average_precision([(0.9, "fp")], 2) == 0.0

    def test_empty(self):
        assert average_precision([], 3) == 0.0

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            average_precision([(0.9, "tp")], 0)


class TestTpErrors:
    def test_exact_matches(self):
        det = make_det()
        matches = [(det, "tp", make_gt())]
        mate, mase, maoe, flags = tp_errors(matches)
        assert (mate, mase, maoe) == (0.0, 0.0, 0.0)
        assert flags == ()

    def test_translation_normalized_by_radius(self):
        gt = make_gt(dims=(2, 2, 2))
        r = math.sqrt(3.0)
        det = make_det(center=(0.5 * r, 0, 5), dims=(2, 2, 2))
        mate, _, _, _ = tp_errors([(det, "tp", gt)])
        assert mate == pytest.approx(0.5)

    def test_scale_error(self):
        gt = make_gt(dims=(1, 1, 1))
        det = make_det(dims=(0.5, 0.5, 0.5))
        _, mase, _, _ = tp_errors([(det, "tp", gt)])
        assert mase == pytest.approx(1.0 - 0.125)

    def test_orientation_error(self):
        gt = make_gt(dims=(1, 2, 3))
        det = make_det(dims=(1, 2, 3), yaw=math.radians(45.0))
        _, _, maoe, _ = tp_errors([(det, "tp", gt)])
        assert maoe == pytest.approx(0.25)

    def test_symmetric_category_folds_half_turn(self):
        gt = make_gt(cat="table", dims=(1, 2, 3))
        det = make_det(cat="table", dims=(1, 2, 3), yaw=math.radians(170.0))
        _, _, maoe, _ = tp_errors([(det, "tp", gt)])
        assert maoe == pytest.approx(170.0 / 180.0)
        _, _, maoe, _ = tp_errors([(det, "tp", gt)], symmetric_categories=("table",))
        assert maoe == pytest.approx(10.0 / 180.0)

    def test_yaw_compared_after_normalization(self):
        # dims (2,1,1) at yaw 0 is the same physical box as (1,1,2) at 90°.
        gt = make_gt(dims=(1, 1, 2), yaw=math.pi / 2.0)
        det = make_det(dims=(2, 1, 1), yaw=0.0)
        _, _, maoe, _ = tp_errors([(det, "tp", gt)])
        assert maoe == pytest.approx(0.0, abs=1e-9)

    def test_no_true_positives(self):
        mate, mase, maoe, flags = tp_errors([(make_det(), "fp", None)])
        assert (mate, mase, maoe) == (1.0, 1.0, 1.0)
        assert "no_true_positives" in flags

    def test_mean_over_matches(self):
        gt = make_gt(dims=(2, 2, 2))
        r = math.sqrt(3.0)
        a = make_det(center=(0.2 * r, 0, 5), dims=(2, 2, 2))
        b = make_det(center=(0.6 * r, 0, 5), dims=(2, 2, 2))
        mate, _, _, _ = tp_errors([(a, "tp", gt), (b, "tp", gt), (make_det(), "fp", None)])
        assert mate == pytest.approx(0.4)


class TestOds:
    def test_formula(self):
        assert ods(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert ods(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_published_operating_points(self):
        # Three (AP, mATE, mASE, mAOE) rows with known composite scores.
        assert 100 * ods(0.086, 0.903, 0.867, 0.953) == pytest.approx(8.9, abs=0.05)
        assert 100 * ods(0.147, 0.755, 0.680, 0.580) == pytest.approx(23.8, abs=0.05)
        assert 100 * ods(0.288, 0.612, 0.706, 0.655) == pytest.approx(31.5, abs=0.05)


class TestSplits:
    def test_depth_bands(self):
        assert depth_band(9.99) == "near"
        assert depth_band(10.0) == "medium"
        assert depth_band(35.0) == "medium"
        assert depth_band(35.01) == "far"

    def test_frequency_split(self):
        out = frequency_split({"a": 4, "b": 5, "c": 20, "d": 21})
        assert out == {"a": "rare", "b": "common", "c": "common", "d": "frequent"}


class TestEvalResult:
    def test_ods_consistency_enforced(self):
        with pytest.raises(ValueError):
            EvalResult(
                mode="iou", per_category_ap={}, overall_ap=0.5,
                ap_by_depth={}, ap_by_frequency={},
                mate=0.2, mase=0.2, maoe=0.2, ods_score=0.9,
            )


class TestEvaluate:
    def perfect_setup(self):
        gts = [
            make_gt(image="im0", cat="chair", center=(0, 0, 5), box2d=(0, 0, 100, 100)),
            make_gt(image="im0", cat="table", center=(2, 0, 8), box2d=(200, 0, 350, 100)),
            make_gt(image="im1", cat="chair", center=(-1, 0, 20), box2d=(50, 50, 150, 150)),
        ]
        dets = [
            make_det(image="im0", cat="chair", center=(0, 0, 5), box2d=(0, 0, 100, 100)),
            make_det(image="im0", cat="table", center=(2, 0, 8), box2d=(200, 0, 350, 100)),
            make_det(image="im1", cat="chair", center=(-1, 0, 20), box2d=(50, 50, 150, 150)),
        ]
        return dets, gts

    def test_perfect_detections(self):
        dets, gts = self.perfect_setup()
        res = evaluate(dets, gts, mode="iou")
        assert res.overall_ap == pytest.approx(1.0)
        assert res.per_category_ap == {"chair": pytest.approx(1.0), "table": pytest.approx(1.0)}
        assert res.mate == pytest.approx(0.0)
        assert res.mase == pytest.approx(0.0)
        assert res.maoe == pytest.approx(0.0)
        assert res.ods_score == pytest.approx(1.0)

    def test_dist_mode(self):
        dets, gts = self.perfect_setup()
        res = evaluate(dets, gts, mode="dist")
        assert res.mode == "dist"
        assert res.overall_ap == pytest.approx(1.0)

    def test_depth_bands_populated(self):
        dets, gts = self.perfect_setup()
        res = evaluate(dets, gts)
        assert res.ap_by_depth["near"] == pytest.approx(1.0)
        assert res.ap_by_depth["medium"] == pytest.approx(1.0)
        assert "far" not in res.ap_by_depth

    def test_frequency_split_by_image_count(self):
        dets, gts = self.perfect_setup()
        res = evaluate(dets, gts)
        # chair in 2 images, table in 1: both rare (< 5).
        assert set(res.ap_by_frequency) == {"rare"}
        assert res.ap_by_frequency["rare"] == pytest.approx(1.0)

    def test_missed_object_halves_recall(self):
        dets, gts = self.perfect_setup()
        res = evaluate(dets[:1], [g for g in gts if g.category == "chair"])
        # One of two chairs found at full precision: AP is the 101-point
        # average of precision 1 up to recall 0.5.
        assert res.per_category_ap["chair"] == pytest.approx(51.0 / 101.0)

    def test_false_positive_category_not_scored(self):
        dets, gts = self.perfect_setup()
        extra = make_det(image="im0", cat="lamp", box2d=(400, 300, 500, 400))
        res = evaluate(dets + [extra], gts)
        assert "lamp" not in res.per_category_ap

    def test_ignore_only_additions_are_neutral(self):
        dets, gts = self.perfect_setup()
        base = evaluate(dets, gts)
        ign = [
            make_gt(image="im0", cat="chair", box2d=(400, 200, 520, 320), ignore=True),
            make_gt(image="im1", cat="chair", box2d=(300, 300, 420, 400), ignore=True),
        ]
        landers = [
            make_det(image="im0", cat="chair", center=(5, 2, 40), box2d=(402, 198, 523, 321), s2d=0.7),
            make_det(image="im1", cat="chair", center=(-4, 1, 33), box2d=(299, 302, 419, 402), s2d=0.65),
        ]
        res = evaluate(dets + landers, gts + ign)
        assert res.overall_ap == pytest.approx(base.overall_ap, abs=1e-12)
        assert res.per_category_ap["chair"] == pytest.approx(base.per_category_ap["chair"], abs=1e-12)

    def test_no_true_positive_flags(self):
        gts = [make_gt()]
        dets = [make_det(center=(50, 50, 90), box2d=(400, 400, 500, 500))]
        res = evaluate(dets, gts)
        assert "no_true_positives" in res.flags
        assert res.mate == 1.0

    def test_nms_runs_before_matching(self):
        a = make_det(s2d=0.9)
        b = make_det(s2d=0.5)  # identical 2D box: suppressed under NMS
        res = evaluate([a, b], [make_gt()])
        assert len(res.match_log) == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            evaluate([], [], mode="volume")

    def test_gt_without_geometry_must_be_ignore(self):
        with pytest.raises(ValueError):
            GroundTruth(image_id="im0", category="chair", box2d=Box2D(0, 0, 10, 10))
