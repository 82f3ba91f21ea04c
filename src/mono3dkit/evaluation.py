"""Benchmark protocols: matching, average precision, error metrics, ODS.

Two matching criteria are supported: exact 3D IoU over a threshold sweep
{0.05, ..., 0.50} and center distance under a fraction of the object's
half-diagonal radius, sweep {0.50, ..., 1.00}. Ignore-flagged ground truth
is neutral: detections that land on it (2D IoU >= 0.5) count as neither
true nor false positives, and it never counts as a missed object.

True-positive errors (translation, scale, orientation) are measured on the
distance-mode matching at its loosest threshold; ODS folds them into a
single score with AP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import fuse_score
from .geometry import Box2D, Box3D, iou2d, iou3d, normalize_box_rotation, yaw_of_rotation

__all__ = [
    "Detection",
    "GroundTruth",
    "EvalResult",
    "IOU_THRESHOLDS",
    "DIST_THRESHOLDS",
    "NMS_IOU",
    "SCORE_FLOOR",
    "MAX_PER_IMAGE",
    "nms",
    "match_group",
    "average_precision",
    "tp_errors",
    "ods",
    "depth_band",
    "frequency_split",
    "evaluate",
]

IOU_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 11))
DIST_THRESHOLDS = tuple(round(0.50 + 0.05 * k, 2) for k in range(0, 11))
NMS_IOU = 0.6
SCORE_FLOOR = 0.05
MAX_PER_IMAGE = 100
_IGNORE_IOU2D = 0.5
_RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class Detection:
    """One predicted 3D box with its 2D evidence and scores."""

    image_id: str
    category: str
    box3d: Box3D
    box2d: Box2D
    s2d: float
    s3d: float

    @property
    def score(self) -> float:
        return fuse_score(self.s2d, self.s3d)


@dataclass(frozen=True)
class GroundTruth:
    """One annotated object; ignore3d entries are neutral zones."""

    image_id: str
    category: str
    box2d: Box2D
    box3d: Box3D | None = None
    ignore3d: bool = False

    def __post_init__(self):
        if self.box3d is None and not self.ignore3d:
            raise ValueError("ground truth without 3D geometry must be ignore3d")


@dataclass
class EvalResult:
    """Aggregated benchmark numbers plus the operating-point match log."""

    mode: str
    per_category_ap: dict
    overall_ap: float
    ap_by_depth: dict
    ap_by_frequency: dict
    mate: float
    mase: float
    maoe: float
    ods_score: float
    match_log: list = field(default_factory=list)
    flags: tuple = ()

    def __post_init__(self):
        expected = ods(self.overall_ap, self.mate, self.mase, self.maoe)
        if abs(self.ods_score - expected) > 1e-9:
            raise ValueError("ODS inconsistent with its components")


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def _det_order(entry):
    # Deterministic ranking: score desc, then stable identity tie-breaks.
    det, idx = entry
    return (-det.score, det.image_id, det.category, idx)


def nms(
    detections,
    iou_threshold: float = NMS_IOU,
    score_floor: float = SCORE_FLOOR,
    max_per_image: int = MAX_PER_IMAGE,
):
    """Greedy per-(image, category) suppression on 2D IoU, then a score cap.

    Detections scoring below ``score_floor`` are dropped first. Within each
    (image, category) group, boxes are visited by descending fused score and
    suppressed when their 2D IoU with an already kept box strictly exceeds
    ``iou_threshold``. Finally each image keeps at most ``max_per_image``
    detections by score.
    """
    kept_by_image: dict = {}
    groups: dict = {}
    for idx, det in enumerate(detections):
        if det.score < score_floor:
            continue
        groups.setdefault((det.image_id, det.category), []).append((det, idx))
    for key in sorted(groups):
        entries = sorted(groups[key], key=_det_order)
        kept = []
        for det, idx in entries:
            if any(iou2d(det.box2d, other.box2d) > iou_threshold for other, _ in kept):
                continue
            kept.append((det, idx))
        kept_by_image.setdefault(key[0], []).extend(kept)
    out = []
    for image_id in sorted(kept_by_image):
        entries = sorted(kept_by_image[image_id], key=_det_order)
        out.extend(det for det, _ in entries[:max_per_image])
    return out


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _dist_radius(gt: GroundTruth) -> float:
    return float(np.linalg.norm(gt.box3d.dims) / 2.0)


def _criterion_table(dets, gts, mode):
    """The pair criteria of one (image, category) group, computed once.

    Returns (dets in visiting order, valid GTs, quality, qualifies, neutral):
    ``quality[i, j]`` ranks valid GT j for detection i, higher better;
    ``qualifies(t)`` masks the pairs that may match at threshold t;
    ``neutral[i]`` says detection i covers an ignore GT.
    """
    dets = [d for _, d in sorted(enumerate(dets), key=lambda e: (-e[1].score, e[0]))]
    valid = [g for g in gts if not g.ignore3d]
    shape = (len(dets), len(valid))
    pairs = [(d.box3d, g.box3d) for d in dets for g in valid]
    if mode == "iou":
        quality = np.array([iou3d(a, b) for a, b in pairs]).reshape(shape)

        def qualifies(t):
            return (quality >= t) & (quality > 0.0)
    elif mode == "dist":
        dist = np.array([float(np.linalg.norm(a.center - b.center)) for a, b in pairs]).reshape(shape)
        radius = np.array([_dist_radius(g) for g in valid])
        quality = -dist

        def qualifies(t):
            return dist < t * radius
    else:
        raise ValueError(f"unknown matching mode {mode!r}")
    neutral = [any(iou2d(d.box2d, g.box2d) >= _IGNORE_IOU2D for g in gts if g.ignore3d) for d in dets]
    return dets, valid, quality, qualifies, neutral


def _assign(table, threshold: float):
    """The greedy pass of :func:`match_group` over a criterion table."""
    dets, valid, quality, qualifies, neutral = table
    open_pairs = qualifies(threshold)
    results = []
    for i, det in enumerate(dets):
        if open_pairs[i].any():
            # Ties go to the lowest GT index: np.argmax returns the first maximum.
            j = int(np.argmax(np.where(open_pairs[i], quality[i], -np.inf)))
            open_pairs[:, j] = False
            results.append((det, "tp", valid[j]))
        else:
            results.append((det, "neutral" if neutral[i] else "fp", None))
    return results


def match_group(dets, gts, threshold: float, mode: str):
    """Greedy matching inside one (image, category) group.

    ``dets`` are visited by descending score; each takes the best unmatched
    valid ground truth under the criterion (3D IoU >= threshold for mode
    "iou"; center distance strictly below threshold * half-diagonal for
    mode "dist"). Leftover detections become neutral when they cover an
    ignore ground truth with 2D IoU >= 0.5, else false positives.

    Returns a list of (det, kind, gt_or_None) with kind in
    {"tp", "fp", "neutral"}.
    """
    return _assign(_criterion_table(dets, gts, mode), threshold)


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------


def average_precision(outcomes, n_gt: int) -> float:
    """101-point interpolated AP from (score, kind) outcomes.

    ``kind`` is "tp", "fp", or "neutral"; neutral entries are skipped in
    both precision and recall. Zero valid ground truths is the caller's
    responsibility (such categories are excluded upstream).
    """
    if n_gt <= 0:
        raise ValueError("average_precision needs at least one valid ground truth")
    ranked = sorted(outcomes, key=lambda o: (-o[0], o[2] if len(o) > 2 else 0))
    precisions = []
    recalls = []
    tp = fp = 0
    for entry in ranked:
        kind = entry[1]
        if kind == "neutral":
            continue
        if kind == "tp":
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)
    if not precisions:
        return 0.0
    precisions = np.asarray(precisions)
    recalls = np.asarray(recalls)
    # Precision envelope: best precision achieved at recall >= r.
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    ap = 0.0
    for r in _RECALL_GRID:
        mask = recalls >= r - 1e-12
        ap += float(envelope[mask][0]) if mask.any() else 0.0
    return ap / len(_RECALL_GRID)


def _ap_by_category(groups, thresholds, mode) -> dict:
    """Sweep-averaged AP of every category that has a valid ground truth.

    ``groups`` is the output of :func:`_group`. Each image's criterion
    table is built once and thresholded at every sweep value.
    """
    out = {}
    for c, images in groups.items():
        n_gt = sum(not g.ignore3d for _, _, gts in images for g in gts)
        if n_gt == 0:
            continue
        tables = [(image_id, _criterion_table(dets, gts, mode)) for image_id, dets, gts in images]
        aps = []
        for t in thresholds:
            outcomes = [
                (det.score, kind, (image_id, rank))
                for image_id, table in tables
                for rank, (det, kind, _) in enumerate(_assign(table, t))
            ]
            aps.append(average_precision(outcomes, n_gt))
        out[c] = float(np.mean(aps))
    return out


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def _scale_iou(dims_a, dims_b) -> float:
    """Volumetric IoU of co-centered axis-aligned boxes with these dims."""
    a = np.asarray(dims_a, dtype=np.float64)
    b = np.asarray(dims_b, dtype=np.float64)
    inter = float(np.prod(np.minimum(a, b)))
    union = float(np.prod(a)) + float(np.prod(b)) - inter
    return inter / union if union > 0 else 0.0


def _yaw_error(pred: Box3D, gt: Box3D, symmetric: bool) -> float:
    dp, qp = normalize_box_rotation(pred.dims, pred.quaternion)
    dg, qg = normalize_box_rotation(gt.dims, gt.quaternion)
    yp = yaw_of_rotation(Box3D(pred.center, dp, qp).rotation)
    yg = yaw_of_rotation(Box3D(gt.center, dg, qg).rotation)
    d = abs(yp - yg) % (2.0 * math.pi)
    d = min(d, 2.0 * math.pi - d)
    if symmetric:
        d = min(d, math.pi - d)
    return d


def tp_errors(matches, symmetric_categories=()):
    """Mean translation/scale/orientation errors over true positives.

    ``matches`` are (det, kind, gt) records from distance-mode matching at
    threshold 1.0. Translation error is center distance over the matching
    radius (the ground truth half-diagonal); scale error is one minus the
    volumetric overlap of co-centered axis-aligned boxes; orientation error
    is the yaw difference after rotation normalization, folded to half a
    turn for symmetric categories, divided by pi.

    Zero true positives gives worst-case (1, 1, 1) and the flag
    "no_true_positives".
    """
    symmetric = set(symmetric_categories)
    ate, ase, aoe = [], [], []
    for det, kind, gt in matches:
        if kind != "tp":
            continue
        dist = float(np.linalg.norm(det.box3d.center - gt.box3d.center))
        ate.append(dist / _dist_radius(gt))
        ase.append(1.0 - _scale_iou(det.box3d.dims, gt.box3d.dims))
        aoe.append(_yaw_error(det.box3d, gt.box3d, det.category in symmetric) / math.pi)
    if not ate:
        return 1.0, 1.0, 1.0, ("no_true_positives",)
    return float(np.mean(ate)), float(np.mean(ase)), float(np.mean(aoe)), ()


def ods(ap: float, mate: float, mase: float, maoe: float) -> float:
    """Composite detection score: (3 AP + (1-mATE) + (1-mAOE) + (1-mASE)) / 6."""
    return (3.0 * ap + (1.0 - mate) + (1.0 - maoe) + (1.0 - mase)) / 6.0


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def depth_band(z: float) -> str:
    """near below 10 m, medium 10 to 35 m inclusive, far beyond."""
    if z < 10.0:
        return "near"
    if z <= 35.0:
        return "medium"
    return "far"


def frequency_split(image_counts: dict) -> dict:
    """rare below 5 images, common 5 to 20 inclusive, frequent above 20."""
    out = {}
    for category, n in image_counts.items():
        if n < 5:
            out[category] = "rare"
        elif n <= 20:
            out[category] = "common"
        else:
            out[category] = "frequent"
    return out


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _group(dets, gts) -> dict:
    """category -> [(image id, dets, gts), ...], both keys sorted, lists in input order."""
    lists: dict = {}
    for k, items in enumerate((dets, gts)):
        for item in items:
            lists.setdefault((item.category, item.image_id), ([], []))[k].append(item)
    out: dict = {}
    for (c, image_id), (image_dets, image_gts) in sorted(lists.items()):
        out.setdefault(c, []).append((image_id, image_dets, image_gts))
    return out


def _restrict_to_band(gts, band: str):
    """Valid ground truths outside the band become neutral zones."""
    return [
        g if g.ignore3d or depth_band(float(g.box3d.center[2])) == band
        else GroundTruth(g.image_id, g.category, g.box2d, None, True)
        for g in gts
    ]


def evaluate(
    detections,
    ground_truths,
    mode: str = "iou",
    symmetric_categories=(),
    nms_iou: float = NMS_IOU,
    score_floor: float = SCORE_FLOOR,
    max_per_image: int = MAX_PER_IMAGE,
) -> EvalResult:
    """Full benchmark run: NMS, AP sweeps, splits, TP errors, ODS.

    AP is computed per category (those with at least one valid ground
    truth), averaged over the threshold sweep, then averaged over
    categories. Depth-band APs neutralize out-of-band ground truth;
    frequency APs average the per-category numbers within each rarity
    group (by the number of images containing the category). TP errors
    always come from distance matching at threshold 1.0.
    """
    if mode not in ("iou", "dist"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    thresholds = IOU_THRESHOLDS if mode == "iou" else DIST_THRESHOLDS
    dets = nms(detections, nms_iou, score_floor, max_per_image)

    groups = _group(dets, ground_truths)
    per_category = _ap_by_category(groups, thresholds, mode)
    flags = ()
    if per_category:
        overall = float(np.mean(list(per_category.values())))
    else:
        overall = 0.0
        flags += ("no_valid_ground_truth",)

    ap_by_depth = {}
    for band in ("near", "medium", "far"):
        banded = {c: [(i, d, _restrict_to_band(g, band)) for i, d, g in images] for c, images in groups.items()}
        band_aps = _ap_by_category(banded, thresholds, mode)
        if band_aps:
            ap_by_depth[band] = float(np.mean(list(band_aps.values())))

    image_counts = {c: sum(any(not g.ignore3d for g in gts) for _, _, gts in groups[c]) for c in per_category}
    split_of = frequency_split(image_counts)
    ap_by_frequency = {}
    for split in ("rare", "common", "frequent"):
        vals = [ap for c, ap in per_category.items() if split_of[c] == split]
        if vals:
            ap_by_frequency[split] = float(np.mean(vals))

    match_log = []
    for c in per_category:
        for _, image_dets, image_gts in groups[c]:
            match_log.extend(match_group(image_dets, image_gts, 1.0, "dist"))
    mate, mase, maoe, err_flags = tp_errors(match_log, symmetric_categories)
    flags += err_flags

    return EvalResult(
        mode=mode,
        per_category_ap=per_category,
        overall_ap=overall,
        ap_by_depth=ap_by_depth,
        ap_by_frequency=ap_by_frequency,
        mate=mate,
        mase=mase,
        maoe=maoe,
        ods_score=ods(overall, mate, mase, maoe),
        match_log=match_log,
        flags=flags,
    )
