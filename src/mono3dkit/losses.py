"""Reference loss functions with values, term breakdowns, and gradients.

Every loss returns a :class:`LossReport` whose ``value`` equals
``sum(weights[k] * terms[k])`` and whose ``gradient`` is the exact
derivative of ``value`` with respect to the loss's differentiable inputs
(an array matching the primary input, or a dict of arrays when there are
several). Soft targets are treated as constants in gradients. These are
verification references, not training code: plain numpy, no autograd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, ray_field

__all__ = [
    "LossReport",
    "l3d_regression",
    "conf_loss",
    "conf_target",
    "silog_loss",
    "depth_l1_loss",
    "global_pointmap_alignment",
    "mask_bce_loss",
    "MASK_FINITE",
    "MASK_INVALID",
    "MASK_UNKNOWN",
    "loss_2d",
    "camera_ray_mse",
    "clip_and_scale_geom",
    "GEOM_TERM_WEIGHTS",
    "GEOM_TERM_CLIP",
    "GEOM_GLOBAL_SCALE",
    "scale_and_clip_o2m",
    "ALIGNMENT_GRID",
]

# Pixel states for the validity-mask loss.
MASK_FINITE = 1
MASK_INVALID = 0
MASK_UNKNOWN = -1

# Geometry-branch term weights, clip ceiling, and global scale.
GEOM_TERM_WEIGHTS = {
    "depth_l1": 1.0,
    "silog": 0.5,
    "alignment": 10.0,
    "mask": 0.1,
    "ray": 1.0,
}
GEOM_TERM_CLIP = 10.0
GEOM_GLOBAL_SCALE = 5.0

# One-to-many auxiliary head: loss scale and ceiling.
_O2M_SCALE = 2.0
_O2M_CLIP = 150.0

# Default square grid for point-map alignment and ray-field comparison.
ALIGNMENT_GRID = 48

_POS_BCE_WEIGHT = 5.0  # w+ on matched confidence/classification terms
_FOCAL_GAMMA = 2.0  # focal exponent on unmatched terms
_CONF_TARGET_EXP = 0.25  # sigma(c)^0.25 * q*^0.75 soft target


@dataclass(frozen=True)
class LossReport:
    """Loss value with named term breakdown and exact gradient.

    ``value == sum(weights[k] * terms[k])`` within 1e-9. ``gradient`` matches
    the differentiable inputs of the loss that produced the report.
    """

    value: float
    terms: dict
    weights: dict
    gradient: object = None
    flags: tuple = ()

    def __post_init__(self):
        if set(self.terms) != set(self.weights):
            raise ValueError("terms and weights must have identical keys")
        recomputed = sum(self.weights[k] * self.terms[k] for k in self.terms)
        if abs(recomputed - self.value) > 1e-9 * max(1.0, abs(self.value)):
            raise ValueError("value does not equal the weighted sum of terms")


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def _softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, x)


def _bce_with_logit(logit, target):
    """Numerically stable BCE(sigmoid(logit), target), target constant."""
    return target * _softplus(-logit) + (1.0 - target) * _softplus(logit)


# ---------------------------------------------------------------------------
# 3D regression
# ---------------------------------------------------------------------------


def l3d_regression(preds, targets, weights) -> LossReport:
    """Weighted L1 over 12-D box encodings of matched pairs.

    Args:
        preds: (N, 12) predicted encodings.
        targets: (N, 12) target encodings (constants).
        weights: (N, 12) per-component validity weights.

    Gradient is with respect to ``preds``.
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if preds.size == 0:
        return LossReport(0.0, {"l1": 0.0}, {"l1": 1.0}, gradient=np.zeros_like(preds), flags=("no_positives",))
    if preds.shape != targets.shape or preds.shape != weights.shape:
        raise ValueError("preds, targets, weights must share shape (N, 12)")
    n_pos = preds.shape[0]
    diff = preds - targets
    value = float(np.sum(weights * np.abs(diff)) / n_pos)
    grad = weights * np.sign(diff) / n_pos
    return LossReport(value, {"l1": value}, {"l1": 1.0}, gradient=grad)


# ---------------------------------------------------------------------------
# 3D confidence
# ---------------------------------------------------------------------------


def conf_target(logits, qstars) -> np.ndarray:
    """Detached soft target sigmoid(logit)^0.25 * qstar^0.75."""
    p = _sigmoid(logits)
    return np.power(p, _CONF_TARGET_EXP) * np.power(np.asarray(qstars, dtype=np.float64), 1.0 - _CONF_TARGET_EXP)


def conf_loss(logits_matched, qstars, logits_unmatched, targets=None) -> LossReport:
    """Confidence loss with soft targets on matches, focal penalty elsewhere.

    Matched logits c are pulled toward the detached target
    t = sigmoid(c)^0.25 * qstar^0.75 with weight 5; unmatched logits pay
    sigmoid(c)^2 * BCE(sigmoid(c), 0), averaged separately.

    The target is a constant in the gradient. By default it is computed at
    the current logits; ``targets`` overrides it (used by gradient checks,
    which must hold the detached target fixed while perturbing logits).

    Gradient is a dict with keys "logits_matched" and "logits_unmatched".
    """
    cm = np.asarray(logits_matched, dtype=np.float64)
    q = np.asarray(qstars, dtype=np.float64)
    cu = np.asarray(logits_unmatched, dtype=np.float64)
    flags = []

    if cm.size:
        if cm.shape != q.shape:
            raise ValueError("logits_matched and qstars must share shape")
        p = _sigmoid(cm)
        t = conf_target(cm, q) if targets is None else np.asarray(targets, dtype=np.float64)
        if t.shape != cm.shape:
            raise ValueError("targets must match logits_matched in shape")
        pos = float(np.mean(_bce_with_logit(cm, t)))
        grad_m = (p - t) / cm.size
    else:
        pos = 0.0
        grad_m = np.zeros_like(cm)
        flags.append("no_positives")

    if cu.size:
        pu = _sigmoid(cu)
        neg_terms = np.power(pu, _FOCAL_GAMMA) * _softplus(cu)  # BCE(p, 0) = softplus(logit)
        neg = float(np.mean(neg_terms))
        # d/dc [p^2 * (-log(1-p))] = 2 p^2 (1-p) (-log(1-p)) + p^3
        grad_u = (2.0 * pu**2 * (1.0 - pu) * _softplus(cu) + pu**3) / cu.size
    else:
        neg = 0.0
        grad_u = np.zeros_like(cu)
        flags.append("no_negatives")

    value = _POS_BCE_WEIGHT * pos + neg
    return LossReport(
        value,
        {"positive": pos, "negative": neg},
        {"positive": _POS_BCE_WEIGHT, "negative": 1.0},
        gradient={"logits_matched": _POS_BCE_WEIGHT * grad_m, "logits_unmatched": grad_u},
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Depth losses
# ---------------------------------------------------------------------------


def _depth_valid(pred, gt, valid):
    """Valid pixels: caller mask, positive gt, and ratio within [1/3, 3]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gt > 0, pred / np.where(gt > 0, gt, 1.0), 0.0)
    return valid & (gt > 0) & (pred > 0) & (ratio >= 1.0 / 3.0) & (ratio <= 3.0)


def silog_loss(pred_depth, gt_depth, valid) -> LossReport:
    """Scale-invariant log-depth error sqrt(Var(g) + 0.15 * Mean(g)^2).

    g = log(pred) - log(gt) over pixels that are valid, have positive gt,
    and whose depth ratio lies in [1/3, 3]. Gradient is with respect to
    ``pred_depth`` (zero outside the valid set).
    """
    pred = np.asarray(pred_depth, dtype=np.float64)
    gt = np.asarray(gt_depth, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    mask = _depth_valid(pred, gt, valid)
    grad = np.zeros_like(pred)
    if not mask.any():
        return LossReport(0.0, {"silog": 0.0}, {"silog": 1.0}, gradient=grad, flags=("no_valid_pixels",))
    g = np.log(pred[mask]) - np.log(gt[mask])
    n = g.size
    mean = g.mean()
    # Var(g) + 0.15 Mean(g)^2 = Mean(g^2) - 0.85 Mean(g)^2
    val_sq = float(np.mean(g**2) - 0.85 * mean**2)
    value = float(np.sqrt(max(val_sq, 0.0)))
    if value > 1e-12:
        grad[mask] = (g - 0.85 * mean) / (n * value * pred[mask])
    return LossReport(value, {"silog": value}, {"silog": 1.0}, gradient=grad)


def depth_l1_loss(pred_depth, gt_depth, valid) -> LossReport:
    """Mean absolute depth error over the valid set (same rules as SILog)."""
    pred = np.asarray(pred_depth, dtype=np.float64)
    gt = np.asarray(gt_depth, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    mask = _depth_valid(pred, gt, valid)
    grad = np.zeros_like(pred)
    if not mask.any():
        return LossReport(0.0, {"l1": 0.0}, {"l1": 1.0}, gradient=grad, flags=("no_valid_pixels",))
    diff = pred[mask] - gt[mask]
    value = float(np.mean(np.abs(diff)))
    grad[mask] = np.sign(diff) / diff.size
    return LossReport(value, {"l1": value}, {"l1": 1.0}, gradient=grad)


# ---------------------------------------------------------------------------
# Global point-map alignment
# ---------------------------------------------------------------------------


def global_pointmap_alignment(pred_points, gt_points, valid) -> LossReport:
    """Mean residual after the best shared-scale + per-axis-shift map.

    Fits (a, b) minimizing sum ||a * p + b - g||^2 over valid points in
    closed form, then reports the mean Euclidean residual. The gradient with
    respect to ``pred_points`` differentiates through the fitted parameters.
    Fewer than 4 valid points: 0 with a flag.
    """
    pred = np.asarray(pred_points, dtype=np.float64)
    gt = np.asarray(gt_points, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if pred.shape != gt.shape or pred.shape[-1] != 3:
        raise ValueError("point maps must share shape (..., 3)")
    grad = np.zeros_like(pred)
    p = pred[valid]
    g = gt[valid]
    if p.shape[0] < 4:
        return LossReport(0.0, {"residual": 0.0}, {"residual": 1.0}, gradient=grad, flags=("underdetermined",))
    n = p.shape[0]
    p_mean = p.mean(axis=0)
    g_mean = g.mean(axis=0)
    pc = p - p_mean
    gc = g - g_mean
    s_pg = float(np.sum(pc * gc))
    s_pp = float(np.sum(pc * pc))
    if s_pp < 1e-18:
        return LossReport(0.0, {"residual": 0.0}, {"residual": 1.0}, gradient=grad, flags=("degenerate_points",))
    a = s_pg / s_pp
    r = a * pc - gc  # residuals; the shift b = g_mean - a * p_mean cancels
    norms = np.linalg.norm(r, axis=1)
    value = float(np.mean(norms))

    # Gradient: dL/dp_j = (1/n) [ (sum_i rhat_i . pc_i) da/dp_j
    #                             + a (rhat_j - mean(rhat)) ]
    # with da/dp_j = (gc_j - 2 a pc_j) / s_pp.
    safe = np.where(norms > 1e-12, norms, 1.0)
    rhat = r / safe[:, None]
    rhat[norms <= 1e-12] = 0.0
    coeff = float(np.sum(rhat * pc))  # sum_i rhat_i . pc_i
    da = (gc - 2.0 * a * pc) / s_pp
    grad_valid = (coeff * da + a * (rhat - rhat.mean(axis=0))) / n
    grad[valid] = grad_valid
    return LossReport(value, {"residual": value}, {"residual": 1.0}, gradient=grad)


# ---------------------------------------------------------------------------
# Validity-mask loss
# ---------------------------------------------------------------------------


def mask_bce_loss(pred_conf, gt_state) -> LossReport:
    """BCE on the depth-validity mask, weight 0.1.

    Targets: 1 where ``gt_state`` is MASK_FINITE, 0 where MASK_INVALID;
    MASK_UNKNOWN pixels are excluded. ``pred_conf`` holds probabilities in
    (0, 1). Gradient is with respect to ``pred_conf``.
    """
    pred = np.asarray(pred_conf, dtype=np.float64)
    state = np.asarray(gt_state)
    if pred.shape != state.shape:
        raise ValueError("pred_conf and gt_state must share shape")
    counted = state != MASK_UNKNOWN
    grad = np.zeros_like(pred)
    if not counted.any():
        return LossReport(0.0, {"bce": 0.0}, {"bce": 0.1}, gradient=grad, flags=("no_labeled_pixels",))
    p = pred[counted]
    if np.any(p <= 0) or np.any(p >= 1):
        raise ValueError("pred_conf must lie strictly inside (0, 1)")
    t = (state[counted] == MASK_FINITE).astype(np.float64)
    bce = float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))
    grad[counted] = 0.1 * (-t / p + (1.0 - t) / (1.0 - p)) / p.size
    return LossReport(0.1 * bce, {"bce": bce}, {"bce": 0.1}, gradient=grad)


# ---------------------------------------------------------------------------
# 2D detection loss
# ---------------------------------------------------------------------------


def _giou2d_grad(pred: np.ndarray, tgt: np.ndarray):
    """GIoU of two corner-form boxes, d(GIoU)/d(pred), and their plain IoU."""
    ax1, ay1, ax2, ay2 = pred
    bx1, by1, bx2, by2 = tgt
    # Intersection extents with selection gradients.
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    diw = np.array([-1.0 if ax1 > bx1 else 0.0, 0.0, 1.0 if ax2 < bx2 else 0.0, 0.0])
    dih = np.array([0.0, -1.0 if ay1 > by1 else 0.0, 0.0, 1.0 if ay2 < by2 else 0.0])
    if iw > 0 and ih > 0:
        inter = iw * ih
        dinter = ih * diw + iw * dih
    else:
        inter = 0.0
        dinter = np.zeros(4)
    area_p = (ax2 - ax1) * (ay2 - ay1)
    darea = np.array([-(ay2 - ay1), -(ax2 - ax1), (ay2 - ay1), (ax2 - ax1)])
    area_t = (bx2 - bx1) * (by2 - by1)
    union = area_p + area_t - inter
    dunion = darea - dinter
    hw = max(ax2, bx2) - min(ax1, bx1)
    hh = max(ay2, by2) - min(ay1, by1)
    dhw = np.array([-1.0 if ax1 < bx1 else 0.0, 0.0, 1.0 if ax2 > bx2 else 0.0, 0.0])
    dhh = np.array([0.0, -1.0 if ay1 < by1 else 0.0, 0.0, 1.0 if ay2 > by2 else 0.0])
    hull = hw * hh
    dhull = hh * dhw + hw * dhh
    iou = inter / union
    diou = (dinter * union - inter * dunion) / union**2
    # GIoU = IoU - (hull - union)/hull = IoU - 1 + union/hull
    giou = iou - 1.0 + union / hull
    dgiou = diou + (dunion * hull - union * dhull) / hull**2
    return giou, dgiou, iou


def loss_2d(
    pred_boxes,
    pred_logits,
    target_boxes,
    matches,
    image_size,
    presence_logit=None,
    presence_target=None,
    cls_targets=None,
) -> LossReport:
    """2D detection loss: IoU-aware classification, box regression, presence.

    Args:
        pred_boxes: (N, 4) corner-form pixel boxes.
        pred_logits: (N,) classification logits.
        target_boxes: (M, 4) corner-form pixel boxes (constants).
        matches: sequence of (pred_index, target_index) pairs; unmatched
            predictions enter the focal negative term.
        image_size: (width, height) used to normalize regression targets.
        presence_logit, presence_target: optional scalar presence logit and
            binary target for the queried category.

    Terms: classification (:func:`conf_loss` with each match's IoU as its
    quality: soft target sigmoid^0.25 * IoU^0.75, positives weighted 5,
    unmatched focal gamma=2; term weight 20), l1 (normalized
    cxcywh, weight 5), giou (weight 2), presence (plain BCE, weight 20).
    Gradient keys: "boxes", "logits", and "presence" when supplied.

    The soft classification target is detached: by default it is computed
    at the current prediction, and ``cls_targets`` (one value per match)
    overrides it so gradient checks can hold it fixed.
    """
    pb = np.asarray(pred_boxes, dtype=np.float64).reshape(-1, 4)
    pl = np.asarray(pred_logits, dtype=np.float64).reshape(-1)
    tb = np.asarray(target_boxes, dtype=np.float64).reshape(-1, 4)
    if pb.shape[0] != pl.shape[0]:
        raise ValueError("pred_boxes and pred_logits must agree in length")
    width, height = float(image_size[0]), float(image_size[1])
    matches = [(int(i), int(j)) for i, j in matches]
    matched_pred = {i for i, _ in matches}
    unmatched = [i for i in range(pb.shape[0]) if i not in matched_pred]
    n_pos = max(len(matches), 1)
    flags = []
    if not matches:
        flags.append("no_positives")

    grad_boxes = np.zeros_like(pb)
    l1_term = 0.0
    giou_term = 0.0
    ious = np.zeros(len(matches))
    scale = np.array([width, height, width, height])

    for k, (i, j) in enumerate(matches):
        giou, dgiou, ious[k] = _giou2d_grad(pb[i], tb[j])

        # Normalized cxcywh L1: sum of |delta| over the four components.
        px = pb[i] / scale
        tx = tb[j] / scale
        pc = np.array([(px[0] + px[2]) / 2, (px[1] + px[3]) / 2, px[2] - px[0], px[3] - px[1]])
        tc = np.array([(tx[0] + tx[2]) / 2, (tx[1] + tx[3]) / 2, tx[2] - tx[0], tx[3] - tx[1]])
        sign = np.sign(pc - tc)
        l1_term += float(np.sum(np.abs(pc - tc))) / n_pos
        # d cxcywh / d corners, including the 1/size normalization.
        dl1 = np.array(
            [
                (0.5 * sign[0] - sign[2]) / width,
                (0.5 * sign[1] - sign[3]) / height,
                (0.5 * sign[0] + sign[2]) / width,
                (0.5 * sign[1] + sign[3]) / height,
            ]
        )
        grad_boxes[i] += 5.0 * dl1 / n_pos

        giou_term += (1.0 - giou) / n_pos
        grad_boxes[i] += 2.0 * (-dgiou) / n_pos

    matched_idx = np.array([i for i, _ in matches], dtype=np.intp)
    cls = conf_loss(pl[matched_idx], ious, pl[unmatched], targets=cls_targets)
    grad_logits = np.zeros_like(pl)
    # One prediction may match several targets, so its gradients add up.
    np.add.at(grad_logits, matched_idx, 20.0 * cls.gradient["logits_matched"])
    grad_logits[unmatched] = 20.0 * cls.gradient["logits_unmatched"]

    terms = {"classification": cls.value, "l1": l1_term, "giou": giou_term}
    weights = {"classification": 20.0, "l1": 5.0, "giou": 2.0}
    gradient = {"boxes": grad_boxes, "logits": grad_logits}

    if presence_logit is not None:
        if presence_target is None:
            raise ValueError("presence_target required with presence_logit")
        pres = float(_bce_with_logit(float(presence_logit), float(presence_target)))
        terms["presence"] = pres
        weights["presence"] = 20.0
        gradient["presence"] = np.array(20.0 * (float(_sigmoid(presence_logit)) - float(presence_target)))

    value = sum(weights[k] * terms[k] for k in terms)
    return LossReport(float(value), terms, weights, gradient=gradient, flags=tuple(flags))


# ---------------------------------------------------------------------------
# Camera ray loss
# ---------------------------------------------------------------------------


def camera_ray_mse(pred_camera: CameraModel, gt_camera: CameraModel, resolution=(ALIGNMENT_GRID, ALIGNMENT_GRID)) -> LossReport:
    """Mean squared difference of ray fields on a shared grid.

    Both cameras must describe the same image size. The value is the mean
    over all grid entries and the 3 components; the gradient is with respect
    to the predicted intrinsics, ordered (fx, fy, cx, cy).
    """
    if (pred_camera.width, pred_camera.height) != (gt_camera.width, gt_camera.height):
        raise ValueError("cameras must share image size")
    pred = ray_field(pred_camera, resolution)
    diff = pred - ray_field(gt_camera, resolution)
    value = float(np.mean(diff**2))

    # Unnormalized ray d = ((u-cx)/fx, (v-cy)/fy, 1); r = d/|d|;
    # dr/dd = (I - r r^T)/|d|. Since d_z = 1, r_z = 1/|d| and d = r / r_z.
    rz = pred[..., 2]
    dx = pred[..., 0] / rz
    dy = pred[..., 1] / rz
    # Common factor of MSE derivative: (2/(3*rows*cols)) * diff.
    w = diff * (2.0 / diff.size)
    # Back through the normalization: g_d = (w - (w.r) r) / |d| = (w - (w.r) r) r_z
    wr = np.sum(w * pred, axis=-1, keepdims=True)
    g_d = (w - wr * pred) * rz[..., None]
    # d d/d params
    g_fx = float(np.sum(g_d[..., 0] * (-dx / pred_camera.fx)))
    g_fy = float(np.sum(g_d[..., 1] * (-dy / pred_camera.fy)))
    g_cx = float(np.sum(g_d[..., 0] * (-1.0 / pred_camera.fx)))
    g_cy = float(np.sum(g_d[..., 1] * (-1.0 / pred_camera.fy)))
    grad = np.array([g_fx, g_fy, g_cx, g_cy])
    return LossReport(value, {"ray_mse": value}, {"ray_mse": 1.0}, gradient=grad)


# ---------------------------------------------------------------------------
# Aggregation helpers
# ---------------------------------------------------------------------------


def clip_and_scale_geom(terms: dict) -> float:
    """Geometry-branch total: clip each named term at 10, weight, sum, x5.

    ``terms`` maps names from :data:`GEOM_TERM_WEIGHTS` to raw scalar values.
    Unknown names raise.
    """
    total = 0.0
    for name, raw in terms.items():
        if name not in GEOM_TERM_WEIGHTS:
            raise KeyError(f"unknown geometry loss term: {name!r}")
        total += min(float(raw), GEOM_TERM_CLIP) * GEOM_TERM_WEIGHTS[name]
    return GEOM_GLOBAL_SCALE * total


def _scale_gradient(gradient, factor: float):
    if gradient is None:
        return None
    if isinstance(gradient, dict):
        return {k: np.asarray(v) * factor for k, v in gradient.items()}
    return np.asarray(gradient) * factor


def scale_and_clip_o2m(report: LossReport) -> LossReport:
    """One-to-many wrapper: double the loss, ceiling at 150.

    When the ceiling binds, the gradient is zero and the report is flagged.
    """
    scaled = _O2M_SCALE * report.value
    if scaled >= _O2M_CLIP:
        return LossReport(
            _O2M_CLIP,
            {"o2m": _O2M_CLIP},
            {"o2m": 1.0},
            gradient=_scale_gradient(report.gradient, 0.0),
            flags=report.flags + ("clipped",),
        )
    return LossReport(
        scaled,
        {"o2m": scaled},
        {"o2m": 1.0},
        gradient=_scale_gradient(report.gradient, _O2M_SCALE),
        flags=report.flags,
    )
