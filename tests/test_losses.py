"""Reference losses: value oracles and finite-difference gradient checks."""

import math

import numpy as np
import pytest

from mono3dkit import (
    CameraModel,
    LossReport,
    camera_ray_mse,
    clip_and_scale_geom,
    conf_loss,
    conf_target,
    depth_l1_loss,
    global_pointmap_alignment,
    l3d_regression,
    loss_2d,
    mask_bce_loss,
    ray_field,
    scale_and_clip_o2m,
    silog_loss,
)
from mono3dkit.losses import (
    ALIGNMENT_GRID,
    GEOM_GLOBAL_SCALE,
    GEOM_TERM_CLIP,
    GEOM_TERM_WEIGHTS,
    MASK_FINITE,
    MASK_INVALID,
    MASK_UNKNOWN,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


def bce(logit, target):
    return target * softplus(-logit) + (1.0 - target) * softplus(logit)


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function over a flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, rtol=1e-5, atol=1e-8):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.all(np.abs(analytic - numeric) <= atol + rtol * scale), (
        f"gradient mismatch:\nanalytic={analytic}\nnumeric={numeric}"
    )


class TestLossReport:
    def test_value_must_match_weighted_terms(self):
        with pytest.raises(ValueError):
            LossReport(1.0, {"a": 3.0}, {"a": 2.0})
        r = LossReport(6.0, {"a": 3.0}, {"a": 2.0})
        assert r.value == 6.0

    def test_term_and_weight_keys_must_agree(self):
        with pytest.raises(ValueError):
            LossReport(0.0, {"a": 0.0}, {"b": 1.0})


class TestL3dRegression:
    def test_hand_value(self):
        preds = np.zeros((2, 12))
        targets = np.zeros((2, 12))
        targets[0, 0] = 2.0
        targets[1, 5] = -1.0
        weights = np.ones((2, 12))
        weights[1, 5] = 0.5
        rep = l3d_regression(preds, targets, weights)
        assert rep.value == pytest.approx((2.0 + 0.5) / 2.0)

    def test_ignored_components(self):
        preds = np.full((1, 12), 3.0)
        targets = np.zeros((1, 12))
        weights = np.zeros((1, 12))
        weights[0, 2] = 1.0
        assert l3d_regression(preds, targets, weights).value == pytest.approx(3.0)

    def test_empty_is_flagged_zero(self):
        rep = l3d_regression(np.zeros((0, 12)), np.zeros((0, 12)), np.zeros((0, 12)))
        assert rep.value == 0.0
        assert "no_positives" in rep.flags

    def test_gradient(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=(3, 12))
        targets = rng.normal(size=(3, 12))
        weights = rng.uniform(0.1, 1.0, size=(3, 12))
        rep = l3d_regression(preds, targets, weights)
        num = fd_grad(lambda p: l3d_regression(p, targets, weights).value, preds)
        assert_grad_close(rep.gradient, num)


class TestConfLoss:
    def test_target_formula(self):
        t = conf_target(np.array([0.0]), np.array([1.0]))
        assert t[0] == pytest.approx(0.5**0.25)
        t = conf_target(np.array([2.0]), np.array([0.4]))
        assert t[0] == pytest.approx(sigmoid(2.0) ** 0.25 * 0.4**0.75)

    def test_matched_only_value(self):
        rep = conf_loss([0.0], [1.0], [])
        t = 0.5**0.25
        assert rep.value == pytest.approx(5.0 * bce(0.0, t))
        assert "no_negatives" in rep.flags

    def test_unmatched_only_value(self):
        rep = conf_loss([], [], [0.0])
        assert rep.value == pytest.approx(0.25 * math.log(2.0))
        assert "no_positives" in rep.flags

    def test_combined_value(self):
        logits_m = np.array([1.0, -0.5])
        q = np.array([0.9, 0.3])
        logits_u = np.array([2.0, 0.0, -3.0])
        rep = conf_loss(logits_m, q, logits_u)
        pos = np.mean([bce(c, sigmoid(c) ** 0.25 * qq**0.75) for c, qq in zip(logits_m, q)])
        neg = np.mean([sigmoid(c) ** 2 * softplus(c) for c in logits_u])
        assert rep.value == pytest.approx(5.0 * pos + neg)
        assert rep.terms["positive"] == pytest.approx(pos)
        assert rep.terms["negative"] == pytest.approx(neg)

    def test_gradients_with_detached_target(self):
        rng = np.random.default_rng(1)
        cm = rng.normal(size=4)
        q = rng.uniform(0.1, 1.0, size=4)
        cu = rng.normal(size=5)
        targets = conf_target(cm, q)
        rep = conf_loss(cm, q, cu, targets=targets)
        num_m = fd_grad(lambda c: conf_loss(c, q, cu, targets=targets).value, cm)
        num_u = fd_grad(lambda c: conf_loss(cm, q, c, targets=targets).value, cu)
        assert_grad_close(rep.gradient["logits_matched"], num_m)
        assert_grad_close(rep.gradient["logits_unmatched"], num_u)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            conf_loss([0.0, 1.0], [0.5], [])
        with pytest.raises(ValueError, match="targets"):
            conf_loss([0.0, 1.0], [0.5, 0.5], [], targets=[0.3])


class TestSilog:
    def test_constant_ratio_value(self):
        # pred = 2 * gt has zero log-variance, so only the mean term
        # survives: sqrt(0.15) * ln 2.
        gt = np.array([1.0, 2.0, 5.0, 9.0])
        rep = silog_loss(2.0 * gt, gt, np.ones(4, dtype=bool))
        assert rep.value == pytest.approx(math.sqrt(0.15) * math.log(2.0), abs=1e-12)

    def test_general_value(self):
        g = np.array([0.1, -0.3, 0.2, 0.05])
        gt = np.array([1.0, 2.0, 3.0, 4.0])
        rep = silog_loss(gt * np.exp(g), gt, np.ones(4, dtype=bool))
        expected = math.sqrt(np.var(g) + 0.15 * np.mean(g) ** 2)
        assert rep.value == pytest.approx(expected, abs=1e-12)

    def test_exclusion_rules(self):
        pred = np.array([2.0, 10.0, 1.0, 3.0])
        gt = np.array([1.0, 1.0, -1.0, 1.5])
        valid = np.array([True, True, True, False])
        # Pixel 1 has ratio 10 > 3, pixel 2 has nonpositive gt, pixel 3 is
        # masked out; only pixel 0 remains with g = ln 2.
        rep = silog_loss(pred, gt, valid)
        assert rep.value == pytest.approx(math.sqrt(0.15) * math.log(2.0))
        assert np.all(rep.gradient[1:] == 0.0)

    def test_no_valid_pixels(self):
        rep = silog_loss(np.ones(3), -np.ones(3), np.ones(3, dtype=bool))
        assert rep.value == 0.0
        assert "no_valid_pixels" in rep.flags

    def test_gradient(self):
        rng = np.random.default_rng(2)
        gt = rng.uniform(1.0, 10.0, size=(4, 5))
        pred = gt * rng.uniform(0.6, 1.8, size=(4, 5))
        valid = rng.uniform(size=(4, 5)) > 0.3
        rep = silog_loss(pred, gt, valid)
        num = fd_grad(lambda p: silog_loss(p, gt, valid).value, pred)
        assert_grad_close(rep.gradient, num)


class TestDepthL1:
    def test_value(self):
        pred = np.array([1.5, 4.0, 2.0])
        gt = np.array([1.0, 5.0, 2.0])
        rep = depth_l1_loss(pred, gt, np.ones(3, dtype=bool))
        assert rep.value == pytest.approx((0.5 + 1.0 + 0.0) / 3.0)

    def test_ratio_window_matches_silog(self):
        pred = np.array([7.0, 2.0])
        gt = np.array([1.0, 1.0])  # ratio 7 excluded
        rep = depth_l1_loss(pred, gt, np.ones(2, dtype=bool))
        assert rep.value == pytest.approx(1.0)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(1.0, 10.0, size=8)
        pred = gt * rng.uniform(0.5, 2.0, size=8)
        rep = depth_l1_loss(pred, gt, np.ones(8, dtype=bool))
        num = fd_grad(lambda p: depth_l1_loss(p, gt, np.ones(8, dtype=bool)).value, pred)
        assert_grad_close(rep.gradient, num)


def alignment_oracle(p, g):
    """Best shared scale + per-axis shift via a generic lstsq solve."""
    n = p.shape[0]
    design = np.zeros((3 * n, 4))
    design[:, 0] = p.reshape(-1)
    for k in range(3):
        design[k::3, 1 + k] = 1.0
    x, *_ = np.linalg.lstsq(design, g.reshape(-1), rcond=None)
    a, b = x[0], x[1:]
    return float(np.mean(np.linalg.norm(a * p + b - g, axis=1)))


class TestPointmapAlignment:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(50, 3))
        g = 2.5 * p + np.array([1.0, -2.0, 0.3])
        rep = global_pointmap_alignment(p, g, np.ones(50, dtype=bool))
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.normal(size=(40, 3))
            g = 1.7 * p + rng.normal(size=3) + 0.1 * rng.normal(size=(40, 3))
            rep = global_pointmap_alignment(p, g, np.ones(40, dtype=bool))
            assert rep.value == pytest.approx(alignment_oracle(p, g), abs=1e-10)

    def test_invalid_points_excluded(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(30, 3))
        g = 0.8 * p + 0.05 * rng.normal(size=(30, 3))
        valid = np.ones(30, dtype=bool)
        valid[: 10] = False
        p_bad = p.copy()
        p_bad[:10] = 1e6  # must not influence the fit
        rep = global_pointmap_alignment(p_bad, g, valid)
        assert rep.value == pytest.approx(alignment_oracle(p[10:], g[10:]), abs=1e-10)
        assert np.all(rep.gradient[:10] == 0.0)

    def test_underdetermined(self):
        p = np.zeros((3, 3))
        rep = global_pointmap_alignment(p, p, np.ones(3, dtype=bool))
        assert rep.value == 0.0
        assert "underdetermined" in rep.flags

    def test_degenerate_spread(self):
        p = np.ones((10, 3))
        g = np.random.default_rng(7).normal(size=(10, 3))
        rep = global_pointmap_alignment(p, g, np.ones(10, dtype=bool))
        assert "degenerate_points" in rep.flags

    def test_gradient(self):
        rng = np.random.default_rng(8)
        p = rng.normal(size=(12, 3))
        g = 1.3 * p + rng.normal(size=3) + 0.2 * rng.normal(size=(12, 3))
        valid = np.ones(12, dtype=bool)
        rep = global_pointmap_alignment(p, g, valid)
        num = fd_grad(lambda x: global_pointmap_alignment(x, g, valid).value, p)
        assert_grad_close(rep.gradient, num, rtol=1e-4)


class TestMaskBce:
    def test_hand_value(self):
        pred = np.array([0.8, 0.3, 0.6])
        state = np.array([MASK_FINITE, MASK_INVALID, MASK_UNKNOWN])
        rep = mask_bce_loss(pred, state)
        raw = (-math.log(0.8) - math.log(0.7)) / 2.0
        assert rep.value == pytest.approx(0.1 * raw)
        assert rep.gradient[2] == 0.0

    def test_all_unknown(self):
        rep = mask_bce_loss(np.full(4, 0.5), np.full(4, MASK_UNKNOWN))
        assert rep.value == 0.0
        assert "no_labeled_pixels" in rep.flags

    def test_rejects_saturated_probabilities(self):
        with pytest.raises(ValueError):
            mask_bce_loss(np.array([1.0]), np.array([MASK_FINITE]))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        pred = rng.uniform(0.05, 0.95, size=(3, 4))
        state = rng.choice([MASK_FINITE, MASK_INVALID, MASK_UNKNOWN], size=(3, 4))
        state[0, 0] = MASK_FINITE
        rep = mask_bce_loss(pred, state)
        num = fd_grad(lambda p: mask_bce_loss(p, state).value, pred)
        assert_grad_close(rep.gradient, num)


class TestLoss2d:
    def test_perfect_match(self):
        box = np.array([[100.0, 100.0, 200.0, 180.0]])
        rep = loss_2d(box, [2.0], box, [(0, 0)], (640, 480))
        assert rep.terms["l1"] == pytest.approx(0.0)
        assert rep.terms["giou"] == pytest.approx(0.0)
        p = sigmoid(2.0)
        t = p**0.25  # IoU = 1
        assert rep.terms["classification"] == pytest.approx(5.0 * bce(2.0, t))
        assert rep.value == pytest.approx(20.0 * 5.0 * bce(2.0, t))

    def test_l1_and_giou_terms(self):
        pred = np.array([[0.0, 0.0, 64.0, 48.0]])
        tgt = np.array([[0.0, 0.0, 128.0, 48.0]])
        rep = loss_2d(pred, [10.0], tgt, [(0, 0)], (640, 480))
        # cxcywh deltas normalized by image size: dcx = 32/640, dw = 64/640.
        assert rep.terms["l1"] == pytest.approx(32.0 / 640.0 + 64.0 / 640.0)
        # IoU = 1/2, hull = union, so GIoU = 1/2 and the term is 1 - 1/2.
        assert rep.terms["giou"] == pytest.approx(0.5)

    def test_unmatched_focal_term(self):
        box = np.array([[0.0, 0.0, 10.0, 10.0]])
        rep = loss_2d(box, [0.0], np.zeros((0, 4)), [], (100, 100))
        assert "no_positives" in rep.flags
        assert rep.terms["classification"] == pytest.approx(0.25 * math.log(2.0))
        assert rep.terms["l1"] == 0.0

    def test_presence_term(self):
        box = np.array([[0.0, 0.0, 10.0, 10.0]])
        rep = loss_2d(
            box, [0.0], box, [(0, 0)], (100, 100),
            presence_logit=1.5, presence_target=1.0,
        )
        assert rep.terms["presence"] == pytest.approx(bce(1.5, 1.0))
        assert rep.weights["presence"] == 20.0
        with pytest.raises(ValueError):
            loss_2d(box, [0.0], box, [(0, 0)], (100, 100), presence_logit=1.5)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        pred = np.array(
            [[50.0, 60.0, 150.0, 170.0], [300.0, 200.0, 380.0, 290.0], [10.0, 10.0, 40.0, 70.0]]
        ) + rng.uniform(-3.0, 3.0, size=(3, 4))
        logits = rng.normal(size=3)
        tgt = np.array([[55.0, 52.0, 160.0, 175.0], [290.0, 210.0, 390.0, 280.0]])
        matches = [(0, 0), (1, 1)]
        # Freeze the detached soft classification targets.
        base = loss_2d(pred, logits, tgt, matches, (640, 480))
        cls_t = []
        for i, j in matches:
            iw = max(0.0, min(pred[i, 2], tgt[j, 2]) - max(pred[i, 0], tgt[j, 0]))
            ih = max(0.0, min(pred[i, 3], tgt[j, 3]) - max(pred[i, 1], tgt[j, 1]))
            inter = iw * ih
            ap = (pred[i, 2] - pred[i, 0]) * (pred[i, 3] - pred[i, 1])
            at = (tgt[j, 2] - tgt[j, 0]) * (tgt[j, 3] - tgt[j, 1])
            iou = inter / (ap + at - inter)
            cls_t.append(sigmoid(logits[i]) ** 0.25 * iou**0.75)
        rep = loss_2d(pred, logits, tgt, matches, (640, 480), cls_targets=cls_t)
        assert rep.value == pytest.approx(base.value)

        num_boxes = fd_grad(
            lambda b: loss_2d(b, logits, tgt, matches, (640, 480), cls_targets=cls_t).value,
            pred, h=1e-5,
        )
        num_logits = fd_grad(
            lambda c: loss_2d(pred, c, tgt, matches, (640, 480), cls_targets=cls_t).value,
            logits,
        )
        assert_grad_close(rep.gradient["boxes"], num_boxes, rtol=1e-4)
        assert_grad_close(rep.gradient["logits"], num_logits, rtol=1e-4)

    def test_one_cls_target_per_match(self):
        box = np.array([[0.0, 0.0, 10.0, 10.0], [5.0, 5.0, 20.0, 20.0]])
        with pytest.raises(ValueError, match="targets"):
            loss_2d(box, [0.1, 0.2], box, [(0, 0), (1, 1)], (100, 100), cls_targets=[0.3])

    def test_presence_gradient(self):
        box = np.array([[0.0, 0.0, 10.0, 10.0]])

        def f(logit):
            return loss_2d(
                box, [0.3], box, [(0, 0)], (100, 100),
                presence_logit=float(logit[0]), presence_target=0.0,
                cls_targets=[0.5],
            ).value

        rep = loss_2d(
            box, [0.3], box, [(0, 0)], (100, 100),
            presence_logit=0.7, presence_target=0.0, cls_targets=[0.5],
        )
        num = fd_grad(f, np.array([0.7]))
        assert_grad_close(np.array([float(rep.gradient["presence"])]), num)


def parent_loss_2d(pred, logits, tgt, matches, image_size, cls_targets=None):
    """loss_2d without presence, with the classification term computed inline
    as it was before it called conf_loss. Returns (value, classification,
    box gradient, logit gradient, flags)."""
    from mono3dkit.losses import _giou2d_grad

    def sig(x):
        return float(0.5 * (1.0 + np.tanh(0.5 * x)))

    def softplus_np(x):
        return float(np.logaddexp(0.0, x))

    width, height = float(image_size[0]), float(image_size[1])
    scale = np.array([width, height, width, height])
    matched = {i for i, _ in matches}
    unmatched = [i for i in range(len(logits)) if i not in matched]
    n_pos = max(len(matches), 1)
    n_neg = max(len(unmatched), 1)
    grad_boxes = np.zeros_like(pred)
    grad_logits = np.zeros_like(logits)
    cls_term = l1_term = giou_term = 0.0
    for k, (i, j) in enumerate(matches):
        giou, dgiou = _giou2d_grad(pred[i], tgt[j])[:2]
        p = sig(logits[i])
        if cls_targets is not None:
            t = float(cls_targets[k])
        else:
            iw = max(0.0, min(pred[i, 2], tgt[j, 2]) - max(pred[i, 0], tgt[j, 0]))
            ih = max(0.0, min(pred[i, 3], tgt[j, 3]) - max(pred[i, 1], tgt[j, 1]))
            inter = iw * ih
            area_p = (pred[i, 2] - pred[i, 0]) * (pred[i, 3] - pred[i, 1])
            area_t = (tgt[j, 2] - tgt[j, 0]) * (tgt[j, 3] - tgt[j, 1])
            iou = inter / (area_p + area_t - inter) if inter > 0 else 0.0
            t = p**0.25 * iou**0.75
        cls_term += 5.0 * (t * softplus_np(-logits[i]) + (1.0 - t) * softplus_np(logits[i])) / n_pos
        grad_logits[i] += 20.0 * 5.0 * (p - t) / n_pos

        px, tx = pred[i] / scale, tgt[j] / scale
        pc = np.array([(px[0] + px[2]) / 2, (px[1] + px[3]) / 2, px[2] - px[0], px[3] - px[1]])
        tc = np.array([(tx[0] + tx[2]) / 2, (tx[1] + tx[3]) / 2, tx[2] - tx[0], tx[3] - tx[1]])
        sign = np.sign(pc - tc)
        l1_term += float(np.sum(np.abs(pc - tc))) / n_pos
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
    neg_term = 0.0
    for i in unmatched:
        p = sig(logits[i])
        neg_term += p**2 * softplus_np(logits[i]) / n_neg
        grad_logits[i] += 20.0 * (2.0 * p**2 * (1.0 - p) * softplus_np(logits[i]) + p**3) / n_neg
    cls_total = cls_term + neg_term
    value = 20.0 * cls_total + 5.0 * l1_term + 2.0 * giou_term
    return value, cls_total, grad_boxes, grad_logits, () if matches else ("no_positives",)


def loss_2d_case(name, rng):
    """Seeded predictions, logits, targets, matches and cls_targets for one case."""
    tgt = rng.uniform(0.0, 300.0, size=(3, 2))
    tgt = np.hstack([tgt, tgt + rng.uniform(20.0, 120.0, size=(3, 2))])
    pred = np.vstack([tgt, tgt[:1]]) + rng.uniform(-8.0, 8.0, size=(4, 4))
    logits = rng.normal(scale=2.0, size=4)
    cls_targets = None
    if name == "no_matches":
        matches = []
    elif name == "all_matched":
        pred, logits = pred[:3], logits[:3]
        matches = [(0, 0), (1, 1), (2, 2)]
    elif name == "matched_twice":
        matches = [(0, 0), (0, 1), (2, 2)]
    elif name == "cls_targets":
        matches = [(0, 0), (1, 1), (2, 2)]
        cls_targets = list(rng.uniform(0.0, 1.0, size=3))
    else:  # non_overlapping
        pred[:3] += 1000.0
        matches = [(0, 0), (1, 1), (2, 2)]
    return pred, logits, tgt, matches, cls_targets


class TestLoss2dEqualsParent:
    """loss_2d's classification goes through conf_loss; the numbers stay those
    of the inline arithmetic it replaced, to 1e-12 relative."""

    @pytest.mark.parametrize("name", ["no_matches", "all_matched", "matched_twice", "cls_targets", "non_overlapping"])
    @pytest.mark.parametrize("seed", range(5))
    def test_value_gradients_and_flags(self, name, seed):
        pred, logits, tgt, matches, cls_targets = loss_2d_case(name, np.random.default_rng(seed))
        rep = loss_2d(pred, logits, tgt, matches, (640, 480), cls_targets=cls_targets)
        value, cls_total, grad_boxes, grad_logits, flags = parent_loss_2d(
            pred, logits, tgt, matches, (640, 480), cls_targets
        )
        np.testing.assert_allclose(rep.terms["classification"], cls_total, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.value, value, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.gradient["boxes"], grad_boxes, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.gradient["logits"], grad_logits, rtol=1e-12, atol=0)
        assert rep.flags == flags


def parent_ray_gradient(pred_camera, gt_camera, resolution):
    """camera_ray_mse's intrinsics gradient with the pixel grid rebuilt, as it
    was computed before it read the grid off the ray directions."""
    cols, rows = resolution
    pred = ray_field(pred_camera, resolution)
    diff = pred - ray_field(gt_camera, resolution)
    u = (np.arange(cols) + 0.5) * (pred_camera.width / cols)
    v = (np.arange(rows) + 0.5) * (pred_camera.height / rows)
    uu, vv = np.meshgrid(u, v)
    dx = (uu - pred_camera.cx) / pred_camera.fx
    dy = (vv - pred_camera.cy) / pred_camera.fy
    dnorm = np.linalg.norm(np.stack([dx, dy, np.ones_like(dx)], axis=-1), axis=-1)
    w = diff * (2.0 / diff.size)
    wr = np.sum(w * pred, axis=-1, keepdims=True)
    g_d = (w - wr * pred) / dnorm[..., None]
    return np.array(
        [
            float(np.sum(g_d[..., 0] * (-dx / pred_camera.fx))),
            float(np.sum(g_d[..., 1] * (-dy / pred_camera.fy))),
            float(np.sum(g_d[..., 0] * (-1.0 / pred_camera.fx))),
            float(np.sum(g_d[..., 1] * (-1.0 / pred_camera.fy))),
        ]
    )


class TestCameraRayMse:
    def test_identical_cameras(self):
        cam = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        rep = camera_ray_mse(cam, cam)
        assert rep.value == 0.0

    def test_default_grid(self):
        assert ALIGNMENT_GRID == 48

    def test_value_against_direct_mean(self):
        a =CameraModel(480.0, 505.0, 315.0, 248.0, 640, 480)
        b = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        rep = camera_ray_mse(a, b, resolution=(16, 12))
        diff = ray_field(a, (16, 12)) - ray_field(b, (16, 12))
        assert rep.value == pytest.approx(float(np.mean(diff**2)), abs=1e-15)

    def test_size_mismatch_raises(self):
        a = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        b = CameraModel(500.0, 500.0, 320.0, 240.0, 1280, 960)
        with pytest.raises(ValueError):
            camera_ray_mse(a, b)

    def test_gradient_wrt_intrinsics(self):
        gt = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)

        def f(params):
            cam = CameraModel(params[0], params[1], params[2], params[3], 640, 480)
            return camera_ray_mse(cam, gt, resolution=(8, 6)).value

        x0 = np.array([470.0, 520.0, 310.0, 250.0])
        rep = camera_ray_mse(CameraModel(*x0, 640, 480), gt, resolution=(8, 6))
        num = fd_grad(f, x0, h=1e-4)
        assert_grad_close(rep.gradient, num, rtol=1e-5)

    @pytest.mark.parametrize("resolution", [(8, 6), (16, 12), (48, 48), (640, 480)])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_equals_grid_rebuild(self, resolution, seed):
        rng = np.random.default_rng(seed)
        gt = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        pred = CameraModel(*(np.array([500.0, 500.0, 320.0, 240.0]) + rng.uniform(-150.0, 150.0, 4)), 640, 480)
        rep = camera_ray_mse(pred, gt, resolution=resolution)
        np.testing.assert_allclose(rep.gradient, parent_ray_gradient(pred, gt, resolution), rtol=1e-12, atol=0)


class TestAggregation:
    def test_geom_weights(self):
        assert GEOM_TERM_WEIGHTS == {
            "depth_l1": 1.0, "silog": 0.5, "alignment": 10.0, "mask": 0.1, "ray": 1.0,
        }

    def test_clip_and_scale(self):
        total = clip_and_scale_geom({"depth_l1": 2.0, "silog": 20.0})
        # silog clips at 10 before weighting.
        assert total == pytest.approx(GEOM_GLOBAL_SCALE * (2.0 * 1.0 + GEOM_TERM_CLIP * 0.5))

    def test_unknown_term_rejected(self):
        with pytest.raises(KeyError):
            clip_and_scale_geom({"bogus": 1.0})

    def test_o2m_scaling(self):
        rep = LossReport(10.0, {"x": 10.0}, {"x": 1.0}, gradient=np.array([1.0, 2.0]))
        out = scale_and_clip_o2m(rep)
        assert out.value == 20.0
        assert np.allclose(out.gradient, [2.0, 4.0])

    def test_o2m_ceiling_zeroes_gradient(self):
        rep = LossReport(100.0, {"x": 100.0}, {"x": 1.0}, gradient=np.array([3.0]))
        out = scale_and_clip_o2m(rep)
        assert out.value == 150.0
        assert np.all(out.gradient == 0.0)
        assert "clipped" in out.flags
