"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single [PASS]/[FAIL] line (bypassing capture) with
the measured numbers, so a test run doubles as an acceptance report.
"""

import math
import sys
import time
import zlib

import numpy as np
import pytest
from conftest import record_acceptance

from mono3dkit import (
    Box2D,
    Box3D,
    CameraModel,
    Detection,
    GroundTruth,
    LiftCandidate,
    SamplerTargets,
    SizeSpec,
    SynthSpec,
    anchor_weights,
    average_precision,
    camera_ray_mse,
    cloud_from_depth,
    conf_loss,
    conf_target,
    decode_box,
    depth_l1_loss,
    edge_contact_fraction,
    encode_box,
    evaluate,
    global_pointmap_alignment,
    iou3d,
    iou3d_monte_carlo,
    l3d_regression,
    lift_annotation,
    loss_2d,
    mask_bce_loss,
    normalize_box_rotation,
    ods,
    optimize_translation,
    projected_box2d,
    quat_to_matrix,
    sample_anchors,
    sample_eval_split,
    silog_loss,
    size_filter,
    small_object_gate,
    synth_scene,
    yaw_of_rotation,
)
from mono3dkit.dataio import AnnotationRecord, DatasetFile, ImageRecord


def _emit(name: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] {name}: {detail}"
    record_acceptance(line)
    print(line, file=sys.__stdout__, flush=True)


def check(name, body):
    t0 = time.perf_counter()
    try:
        ok, detail = body()
    except Exception as exc:
        _emit(name, False, f"raised {type(exc).__name__}: {exc}")
        raise
    _emit(name, ok, f"{detail} [{time.perf_counter() - t0:.1f}s]")
    assert ok, f"{name}: {detail}"


def yaw_quat(yaw):
    return np.array([math.cos(yaw / 2.0), 0.0, math.sin(yaw / 2.0), 0.0])


# ---------------------------------------------------------------------------
# 1. Composite detection score on published metric rows
# ---------------------------------------------------------------------------


def test_criterion_1_composite_score():
    def body():
        rows = [
            ((0.086, 0.903, 0.867, 0.953), 8.9),
            ((0.147, 0.755, 0.680, 0.580), 23.8),
            ((0.288, 0.612, 0.706, 0.655), 31.5),
        ]
        errs = [abs(100.0 * ods(*args) - want) for args, want in rows]
        ok = max(errs) <= 0.05
        return ok, f"3 metric rows, max |error| {max(errs):.4f} (tol 0.05)"

    check("C1 composite-score reproduction", body)


# ---------------------------------------------------------------------------
# 2. Exact 3D IoU against a Monte-Carlo oracle
# ---------------------------------------------------------------------------


def test_criterion_2_exact_vs_monte_carlo_iou():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for i in range(1000):
            ca = np.array([0.0, 0.0, 5.0]) + rng.uniform(-1.0, 1.0, 3)
            a = Box3D(ca, rng.uniform(0.8, 2.0, 3), rng.normal(size=4))
            b = Box3D(ca + rng.uniform(-1.0, 1.0, 3), rng.uniform(0.8, 2.0, 3), rng.normal(size=4))
            exact = iou3d(a, b)
            mc = iou3d_monte_carlo(a, b, n_samples=1_000_000, seed=i)
            worst = max(worst, abs(exact - mc))
        cube = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        turned = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], yaw_quat(math.pi / 4.0))
        cross = iou3d(cube, turned)
        elapsed = time.perf_counter() - t0
        gate_s = 120.0
        ok = worst <= 0.01 and abs(cross - 0.7071) <= 0.005 and elapsed < gate_s
        return ok, (
            f"1000 pairs, max |exact-mc| {worst:.5f} (tol 0.01); "
            f"45-degree cube pair {cross:.4f} (want 0.7071 +- 0.005); "
            f"elapsed {elapsed:.1f} s (gate {gate_s:.0f} s)"
        )

    check("C2 exact vs Monte-Carlo 3D IoU", body)


# ---------------------------------------------------------------------------
# 3. 12-D codec roundtrip
# ---------------------------------------------------------------------------


def rotation_angle(qa, qb):
    cos = (np.trace(quat_to_matrix(qa).T @ quat_to_matrix(qb)) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, cos)))


def test_criterion_3_codec_roundtrip():
    def body():
        cam = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        rng = np.random.default_rng(1)
        worst_c = worst_d = worst_r = 0.0
        for _ in range(10_000):
            center = np.array([rng.uniform(-5, 5), rng.uniform(-3, 3), rng.uniform(1.0, 40.0)])
            dims, quat = normalize_box_rotation(rng.uniform(0.2, 5.0, 3), rng.normal(size=4))
            box = Box3D(center, dims, quat)
            box2d = Box2D(*(rng.uniform(0, 300, 2).tolist() + rng.uniform(320, 640, 2).tolist()))
            back = decode_box(encode_box(box, box2d, cam), box2d, cam)
            worst_c = max(worst_c, float(np.linalg.norm(back.center - box.center)))
            worst_d = max(worst_d, float(np.max(np.abs(back.dims - box.dims) / box.dims)))
            worst_r = max(worst_r, rotation_angle(back.quaternion, box.quaternion))
        ok = worst_c <= 1e-6 and worst_d <= 1e-9 and worst_r <= 1e-6
        return ok, (
            f"10^4 boxes, center {worst_c:.2e} m (tol 1e-6), "
            f"dims rel {worst_d:.2e} (tol 1e-9), rotation {worst_r:.2e} rad (tol 1e-6)"
        )

    check("C3 box codec roundtrip", body)


# ---------------------------------------------------------------------------
# 4. Rotation normalization: idempotent and corner-preserving
# ---------------------------------------------------------------------------


def corner_set_distance(a: Box3D, b: Box3D) -> float:
    ca, cb = a.corners(), b.corners()
    d = np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=-1)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def test_criterion_4_rotation_normalization():
    def body():
        rng = np.random.default_rng(2)
        worst_corner = worst_idem = 0.0
        for k in range(10_000):
            center = rng.uniform(-2, 2, 3) + [0.0, 0.0, 6.0]
            dims = rng.uniform(0.3, 3.0, 3)
            if k % 5 == 1:
                dims[2] = dims[0]  # exact w = l tie
            if k % 5 == 2:
                quat = yaw_quat(0.0)
            elif k % 5 == 3:
                quat = yaw_quat(math.pi)
            else:
                quat = rng.normal(size=4)
            box = Box3D(center, dims, quat)
            d1, q1 = normalize_box_rotation(box.dims, box.quaternion)
            once = Box3D(center, d1, q1)
            worst_corner = max(worst_corner, corner_set_distance(box, once))
            d2, q2 = normalize_box_rotation(d1, q1)
            twice = Box3D(center, d2, q2)
            worst_idem = max(worst_idem, corner_set_distance(once, twice))
        ok = worst_corner <= 1e-6 and worst_idem <= 1e-6
        return ok, (
            f"10^4 boxes (w=l ties, yaw 0 and pi included), corner-set drift "
            f"{worst_corner:.2e} m, re-normalization drift {worst_idem:.2e} m (tol 1e-6)"
        )

    check("C4 rotation normalization", body)


# ---------------------------------------------------------------------------
# 5. Finite-difference gradients for every differentiable loss
# ---------------------------------------------------------------------------

FD_H = 1e-5
# Every quantity an L1 or min/max term switches on is drawn at least this far
# from zero, so that no central difference straddles a kink.
KINK_MARGIN = 1e-3


def fd_grad(f, x, h=FD_H):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, xf = g.reshape(-1), x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return g


def rel_err(analytic, numeric):
    analytic = np.concatenate([np.ravel(a) for a in analytic])
    numeric = np.concatenate([np.ravel(n) for n in numeric])
    return float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12))


def away_from_kinks(draw, kinks):
    """``draw()`` redrawn until every entry of ``kinks(x)`` is at least
    KINK_MARGIN from zero."""
    while True:
        x = draw()
        if np.all(np.abs(kinks(x)) >= KINK_MARGIN):
            return x


def _check_l3d(rng):
    preds = rng.normal(size=(4, 12))
    offs = rng.uniform(0.05, 1.0, size=(4, 12)) * rng.choice([-1.0, 1.0], size=(4, 12))
    targets = preds + offs
    weights = rng.uniform(0.2, 2.0, size=(4, 12))
    rep = l3d_regression(preds, targets, weights)
    return rel_err([rep.gradient], [fd_grad(lambda p: l3d_regression(p, targets, weights).value, preds)])


def _check_conf(rng):
    cm = rng.uniform(-2.0, 2.0, size=5)
    q = rng.uniform(0.2, 0.9, size=5)
    cu = rng.uniform(-2.0, 2.0, size=4)
    targets = conf_target(cm, q)
    rep = conf_loss(cm, q, cu, targets=targets)
    num_m = fd_grad(lambda c: conf_loss(c, q, cu, targets=targets).value, cm)
    num_u = fd_grad(lambda c: conf_loss(cm, q, c, targets=targets).value, cu)
    return rel_err(
        [rep.gradient["logits_matched"], rep.gradient["logits_unmatched"]], [num_m, num_u]
    )


def _check_silog(rng):
    gt = rng.uniform(1.0, 10.0, size=8)
    pred = gt * np.exp(rng.uniform(-0.9, 0.9, size=8))
    valid = np.ones(8, dtype=bool)
    rep = silog_loss(pred, gt, valid)
    return rel_err([rep.gradient], [fd_grad(lambda p: silog_loss(p, gt, valid).value, pred)])


def _check_depth_l1(rng):
    gt = rng.uniform(1.0, 10.0, size=8)
    pred = away_from_kinks(lambda: gt * np.exp(rng.uniform(-0.9, 0.9, size=8)), lambda p: p - gt)
    valid = np.ones(8, dtype=bool)
    rep = depth_l1_loss(pred, gt, valid)
    return rel_err([rep.gradient], [fd_grad(lambda p: depth_l1_loss(p, gt, valid).value, pred)])


def _check_alignment(rng):
    gt = rng.uniform(-3.0, 3.0, size=(30, 3)) + [0.0, 0.0, 6.0]
    pred = 1.3 * gt + rng.normal(scale=0.3, size=(30, 3))
    valid = np.ones(30, dtype=bool)
    rep = global_pointmap_alignment(pred, gt, valid)
    return rel_err(
        [rep.gradient], [fd_grad(lambda p: global_pointmap_alignment(p, gt, valid).value, pred)]
    )


def _check_mask_bce(rng):
    pred = rng.uniform(0.1, 0.9, size=6)
    state = rng.choice([1.0, 0.0, -1.0], size=6)
    state[0] = 1.0  # at least one supervised pixel
    rep = mask_bce_loss(pred, state)
    return rel_err([rep.gradient], [fd_grad(lambda p: mask_bce_loss(p, state).value, pred)])


def _check_loss_2d(rng):
    tgt = np.array([[55.0, 52.0, 160.0, 175.0], [290.0, 210.0, 390.0, 280.0]])
    # The kinks: each corner offset (GIoU's min/max), each center and size
    # offset (the cxcywh L1), in pixels.
    offsets = away_from_kinks(
        lambda: rng.uniform(-3.0, 3.0, size=(2, 4)),
        lambda d: np.concatenate([d, (d[:, :2] + d[:, 2:]) / 2, d[:, 2:] - d[:, :2]], axis=1),
    )
    pred = tgt + offsets
    logits = rng.uniform(-1.5, 1.5, size=2)
    matches = [(0, 0), (1, 1)]
    cls_t = []
    for i, j in matches:
        iw = max(0.0, min(pred[i, 2], tgt[j, 2]) - max(pred[i, 0], tgt[j, 0]))
        ih = max(0.0, min(pred[i, 3], tgt[j, 3]) - max(pred[i, 1], tgt[j, 1]))
        inter = iw * ih
        ap = (pred[i, 2] - pred[i, 0]) * (pred[i, 3] - pred[i, 1])
        at = (tgt[j, 2] - tgt[j, 0]) * (tgt[j, 3] - tgt[j, 1])
        iou = inter / (ap + at - inter)
        cls_t.append((1.0 / (1.0 + math.exp(-logits[i]))) ** 0.25 * iou**0.75)
    p_logit = float(rng.uniform(-1.0, 1.0))

    def f_boxes(b):
        return loss_2d(b, logits, tgt, matches, (640, 480), cls_targets=cls_t,
                       presence_logit=p_logit, presence_target=0.5).value

    def f_logits(c):
        return loss_2d(pred, c, tgt, matches, (640, 480), cls_targets=cls_t,
                       presence_logit=p_logit, presence_target=0.5).value

    def f_presence(p):
        return loss_2d(pred, logits, tgt, matches, (640, 480), cls_targets=cls_t,
                       presence_logit=float(p[0]), presence_target=0.5).value

    rep = loss_2d(pred, logits, tgt, matches, (640, 480), cls_targets=cls_t,
                  presence_logit=p_logit, presence_target=0.5)
    return rel_err(
        [rep.gradient["boxes"], rep.gradient["logits"], [float(rep.gradient["presence"])]],
        [fd_grad(f_boxes, pred), fd_grad(f_logits, logits), fd_grad(f_presence, np.array([p_logit]))],
    )


def _check_camera_ray(rng):
    gt = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
    x0 = np.array([500.0, 500.0, 320.0, 240.0]) + rng.uniform(-40.0, 40.0, 4)
    rep = camera_ray_mse(CameraModel(*x0, 640, 480), gt, resolution=(8, 6))

    def f(params):
        return camera_ray_mse(CameraModel(*params, 640, 480), gt, resolution=(8, 6)).value

    return rel_err([rep.gradient], [fd_grad(f, x0)])


def test_criterion_5_loss_gradient_suite():
    def body():
        checks = {
            "l3d": _check_l3d,
            "conf": _check_conf,
            "silog": _check_silog,
            "depth_l1": _check_depth_l1,
            "alignment": _check_alignment,
            "mask_bce": _check_mask_bce,
            "loss_2d": _check_loss_2d,
            "camera_ray": _check_camera_ray,
        }
        worst = {}
        for name, fn in checks.items():
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            worst[name] = max(fn(rng) for _ in range(100))
        gt = np.array([1.0, 2.0, 5.0, 0.3])
        closed = silog_loss(2.0 * gt, gt, np.ones(4, dtype=bool)).value
        silog_err = abs(closed - math.sqrt(0.15) * math.log(2.0))
        ok = max(worst.values()) <= 1e-4 and silog_err <= 1e-9
        summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        return ok, (
            f"8 losses x 100 points, h=1e-5, worst rel err: {summary} (tol 1e-4); "
            f"log-ratio closed form off by {silog_err:.1e} (tol 1e-9)"
        )

    check("C5 loss gradient suite", body)


# ---------------------------------------------------------------------------
# 6. Synthetic end-to-end lifting
# ---------------------------------------------------------------------------


def test_criterion_6_synthetic_lift():
    def body():
        t0 = time.perf_counter()
        cam = CameraModel(600.0, 600.0, 640.0, 480.0, 1280, 960)
        total = passed = 0
        c_errs, ious, yaw_errs = [], [], []
        for seed in range(50):
            scene = synth_scene(SynthSpec(n_boxes=1 + seed % 5), cam, seed=seed)
            cloud = cloud_from_depth(scene.depth, cam)
            for box, mask, ann in zip(scene.boxes, scene.masks, scene.annotations):
                cand = lift_annotation(cloud, mask, Box2D(*ann.box2d), cam)
                total += 1
                c_err = float(np.linalg.norm(cand.box.center - box.center))
                c_errs.append(c_err)
                ious.append(iou3d(cand.box, box))
                # A box is unchanged by a quarter turn with its two footprint sides swapped.
                turn = math.degrees(yaw_of_rotation(cand.box.rotation) - yaw_of_rotation(box.rotation))
                yaw_errs.append(abs((turn + 45.0) % 90.0 - 45.0))
                d_err = float(
                    np.max(np.abs(np.sort(cand.box.dims) - np.sort(box.dims)) / np.sort(box.dims))
                )
                if c_err <= 0.1 and d_err <= 0.1:
                    passed += 1

        # translation refinement recovers a 0.3 m offset on a clean cube cloud
        rng = np.random.default_rng(7)
        center = np.array([0.2, 0.1, 3.0])
        face = rng.integers(0, 6, size=4000)
        uv = rng.uniform(-0.5, 0.5, size=(4000, 2))
        local = np.zeros((4000, 3))
        axis = face // 2
        sign = np.where(face % 2 == 0, 0.5, -0.5)
        for a in range(3):
            rows = axis == a
            others = [k for k in range(3) if k != a]
            local[rows, a] = sign[rows]
            local[rows, others[0]] = uv[rows, 0]
            local[rows, others[1]] = uv[rows, 1]
        pts = local + center
        small_cam = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        a_pts, a_w = sample_anchors(pts, anchor_weights(pts), 256, seed=3)
        true_box = Box3D(center, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        box2d = projected_box2d(true_box, small_cam)
        start = Box3D(center + [0.3, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        res = optimize_translation(start, a_pts, a_w, box2d, small_cam)
        rec_err = float(np.linalg.norm(res.box.center - center))

        elapsed = time.perf_counter() - t0
        rate = passed / total
        ok = (
            rate >= 0.80
            and rec_err <= 0.05
            and res.n_grid_evaluations == 125
            and elapsed < 300.0
        )
        return ok, (
            f"50 scenes: {passed}/{total} objects within 0.1 m center / 10% dims "
            f"({100 * rate:.0f}%, need 80%); offset recovery {rec_err:.3f} m (tol 0.05); "
            f"grid evaluations {res.n_grid_evaluations} (want 125); "
            f"reported, not gated: mean center error {1000 * np.mean(c_errs):.1f} mm, "
            f"median 3D IoU {np.median(ious):.3f}, max yaw error mod 90 deg {max(yaw_errs):.2f} deg"
        )

    check("C6 synthetic end-to-end lifting", body)


# ---------------------------------------------------------------------------
# 7. Evaluation protocol against brute-force enumeration
# ---------------------------------------------------------------------------


def brute_force_ap(kinds_by_rank, n_gt):
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


def planted_case(rng):
    """One synthetic image: exact-match TPs, far FPs, ignore landing pads."""
    n_tp = int(rng.integers(1, 7))
    n_fp = int(rng.integers(0, 5))
    n_ign = int(rng.integers(0, 4))
    dets, gts, kinds = [], [], []
    scores = rng.permutation(np.linspace(0.2, 0.9, n_tp + n_fp + n_ign))
    slot = iter(range(100))

    def spot():
        k = next(slot)
        return np.array([10.0 * k, 0.0, 5.0]), Box2D(100.0 * k, 10.0, 100.0 * k + 50.0, 60.0)

    si = 0
    for _ in range(n_tp):
        center, b2 = spot()
        box = Box3D(center, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        gts.append(GroundTruth(image_id="im", category="thing", box2d=b2, box3d=box))
        dets.append(Detection(image_id="im", category="thing", box3d=box, box2d=b2,
                              s2d=float(scores[si]), s3d=0.0))
        kinds.append((float(scores[si]), "tp"))
        si += 1
    for _ in range(n_fp):
        center, b2 = spot()
        box = Box3D(center, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        dets.append(Detection(image_id="im", category="thing", box3d=box, box2d=b2,
                              s2d=float(scores[si]), s3d=0.0))
        kinds.append((float(scores[si]), "fp"))
        si += 1
    ign_dets, ign_gts = [], []
    for _ in range(n_ign):
        center, b2 = spot()
        box = Box3D(center, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        ign_gts.append(GroundTruth(image_id="im", category="thing", box2d=b2,
                                   box3d=None, ignore3d=True))
        ign_dets.append(Detection(image_id="im", category="thing", box3d=box, box2d=b2,
                                  s2d=float(scores[si]), s3d=0.0))
        si += 1
    return dets, gts, kinds, ign_dets, ign_gts


def test_criterion_7_evaluation_oracle():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        worst_ap = worst_neutral = 0.0
        for _ in range(100):
            dets, gts, kinds, ign_dets, ign_gts = planted_case(rng)
            n_gt = len(gts)
            ranked = [kind for _, kind in sorted(kinds, key=lambda s: -s[0])]
            want = brute_force_ap(ranked, n_gt)
            base = evaluate(dets, gts).overall_ap
            worst_ap = max(worst_ap, abs(base - want))
            full = evaluate(dets + ign_dets, gts + ign_gts).overall_ap
            worst_neutral = max(worst_neutral, abs(full - base))
        elapsed = time.perf_counter() - t0
        ok = worst_ap <= 1e-12 and worst_neutral <= 1e-12 and elapsed < 60.0
        return ok, (
            f"100 planted splits: |AP - brute force| {worst_ap:.1e}, "
            f"ignore-neutrality drift {worst_neutral:.1e} (tol 1e-12)"
        )

    check("C7 evaluation protocol oracle", body)


# ---------------------------------------------------------------------------
# 8. Documented filter rule examples
# ---------------------------------------------------------------------------


def test_criterion_8_filter_rules():
    def body():
        edge = edge_contact_fraction(Box2D(0.0, 100.0, 50.0, 200.0), (640, 480))
        edge_ok = abs(edge - 1.0 / 3.0) <= 1e-12

        car_spec = SizeSpec("car", (1.2, 1.8), (1.4, 2.0), (3.5, 5.5), 4.0)
        cand = LiftCandidate(
            box=Box3D([0.0, 0.0, 8.0], [1.8, 1.5, 9.0], [1.0, 0.0, 0.0, 0.0]),
            generator="ransac_pca",
        )
        strict = size_filter(cand, car_spec, dataset_class="standard")
        loose = size_filter(cand, car_spec, dataset_class="fine_grained")
        size_ok = (
            not strict.passed
            and strict.failed_rules == ("size_longest",)
            and loose.passed
        )

        small = small_object_gate(Box2D(0.0, 0.0, 50.0, 50.0), (1000, 1000))
        small_ok = small is True

        ok = edge_ok and size_ok and small_ok
        return ok, (
            f"edge contact {edge:.4f} (want 1/3 -> reject); 9.0 m car rejected at "
            f"tolerance 1.5, accepted at 2.5: {size_ok}; 0.25% area flagged small: {small_ok}"
        )

    check("C8 filter rule examples", body)


# ---------------------------------------------------------------------------
# 9. Balanced sampler on a 10k-image pool
# ---------------------------------------------------------------------------


def sampler_pool():
    sources = ("coco", "lvis", "lvis", "objects365", "objects365")
    band_z = [5.0] * 10 + [20.0] * 5 + [50.0] * 4 + [120.0]
    images, annotations = [], []
    for i in range(10_000):
        images.append(
            ImageRecord(id=f"im{i:05d}", width=640, height=480, fx=500.0, fy=500.0,
                        cx=320.0, cy=240.0, source=sources[i % 5])
        )
        if i >= 9_997:
            category = "rare-a" if i == 9_997 else "rare-b"
        else:
            category = f"cat{i % 123:03d}"
        annotations.append(
            AnnotationRecord(
                id=f"a{i:05d}", image_id=f"im{i:05d}", category=category,
                box2d=(0.0, 0.0, 50.0, 50.0), center=(0.0, 0.0, band_z[i % 20]),
                dims=(1.0, 1.0, 1.0), quaternion=(1.0, 0.0, 0.0, 0.0),
                quality="good_fit",
            )
        )
    return DatasetFile(images=images, annotations=annotations), annotations


def test_criterion_9_sampler_at_scale():
    def body():
        ds, annotations = sampler_pool()
        category_of = {a.image_id: a.category for a in annotations}
        all_categories = set(category_of.values())
        want_src = {"coco": 0.20, "lvis": 0.40, "objects365": 0.40}
        worst_src = 0.0
        covered_all = True
        rare_all = True
        for seed in range(5):
            res = sample_eval_split(ds, SamplerTargets(), size=600, seed=seed)
            covered = {category_of[i] for i in res.image_ids}
            covered_all &= covered == all_categories
            rare_all &= res.rare_categories == ("rare-a", "rare-b")
            for k, want in want_src.items():
                worst_src = max(worst_src, abs(res.source_proportions[k] - want))
        ok = covered_all and rare_all and worst_src <= 0.03
        return ok, (
            f"5 seeds on 10k images: full category coverage {covered_all}, "
            f"max source-quota deviation {worst_src:.4f} (tol 0.03), "
            f"under-3-image categories flagged {rare_all}"
        )

    check("C9 balanced sampler at scale", body)
