"""12-D box encoding, decoding, and confidence targets."""

import math

import numpy as np
import pytest

from mono3dkit import (
    Box2D,
    Box3D,
    BoxEncoding12,
    CameraModel,
    backproject,
    confidence_target,
    decode_box,
    depth_quality,
    encode_box,
    fuse_score,
    normalize_box_rotation,
    project,
    quat_to_matrix,
)

CAM = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)


def yaw_quat(yaw):
    return np.array([math.cos(yaw / 2.0), 0.0, math.sin(yaw / 2.0), 0.0])


def random_box(rng):
    center = np.array(
        [rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(1.0, 40.0)]
    )
    dims = rng.uniform(0.2, 5.0, size=3)
    quat = rng.normal(size=4)
    return Box3D(center=center, dims=dims, quaternion=quat)


def wide_range_case(rng):
    """Log-uniform depth in 0.1-200 m and dims in 0.05-20 m, centered on a uniform pixel of the view."""
    pixel = rng.uniform([0.0, 0.0], [CAM.width, CAM.height])
    center = backproject(CAM, pixel, np.asarray(math.exp(rng.uniform(math.log(0.1), math.log(200.0)))))
    dims = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=3))
    box = canonical(Box3D(center=center, dims=dims, quaternion=rng.normal(size=4)))
    return box, Box2D(*(pixel - rng.uniform(1.0, 200.0, 2)), *(pixel + rng.uniform(1.0, 200.0, 2)))


def canonical(box):
    dims, quat = normalize_box_rotation(box.dims, box.quaternion)
    return Box3D(center=box.center, dims=dims, quaternion=quat)


def rotation_angle(qa, qb):
    ra = quat_to_matrix(qa)
    rb = quat_to_matrix(qb)
    cos = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, cos)))


class TestEncode:
    def test_known_values(self):
        # Canonical box (w <= l, yaw in [0, pi)): the encoding fields are
        # direct affine/log images of the raw quantities.
        box = Box3D(
            center=[1.0, -0.5, 8.0], dims=[1.5, 1.2, 3.0], quaternion=yaw_quat(0.6)
        )
        box2d = Box2D(300.0, 200.0, 420.0, 300.0)
        enc = encode_box(box, box2d, CAM)

        u, v = project(CAM, box.center)
        assert enc.dcx == pytest.approx((u - 360.0) / 10.0)
        assert enc.dcy == pytest.approx((v - 250.0) / 10.0)
        assert enc.log_depth == pytest.approx(2.0 * math.log(8.0))
        assert enc.log_w == pytest.approx(2.0 * math.log(1.5))
        assert enc.log_h == pytest.approx(2.0 * math.log(1.2))
        assert enc.log_l == pytest.approx(2.0 * math.log(3.0))
        rot = quat_to_matrix(box.quaternion)
        assert np.allclose(enc.r6, rot[:2].reshape(6))

    def test_center_on_2d_box_center_gives_zero_offset(self):
        box = Box3D(center=[0.0, 0.0, 5.0], dims=[1.0, 1.0, 2.0], quaternion=[1, 0, 0, 0])
        box2d = Box2D(300.0, 230.0, 340.0, 250.0)  # centered on (320, 240)
        enc = encode_box(box, box2d, CAM)
        assert enc.dcx == pytest.approx(0.0)
        assert enc.dcy == pytest.approx(0.0)

    def test_canonicalizes_rotation(self):
        # w > l: encoding must swap to the w <= l representative.
        box = Box3D(center=[0.0, 0.0, 5.0], dims=[3.0, 1.0, 1.5], quaternion=yaw_quat(0.3))
        enc = encode_box(box, Box2D(0, 0, 10, 10), CAM)
        assert math.exp(enc.log_w / 2.0) <= math.exp(enc.log_l / 2.0) + 1e-12

    def test_rejects_center_behind_camera(self):
        box = Box3D(center=[0.0, 0.0, -2.0], dims=[1, 1, 1], quaternion=[1, 0, 0, 0])
        with pytest.raises(ValueError):
            encode_box(box, Box2D(0, 0, 10, 10), CAM)

    def test_array_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=12)
        enc = BoxEncoding12.from_array(a)
        assert np.allclose(enc.as_array(), a)


class TestDecode:
    def test_inverts_encode_on_canonical_boxes(self):
        """Decode backprojects the encoded pixel at exp(log z), so the center
        is off by a few ulps relative to depth and the dims by a few ulps of
        themselves, at every depth and size."""
        rng = np.random.default_rng(1)
        cases = [(canonical(random_box(rng)), Box2D(100.0, 80.0, 500.0, 400.0)) for _ in range(300)]
        cases += [wide_range_case(rng) for _ in range(2000)]
        for box, box2d in cases:
            dec = decode_box(encode_box(box, box2d, CAM), box2d, CAM)
            assert np.linalg.norm(dec.center - box.center) <= 1e-12 * box.center[2]
            assert np.all(np.abs(dec.dims - box.dims) <= 1e-12 * box.dims)
            assert np.abs(dec.rotation - box.rotation).max() <= 1e-12

    def test_general_boxes_decode_to_canonical_form(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            box = random_box(rng)
            box2d = Box2D(0.0, 0.0, 640.0, 480.0)
            dec = decode_box(encode_box(box, box2d, CAM), box2d, CAM)
            ref = canonical(box)
            assert np.allclose(dec.center, ref.center, atol=1e-9)
            assert np.allclose(dec.dims, ref.dims, rtol=1e-12)
            assert rotation_angle(dec.quaternion, ref.quaternion) < 1e-7

    def test_corner_set_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            box = random_box(rng)
            box2d = Box2D(50.0, 50.0, 600.0, 450.0)
            dec = decode_box(encode_box(box, box2d, CAM), box2d, CAM)
            a = box.corners()
            b = dec.corners()
            worst = max(np.min(np.linalg.norm(b - c, axis=1)) for c in a)
            assert worst < 1e-7

    def test_depth_decoded_exactly(self):
        enc = BoxEncoding12(
            dcx=0.0, dcy=0.0, log_depth=2.0 * math.log(12.5),
            log_w=0.0, log_h=0.0, log_l=0.0,
            r6=np.array([1.0, 0, 0, 0, 1.0, 0]),
        )
        dec = decode_box(enc, Box2D(310, 230, 330, 250), CAM)
        assert dec.center[2] == pytest.approx(12.5)
        assert np.allclose(dec.dims, 1.0)


class TestConfidence:
    def test_depth_quality_exact_match(self):
        assert depth_quality(1.7, 1.7) == 1.0

    def test_depth_quality_decay(self):
        assert depth_quality(2.0, 1.0) == pytest.approx(math.exp(-1.0))
        assert depth_quality(1.0, 2.0) == pytest.approx(math.exp(-1.0))

    def test_target_blend(self):
        assert confidence_target(1.0, 1.0) == pytest.approx(1.0)
        assert confidence_target(0.0, 1.0) == pytest.approx(0.3)
        assert confidence_target(1.0, 0.0) == pytest.approx(0.7)
        assert confidence_target(0.5, 0.2) == pytest.approx(0.7 * 0.5 + 0.3 * 0.2)

    def test_target_keyword_arguments(self):
        assert confidence_target(q_depth=0.8, iou=0.4) == pytest.approx(0.7 * 0.8 + 0.3 * 0.4)

    def test_target_range_validated(self):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            confidence_target(1.2, 0.5)
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            confidence_target(0.5, -0.1)

    def test_fuse_score(self):
        assert fuse_score(0.9, 0.6) == pytest.approx(0.9 + 0.3)
        assert fuse_score(0.0, 1.0) == pytest.approx(0.5)
