"""Oriented-box geometry: corners, rotations, exact IoU, normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mono3dkit import (
    Box2D,
    Box3D,
    box_corners,
    giou2d,
    giou2d_rows,
    iou2d,
    iou3d,
    iou3d_monte_carlo,
    matrix_to_quat,
    matrix_to_rot6d,
    normalize_box_rotation,
    quat_to_matrix,
    random_quaternion,
    rot6d_to_matrix,
    yaw_of_rotation,
    yaw_to_matrix,
)
from mono3dkit.geometry import _MC_CHUNK

RNG = np.random.default_rng(20240817)


def random_box(rng, center_scale=2.0, dim_range=(0.2, 3.0)):
    center = rng.uniform(-center_scale, center_scale, 3)
    dims = rng.uniform(*dim_range, 3)
    return Box3D(center, dims, random_quaternion(rng))


def corner_set_distance(a, b):
    """Max over corners of the distance to the nearest corner in the other set."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


class TestBox3D:
    def test_identity_corners(self):
        box = Box3D(np.zeros(3), np.array([2.0, 4.0, 6.0]), np.array([1.0, 0, 0, 0]))
        c = box.corners()
        assert c.shape == (8, 3)
        assert np.allclose(np.abs(c), [1.0, 2.0, 3.0])
        assert np.isclose(box.volume, 48.0)

    def test_translation_moves_corners(self):
        rng = np.random.default_rng(0)
        box = random_box(rng)
        shifted = Box3D(box.center + 1.5, box.dims, box.quaternion)
        assert np.allclose(shifted.corners(), box.corners() + 1.5)

    def test_corners_match_helper(self):
        rng = np.random.default_rng(1)
        box = random_box(rng)
        assert np.allclose(box.corners(), box_corners(box.center, box.dims, box.rotation))

    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            Box3D(np.zeros(3), np.array([1.0, -1.0, 1.0]), np.array([1.0, 0, 0, 0]))

    def test_quaternion_normalized_on_construction(self):
        box = Box3D(np.zeros(3), np.ones(3), np.array([2.0, 0, 0, 0]))
        assert np.allclose(box.quaternion, [1.0, 0, 0, 0])
        with pytest.raises(ValueError):
            Box3D(np.zeros(3), np.ones(3), np.zeros(4))


class TestRotations:
    def test_quat_matrix_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = random_quaternion(rng)
            m = quat_to_matrix(q)
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert np.isclose(np.linalg.det(m), 1.0)
            q2 = matrix_to_quat(m)
            # q and -q encode the same rotation
            assert np.allclose(q, q2, atol=1e-9) or np.allclose(q, -q2, atol=1e-9)

    def test_rot6d_is_first_two_rows(self):
        rng = np.random.default_rng(3)
        m = quat_to_matrix(random_quaternion(rng))
        r6 = matrix_to_rot6d(m)
        assert np.allclose(r6[:3], m[0])
        assert np.allclose(r6[3:], m[1])

    def test_rot6d_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = quat_to_matrix(random_quaternion(rng))
            assert np.allclose(rot6d_to_matrix(matrix_to_rot6d(m)), m, atol=1e-12)

    def test_rot6d_gram_schmidt_repairs_noise(self):
        rng = np.random.default_rng(5)
        m = quat_to_matrix(random_quaternion(rng))
        noisy = matrix_to_rot6d(m) + rng.normal(0, 0.01, 6)
        r = rot6d_to_matrix(noisy)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0)

    def test_yaw_roundtrip(self):
        for yaw in np.linspace(-math.pi, math.pi, 37):
            m = yaw_to_matrix(yaw)
            rec = yaw_of_rotation(m)
            assert np.isclose(math.cos(rec - yaw), 1.0, atol=1e-12)

    def test_random_quaternion_unit(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert np.isclose(np.linalg.norm(random_quaternion(rng)), 1.0)


class TestIoU2D:
    def test_known_overlap(self):
        a = Box2D(0, 0, 10, 10)
        b = Box2D(5, 5, 15, 15)
        assert np.isclose(iou2d(a, b), 25.0 / 175.0)

    def test_disjoint_and_identical(self):
        a = Box2D(0, 0, 10, 10)
        assert iou2d(a, a) == 1.0
        assert iou2d(a, Box2D(20, 20, 30, 30)) == 0.0

    def test_giou_identical_is_one(self):
        a = Box2D(0, 0, 10, 10)
        assert np.isclose(giou2d(a, a), 1.0)

    def test_giou_penalizes_separation(self):
        a = Box2D(0, 0, 10, 10)
        b = Box2D(30, 0, 40, 10)
        # iou 0, enclosing 40x10, union 200: giou = -(400-200)/400
        assert np.isclose(giou2d(a, b), -0.5)

    def test_giou_of_degenerate_boxes(self):
        point = Box2D(3, 4, 3, 4)
        assert giou2d(point, point) == 1.0
        # Collinear segments enclose no area either.
        assert giou2d(Box2D(0, 2, 5, 2), Box2D(1, 2, 7, 2)) == 1.0
        # No overlap, union 4, hull 3 x 4.
        assert giou2d(point, Box2D(0, 0, 2, 2)) == 0.0 - (12.0 - 4.0) / 12.0

    def test_giou_rows_equal_pairwise(self):
        rng = np.random.default_rng(8)
        lo = rng.uniform(-5, 5, size=(200, 2))
        a = np.hstack([lo, lo + rng.uniform(0, 3, size=(200, 2)) * (rng.random((200, 1)) > 0.1)])
        b = np.array([0.5, -1.0, 2.5, 1.0])
        rows = giou2d_rows(a, b)
        assert rows.shape == (200,)
        assert rows.tolist() == [giou2d(Box2D.from_array(r), Box2D.from_array(b)) for r in a]
        first = Box2D.from_array(a[0])
        assert giou2d_rows(np.vstack([a[:1], a[:1]]), a[:1]).tolist() == [giou2d(first, first)] * 2

    def test_giou_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.uniform(-5, 5, 4)
            y = rng.uniform(-5, 5, 4)
            a = Box2D(min(x[0], x[1]), min(y[0], y[1]), max(x[0], x[1]) + 0.1, max(y[0], y[1]) + 0.1)
            b = Box2D(min(x[2], x[3]), min(y[2], y[3]), max(x[2], x[3]) + 0.1, max(y[2], y[3]) + 0.1)
            g = giou2d(a, b)
            assert -1.0 <= g <= 1.0
            assert g <= iou2d(a, b)


class TestIoU3D:
    def test_identical(self):
        rng = np.random.default_rng(8)
        box = random_box(rng)
        assert np.isclose(iou3d(box, box), 1.0, atol=1e-9)

    def test_disjoint(self):
        a = Box3D(np.zeros(3), np.ones(3), np.array([1.0, 0, 0, 0]))
        b = Box3D(np.array([10.0, 0, 0]), np.ones(3), np.array([1.0, 0, 0, 0]))
        assert iou3d(a, b) == 0.0

    def test_contained(self):
        outer = Box3D(np.zeros(3), np.array([4.0, 4.0, 4.0]), np.array([1.0, 0, 0, 0]))
        inner = Box3D(np.zeros(3), np.array([2.0, 2.0, 2.0]), np.array([1.0, 0, 0, 0]))
        assert np.isclose(iou3d(outer, inner), 8.0 / 64.0, atol=1e-9)

    def test_axis_aligned_partial(self):
        a = Box3D(np.zeros(3), np.array([2.0, 2.0, 2.0]), np.array([1.0, 0, 0, 0]))
        b = Box3D(np.array([1.0, 0, 0]), np.array([2.0, 2.0, 2.0]), np.array([1.0, 0, 0, 0]))
        # intersection 1x2x2=4, union 16-4=12
        assert np.isclose(iou3d(a, b), 4.0 / 12.0, atol=1e-9)

    def test_touching_faces_give_zero(self):
        # +x face of a meets -x face of b; the shared face has no volume.
        a = Box3D([0.0, 0.0, 2.0], [0.4, 0.3, 0.5], [1.0, 0.0, 0.0, 0.0])
        b = Box3D([0.4, 0.05, 2.0], [0.4, 0.3, 0.5], [1.0, 0.0, 0.0, 0.0])
        assert iou3d(a, b) == 0.0
        assert iou3d(b, a) == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        xy=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
        z=st.floats(0.0, 1e4),
        dims=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
        quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    )
    def test_property_far_from_origin(self, xy, z, dims, quat):
        # Tolerances scale with the box, so far boxes keep exact IoU.
        box = Box3D([xy[0], xy[1], z], dims, quat)
        assert abs(iou3d(box, box) - 1.0) <= 1e-9
        # Shifted by half its width along its own x axis: overlap w/2 of 3w/2.
        shifted = box.translated(0.5 * box.dims[0] * box.rotation[:, 0])
        assert abs(iou3d(box, shifted) - 1.0 / 3.0) <= 1e-9

    def test_diagonal_cube(self):
        # unit cube vs itself rotated 45 degrees about the vertical axis:
        # octagon cross-section, iou = 2(sqrt(2)-1) / (2 - 2(sqrt(2)-1))
        a = Box3D(np.zeros(3), np.ones(3), np.array([1.0, 0, 0, 0]))
        m = yaw_to_matrix(math.pi / 4.0)
        b = Box3D(np.zeros(3), np.ones(3), matrix_to_quat(m))
        inter = 2.0 * (math.sqrt(2.0) - 1.0)
        expected = inter / (2.0 - inter)
        assert np.isclose(iou3d(a, b), expected, atol=1e-9)
        assert abs(iou3d(a, b) - 0.70711) < 5e-4

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = random_box(rng, center_scale=1.0)
            b = random_box(rng, center_scale=1.0)
            assert np.isclose(iou3d(a, b), iou3d(b, a), atol=1e-9)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(10)
        for i in range(20):
            a = random_box(rng, center_scale=0.8, dim_range=(0.5, 2.0))
            b = random_box(rng, center_scale=0.8, dim_range=(0.5, 2.0))
            exact = iou3d(a, b)
            mc = iou3d_monte_carlo(a, b, n_samples=200_000, seed=i)
            assert abs(exact - mc) < 0.02

    @staticmethod
    def one_shot_monte_carlo(a, b, n_samples, seed):
        """The oracle as one (n, 3) draw and one row-wise inside test per box."""
        ca, cb = a.corners(), b.corners()
        lo = np.minimum(ca.min(axis=0), cb.min(axis=0))
        hi = np.maximum(ca.max(axis=0), cb.max(axis=0))
        pts = np.random.default_rng(seed).uniform(lo, hi, (n_samples, 3))

        def inside(box):
            local = (pts - box.center) @ box.rotation
            return np.all(np.abs(local) <= box.dims / 2.0, axis=1)

        in_a, in_b = inside(a), inside(b)
        n_union = np.count_nonzero(in_a | in_b)
        if n_union == 0:
            return 0.0
        return float(np.count_nonzero(in_a & in_b) / n_union)

    def test_monte_carlo_equals_one_shot_reference(self):
        counts = (1000, _MC_CHUNK, 2 * _MC_CHUNK + 123)
        rng = np.random.default_rng(13)
        pairs = []
        for _ in range(20):
            a = random_box(rng, center_scale=0.8, dim_range=(0.5, 2.0))
            b = random_box(rng, center_scale=0.8, dim_range=(0.5, 2.0))
            pairs.append((a, b))
        cube = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        pairs.append((cube, cube))
        pairs.append((cube, cube.translated([9.0, 0.0, 0.0])))
        for i, (a, b) in enumerate(pairs):
            for n in counts:
                assert iou3d_monte_carlo(a, b, n_samples=n, seed=i) == self.one_shot_monte_carlo(a, b, n, i)
        assert iou3d_monte_carlo(cube, cube, n_samples=1000, seed=0) == 1.0
        assert iou3d_monte_carlo(cube, cube.translated([9.0, 0.0, 0.0]), n_samples=1000, seed=0) == 0.0

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_monte_carlo_rejects_nonpositive_sample_count(self, n_samples):
        cube = Box3D([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="n_samples"):
            iou3d_monte_carlo(cube, cube, n_samples=n_samples)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        a = random_box(rng, center_scale=0.5)
        b = random_box(rng, center_scale=0.5)
        shift = np.array([3.0, -2.0, 7.0])
        a2 = Box3D(a.center + shift, a.dims, a.quaternion)
        b2 = Box3D(b.center + shift, b.dims, b.quaternion)
        assert np.isclose(iou3d(a, b), iou3d(a2, b2), atol=1e-9)


class TestNormalizeRotation:
    def assert_same_box(self, box, dims2, quat2, tol=1e-6):
        other = Box3D(box.center, dims2, quat2)
        assert corner_set_distance(box.corners(), other.corners()) <= tol

    def test_width_never_exceeds_length(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            box = random_box(rng)
            dims2, quat2 = normalize_box_rotation(box.dims, box.quaternion)
            assert dims2[0] <= dims2[2] + 1e-12

    def test_yaw_in_half_turn(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            dims = rng.uniform(0.2, 3.0, 3)
            yaw = rng.uniform(-math.pi, math.pi)
            q = matrix_to_quat(yaw_to_matrix(yaw))
            dims2, quat2 = normalize_box_rotation(dims, q)
            rec = yaw_of_rotation(quat_to_matrix(quat2))
            assert -1e-9 <= rec < math.pi + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            box = random_box(rng)
            dims1, quat1 = normalize_box_rotation(box.dims, box.quaternion)
            dims2, quat2 = normalize_box_rotation(dims1, quat1)
            assert np.allclose(dims1, dims2, atol=1e-12)
            r1 = quat_to_matrix(quat1)
            r2 = quat_to_matrix(quat2)
            assert np.allclose(r1, r2, atol=1e-9)

    def test_corner_preservation(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            box = random_box(rng)
            dims2, quat2 = normalize_box_rotation(box.dims, box.quaternion)
            self.assert_same_box(box, dims2, quat2)

    def test_square_footprint_tie(self):
        dims = np.array([1.5, 0.7, 1.5])
        for yaw in [0.0, math.pi / 3, math.pi, -math.pi / 2]:
            q = matrix_to_quat(yaw_to_matrix(yaw))
            dims2, quat2 = normalize_box_rotation(dims, q)
            assert dims2[0] <= dims2[2] + 1e-12
            box = Box3D(np.zeros(3), dims, q)
            self.assert_same_box(box, dims2, quat2)
            # run twice: ties must not oscillate
            dims3, quat3 = normalize_box_rotation(dims2, quat2)
            assert np.allclose(dims2, dims3, atol=1e-12)
            assert np.allclose(quat_to_matrix(quat2), quat_to_matrix(quat3), atol=1e-9)

    def test_yaw_boundaries(self):
        dims = np.array([2.0, 1.0, 0.5])
        for yaw in [0.0, math.pi]:
            q = matrix_to_quat(yaw_to_matrix(yaw))
            dims2, quat2 = normalize_box_rotation(dims, q)
            rec = yaw_of_rotation(quat_to_matrix(quat2))
            assert -1e-9 <= rec < math.pi + 1e-9
            self.assert_same_box(Box3D(np.zeros(3), dims, q), dims2, quat2)

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.floats(0.1, 5.0),
        h=st.floats(0.1, 5.0),
        l=st.floats(0.1, 5.0),
        yaw=st.floats(-math.pi, math.pi),
    )
    def test_property_normalized_box_is_same_box(self, w, h, l, yaw):
        dims = np.array([w, h, l])
        q = matrix_to_quat(yaw_to_matrix(yaw))
        dims2, quat2 = normalize_box_rotation(dims, q)
        assert dims2[0] <= dims2[2] + 1e-12
        box = Box3D(np.zeros(3), dims, q)
        other = Box3D(np.zeros(3), dims2, quat2)
        assert corner_set_distance(box.corners(), other.corners()) <= 1e-6
