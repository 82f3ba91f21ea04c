"""Oriented-box geometry: corners, rotations, exact IoU, normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from mono3dkit import geometry
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
from mono3dkit.geometry import _INSIDE_TOL, _MC_CHUNK, CORNER_SIGNS, _vertices_inside

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

    def test_rotation_is_computed_once_and_read_only(self):
        box = random_box(np.random.default_rng(2))
        assert box.rotation is box.rotation
        assert np.array_equal(box.rotation, quat_to_matrix(box.quaternion))
        with pytest.raises(ValueError, match="read-only"):
            box.rotation[0, 0] = 2.0

    def test_arrays_are_read_only_copies(self):
        center, dims, quat = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]), np.array([2.0, 0.0, 0.0, 0.0])
        box = Box3D(center, dims, quat)
        for name in ("center", "dims", "quaternion"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(box, name)[0] = 5.0
        center[0] = dims[0] = quat[0] = 9.0  # the caller's arrays stay writable and its own
        assert box.center[0] == 1.0 and box.dims[0] == 1.0 and box.quaternion[0] == 1.0
        assert box.volume == 8.0

    def test_volume_is_computed_once(self, monkeypatch):
        box = random_box(np.random.default_rng(3))
        prod, calls = np.prod, []
        monkeypatch.setattr(np, "prod", lambda *a, **k: calls.append(1) or prod(*a, **k))
        assert box.volume == box.volume == float(prod(box.dims))
        assert len(calls) == 1


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


def parent_intersection_volume(a, b):
    """intersection_volume without the separating-axis early return: the
    convex hull of the intersection's vertices for every pair."""
    ra = a.rotation
    rot = ra.T @ b.rotation
    offset = (b.center - a.center) @ ra
    tol = _INSIDE_TOL * max(a.dims.max(), b.dims.max())
    in_a = _vertices_inside(CORNER_SIGNS * b.dims @ rot.T + offset, a.dims / 2.0, tol)
    in_b = _vertices_inside((CORNER_SIGNS * a.dims - offset) @ rot, b.dims / 2.0, tol)
    points = np.vstack([in_a, in_b @ rot.T + offset])
    if len(points) < 4:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


def parent_iou3d(a, b):
    vi = parent_intersection_volume(a, b)
    return float(min(1.0, max(0.0, vi / (a.volume + b.volume - vi))))


def random_yaw_box(rng, floor_y=None):
    dims = rng.uniform(0.2, 0.6, size=3)
    y = floor_y - dims[1] / 2.0 if floor_y is not None else rng.uniform(-0.3, 0.3)
    center = np.array([rng.uniform(-0.6, 0.6), y, rng.uniform(1.5, 2.5)])
    return Box3D(center, dims, matrix_to_quat(yaw_to_matrix(rng.uniform(0.0, math.pi))))


class TestSeparatedPairs:
    """``iou3d`` returns the hull's exact result bit for bit, and skips the
    hull when a face normal separates the boxes by more than ``2 * tol``."""

    @staticmethod
    def iou_and_hull_built(a, b, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "_vertices_inside", lambda *args: calls.append(1) or _vertices_inside(*args))
        got = iou3d(a, b)
        monkeypatch.undo()
        assert got.hex() == parent_iou3d(a, b).hex()
        return got, bool(calls)

    @staticmethod
    def face_normal_gap(a, b):
        """Largest gap between the boxes' extents along the six face normals."""
        axes = np.vstack([a.rotation.T, b.rotation.T])
        offset = b.center - a.center
        reach = np.abs(axes @ a.rotation) @ (a.dims / 2.0) + np.abs(axes @ b.rotation) @ (b.dims / 2.0)
        return float(np.max(np.abs(axes @ offset) - reach))

    def test_random_pairs(self, monkeypatch):
        rng = np.random.default_rng(0)
        seen = {"skipped": 0, "hull": 0, "overlap": 0}
        for k in range(400):
            floor = 1.2 if k % 2 else None
            a, b = random_yaw_box(rng, floor), random_yaw_box(rng, floor)
            if k % 5 == 0:  # general rotations too
                b = Box3D(b.center, b.dims, random_quaternion(rng))
            got, built = self.iou_and_hull_built(a, b, monkeypatch)
            tol = _INSIDE_TOL * max(a.dims.max(), b.dims.max())
            assert built == (self.face_normal_gap(a, b) <= 2 * tol)
            seen["hull" if built else "skipped"] += 1
            seen["overlap"] += got > 0.0
        assert min(seen.values()) > 20, seen

    # In units of the box scale; tol is 5e-10 of it. The gaps 2.5e-10,
    # 7.5e-10 and 1.5e-9 are 0.5, 1.5 and 3 tol: the first two still build
    # the hull, the last is past the early return's 2 * tol.
    NEAR_CONTACT_GAPS = [-0.01, -1e-4, -1e-7, 0.0, 2.5e-10, 7.5e-10, 1.5e-9, 1e-7, 1e-4, 0.01]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("gap", NEAR_CONTACT_GAPS)
    def test_near_contact(self, gap, axis, scale, monkeypatch):
        dims = np.array([0.4, 0.3, 0.5]) * scale
        side = np.full(3, 0.05 * scale)  # a shift along the other two axes
        side[axis] = dims[axis] + gap * scale
        a = Box3D(np.array([0.0, 0.0, 2.0]) * scale, dims, [1.0, 0.0, 0.0, 0.0])
        b = a.translated(side)
        got, built = self.iou_and_hull_built(a, b, monkeypatch)
        assert built == (gap <= 1e-9)
        if gap < 0.0:
            assert got > 0.0
        elif gap == 0.0 or gap > 1e-9:
            assert got == 0.0

    @pytest.mark.parametrize("gap", NEAR_CONTACT_GAPS)
    def test_near_contact_with_general_rotation(self, gap, monkeypatch):
        # b turned at random, moved along one of a's face normals until its
        # extent ends ``gap`` beyond a's face. A negative gap need not make
        # the boxes overlap: b's deepest corner can pass beside a.
        rng = np.random.default_rng(3)
        for k in range(30):
            a = random_box(rng, center_scale=1.0, dim_range=(0.2, 0.6))
            b = Box3D(np.zeros(3), rng.uniform(0.2, 0.6, 3), random_quaternion(rng))
            normal = a.rotation[:, k % 3]
            reach = a.dims[k % 3] / 2.0 + np.abs(normal @ b.rotation) @ (b.dims / 2.0)
            b = b.translated(a.center + normal * (reach + gap))
            got, built = self.iou_and_hull_built(a, b, monkeypatch)
            if gap > 2e-9:  # tol is at most 6e-10 here
                assert not built and got == 0.0


def c2_pairs(n):
    """The general-rotation pairs of acceptance criterion C2, seed 0."""
    rng = np.random.default_rng(0)
    for _ in range(n):
        ca = np.array([0.0, 0.0, 5.0]) + rng.uniform(-1.0, 1.0, 3)
        a = Box3D(ca, rng.uniform(0.8, 2.0, 3), rng.normal(size=4))
        b = Box3D(ca + rng.uniform(-1.0, 1.0, 3), rng.uniform(0.8, 2.0, 3), rng.normal(size=4))
        yield a, b


def surface_area(box):
    x, y, z = box.dims
    return 2.0 * (x * y + y * z + z * x)


def iou_slack(a, b, shift=0.0):
    """Largest change in ``iou3d(a, b)`` that the hull construction allows
    between two evaluations of the same pair, or of the pair with ``b`` moved
    by ``shift`` metres relative to ``a``.

    Every vertex the hull keeps lies within ``r = sqrt(3) * tol + rho`` of
    both boxes: it is a point of one box, computed with rounding ``rho``, and
    within ``tol`` of the other per axis. Every vertex of the exact
    intersection is a candidate within ``rho`` of its exact place, so it is
    kept. Either hull volume therefore lies within ``(S_a + S_b) * (r + rho)``
    of the exact one, to first order (``S`` are surface areas). Moving ``b``
    by ``shift`` changes the exact volume by at most ``S_b * shift``. With
    ``U >= max(V_a, V_b)`` the union, IoU moves by at most ``2 / max(V_a,
    V_b)`` per unit of intersection volume. ``rho`` is 64 roundings of the
    largest coordinate in ``a``'s frame: a generous count for the quaternion
    to matrix products and the edge crossings.
    """
    tol = geometry._INSIDE_TOL * max(a.dims.max(), b.dims.max())
    extent = np.linalg.norm(b.center - a.center) + max(a.dims.max(), b.dims.max())
    rho = 64.0 * np.finfo(np.float64).eps * extent
    spread = (surface_area(a) + surface_area(b)) * (math.sqrt(3.0) * tol + 2.0 * rho) + surface_area(b) * shift
    return 2.0 * spread / max(a.volume, b.volume)


class TestIoU3DInvariants:
    """Metamorphic checks on C2's pairs. The two sides build their hulls from
    differently rounded vertices, so they may differ in the last bits, but
    never by more than :func:`iou_slack`."""

    def test_symmetric(self):
        """``iou3d(b, a)`` works in ``b``'s frame, ``iou3d(a, b)`` in ``a``'s:
        the same vertices, rounded differently."""
        for a, b in c2_pairs(2000):
            assert abs(iou3d(a, b) - iou3d(b, a)) <= iou_slack(a, b)

    def test_rigid_translation_far_from_the_origin(self):
        """Both boxes moved by (1e4, -3e3, 7e3) m. Each moved center is
        rounded to within half a unit in the last place of its largest
        coordinate, so ``b`` moves relative to ``a`` by at most sqrt(3) of
        those units. The rest of the computation sees the same relative
        offset, as the frame is ``a``'s."""
        move = np.array([1e4, -3e3, 7e3])
        for a, b in c2_pairs(500):
            a2 = Box3D(a.center + move, a.dims, a.quaternion)
            b2 = Box3D(b.center + move, b.dims, b.quaternion)
            coordinate = max(np.abs(a2.center).max(), np.abs(b2.center).max())
            shift = math.sqrt(3.0) * float(np.spacing(coordinate))
            assert abs(iou3d(a, b) - iou3d(a2, b2)) <= iou_slack(a, b, shift)


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
