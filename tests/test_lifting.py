"""Geometric 2D-to-3D lifting: stage contracts and end-to-end recovery."""

import math

import numpy as np
import pytest
from scipy.ndimage import binary_erosion, distance_transform_edt

from mono3dkit import lifting
from mono3dkit import (
    Box2D,
    Box3D,
    CameraModel,
    SceneCloud,
    SynthSpec,
    adaptive_select,
    anchor_weights,
    cloud_from_depth,
    correct_rotation,
    estimate_gravity,
    extract_object_points,
    fit_oriented_box,
    inclusion_loss,
    iou3d,
    largest_cluster,
    lift_annotation,
    matrix_to_quat,
    optimize_translation,
    project,
    projected_box2d,
    projection_loss,
    quat_to_matrix,
    random_quaternion,
    remove_outliers,
    sample_anchors,
    scale_depth_to_box2d,
    synth_scene,
    tightness_loss,
    yaw_of_rotation,
    yaw_to_matrix,
)

CAM = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)


def yaw_quat(yaw):
    return np.array([math.cos(yaw / 2.0), 0.0, math.sin(yaw / 2.0), 0.0])


def yaw_error_mod_90(a: Box3D, b: Box3D) -> float:
    """Yaw difference in degrees; a quarter turn with the footprint sides swapped is the same box."""
    turn = math.degrees(yaw_of_rotation(a.rotation) - yaw_of_rotation(b.rotation))
    return abs((turn + 45.0) % 90.0 - 45.0)


def cube_cloud(center, dims, yaw=0.0, n=4000, seed=7):
    """Uniform samples on the surface of an oriented box."""
    rng = np.random.default_rng(seed)
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    local = np.zeros((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 0.5, -0.5)
    for a in range(3):
        rows = axis == a
        others = [k for k in range(3) if k != a]
        local[rows, a] = sign[rows]
        local[rows, others[0]] = uv[rows, 0]
        local[rows, others[1]] = uv[rows, 1]
    local *= np.asarray(dims)
    rot = quat_to_matrix(yaw_quat(yaw))
    return local @ rot.T + np.asarray(center)


class TestExtractObjectPoints:
    def make_cloud(self, h, w):
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        pixels = np.column_stack([rows.ravel(), cols.ravel()]).astype(np.int64)
        points = np.column_stack(
            [pixels[:, 1].astype(float), pixels[:, 0].astype(float), np.ones(h * w)]
        )
        return SceneCloud(points=points, pixels=pixels)

    def test_full_mask_loses_one_pixel_border(self):
        cloud = self.make_cloud(10, 8)
        mask = np.ones((10, 8), dtype=bool)
        pts = extract_object_points(cloud, mask)
        assert pts.shape[0] == 8 * 6
        # Survivors are exactly the interior pixels.
        assert pts[:, 0].min() == 1 and pts[:, 0].max() == 6
        assert pts[:, 1].min() == 1 and pts[:, 1].max() == 8

    def test_empty_mask_raises(self):
        cloud = self.make_cloud(5, 5)
        with pytest.raises(ValueError):
            extract_object_points(cloud, np.zeros((5, 5), dtype=bool))

    def test_mask_vanishing_under_erosion_raises(self):
        cloud = self.make_cloud(5, 5)
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, :] = True  # one-pixel line erodes away
        with pytest.raises(ValueError):
            extract_object_points(cloud, mask)

    def test_missing_provenance_raises(self):
        cloud = SceneCloud(points=np.ones((4, 3)), pixels=np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            extract_object_points(cloud, np.ones((5, 5), dtype=bool))


class TestRemoveOutliers:
    def test_single_far_point_dropped(self):
        rng = np.random.default_rng(0)
        blob = rng.normal(scale=0.1, size=(100, 3))
        pts = np.vstack([blob, [[100.0, 0.0, 0.0]]])
        out = remove_outliers(pts)
        assert out.shape[0] == 100
        assert np.abs(out).max() < 1.0

    def test_uniform_cube_mostly_kept(self):
        # Boundary points carry larger neighbor distances, so retention is
        # density dependent; 2000 samples keep the statistic stable.
        for seed in range(20):
            pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(2000, 3))
            out = remove_outliers(pts)
            assert out.shape[0] >= 0.95 * 2000

    def test_small_inputs_pass_through(self):
        pts = np.random.default_rng(1).normal(size=(10, 3))
        out = remove_outliers(pts, k=16)
        assert np.array_equal(out, pts)
        out[0, 0] = 99.0  # returned array is a copy
        assert pts[0, 0] != 99.0

    def test_duplicate_points_survive(self):
        pts = np.tile(np.array([[1.0, 2.0, 3.0]]), (30, 1))
        out = remove_outliers(pts)
        assert out.shape[0] == 30


def ball_cloud(rng, center, radius, n):
    """Uniform samples inside a ball; compact support keeps blobs connected."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.asarray(center) + v * radius * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)


def bfs_largest_cluster(points, min_points=8):
    """The breadth-first DBSCAN that ``largest_cluster`` replaced, kept as its reference."""
    from scipy.spatial import cKDTree

    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    tree = cKDTree(pts)
    eps = 3.0 * float(np.median(tree.query(pts, k=2)[0][:, 1])) if n > 1 else 0.0
    if eps <= 0:
        raise ValueError("degenerate point spacing; all points classified as noise")
    neighbors = tree.query_ball_point(pts, eps)
    core = np.fromiter((len(nb) >= min_points for nb in neighbors), dtype=bool, count=n)
    labels = np.full(n, -1, dtype=np.int64)
    n_clusters = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = n_clusters
        queue = [i]
        while queue:
            j = queue.pop()
            for nb in neighbors[j]:
                if labels[nb] == -1:
                    labels[nb] = n_clusters
                    if core[nb]:
                        queue.append(nb)
        n_clusters += 1
    if n_clusters == 0:
        raise ValueError("all points classified as noise")
    best_label, best_key = -1, None
    for c in range(n_clusters):
        members = labels == c
        key = (int(np.count_nonzero(members)), -float(pts[members, 2].mean()))
        if best_key is None or key > best_key:
            best_key, best_label = key, c
    return pts[labels == best_label]


def outcome(fn, pts, min_points):
    try:
        return fn(pts, min_points=min_points)
    except ValueError as exc:
        return str(exc)


class TestLargestCluster:
    @pytest.mark.parametrize("min_points", [3, 8, 11])
    def test_equals_breadth_first_reference(self, min_points):
        """Blobs that touch, uniform noise and integer-grid distance ties."""
        rng = np.random.default_rng(100 + min_points)
        kinds = set()
        for trial in range(120):
            parts = [
                ball_cloud(rng, rng.uniform(-2.0, 2.0, 3), rng.uniform(0.3, 1.5), int(rng.integers(5, 120)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            parts.append(rng.uniform(-4.0, 4.0, (int(rng.integers(0, 40)), 3)))
            pts = np.vstack(parts)
            if trial % 3 == 0:
                pts = np.round(pts * 2.0)
            want = outcome(bfs_largest_cluster, pts, min_points)
            got = outcome(largest_cluster, pts, min_points)
            kinds.add(type(want))
            if isinstance(want, str):
                assert got == want
            else:
                assert isinstance(got, np.ndarray) and np.array_equal(got, want), trial
        assert np.ndarray in kinds

    def test_returns_biggest_blob(self):
        rng = np.random.default_rng(2)
        big = ball_cloud(rng, [0, 0, 5], 0.3, 200)
        small = ball_cloud(rng, [3, 0, 5], 0.3, 50)  # separation 10x radius
        out = largest_cluster(np.vstack([big, small]))
        assert out.shape[0] == 200
        assert np.linalg.norm(out.mean(axis=0) - [0, 0, 5]) < 0.1

    def test_single_blob_kept_whole(self):
        pts = ball_cloud(np.random.default_rng(3), [0, 0, 4], 0.5, 120)
        out = largest_cluster(pts)
        assert out.shape[0] == 120

    def test_tie_breaks_toward_smaller_depth(self):
        rng = np.random.default_rng(4)
        near = ball_cloud(rng, [0, 0, 2], 0.3, 80)
        far = ball_cloud(rng, [3, 0, 9], 0.3, 80)
        out = largest_cluster(np.vstack([far, near]))
        assert out.shape[0] == 80
        assert out[:, 2].mean() < 5.0

    def test_all_noise_raises(self):
        pts = np.random.default_rng(5).normal(size=(10, 3))
        with pytest.raises(ValueError):
            largest_cluster(pts, min_points=11)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            largest_cluster(np.zeros((0, 3)))

    def test_identical_points_raise(self):
        with pytest.raises(ValueError):
            largest_cluster(np.ones((20, 3)))


class TestFitOrientedBox:
    def test_axis_aligned_cube(self):
        pts = cube_cloud([0.5, -0.2, 4.0], [1.0, 1.0, 1.0], yaw=0.0, n=4000, seed=0)
        box = fit_oriented_box(pts, lifting.DEFAULT_GRAVITY)
        assert np.allclose(box.center, [0.5, -0.2, 4.0], atol=0.03)
        assert np.all(np.abs(box.dims - 1.0) < 0.02)
        yaw = yaw_of_rotation(box.rotation) % (math.pi / 2.0)
        assert min(yaw, math.pi / 2.0 - yaw) < math.radians(2.0)

    def test_yawed_cube_recovers_heading(self):
        target = math.radians(30.0)
        pts = cube_cloud([0.0, 0.0, 5.0], [0.8, 0.5, 1.6], yaw=target, n=4000, seed=1)
        box = fit_oriented_box(pts, lifting.DEFAULT_GRAVITY)
        yaw = yaw_of_rotation(box.rotation) % math.pi
        best = min(
            abs(yaw - target), abs(yaw - target - math.pi / 2.0), abs(yaw - target + math.pi / 2.0)
        )
        assert best < math.radians(2.0)
        assert np.all(np.abs(np.sort(box.dims) - np.sort([0.8, 0.5, 1.6])) < 0.02 * 1.6)

    def test_height_axis_is_vertical(self):
        pts = cube_cloud([0, 0, 3], [0.6, 0.3, 0.9], yaw=0.7, n=2000, seed=2)
        box = fit_oriented_box(pts, lifting.DEFAULT_GRAVITY)
        assert np.allclose(box.rotation[:, 1], [0.0, 1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("yaw_deg", range(0, 80, 10))
    def test_l_shaped_footprint(self, yaw_deg):
        """Two camera-facing side faces and no top: the footprint is an L.

        Its hull is a right triangle, whose minimum-area rectangle ties
        between the leg-aligned and the hypotenuse-aligned frames. The box
        sits 12 m away, seen along a footprint diagonal.
        """
        bearing = math.radians(yaw_deg - 45)
        center = [12.0 * math.sin(bearing), 0.8, 12.0 * math.cos(bearing)]
        truth = Box3D(center, [4.5, 1.6, 1.8], yaw_quat(math.radians(yaw_deg)))
        pts = cube_cloud(truth.center, truth.dims, yaw=math.radians(yaw_deg), n=6000, seed=yaw_deg)
        local = (pts - truth.center) @ truth.rotation
        normal = np.where(np.isclose(np.abs(local), truth.dims / 2.0), np.sign(local), 0.0) @ truth.rotation.T
        seen = (normal[:, 1] == 0.0) & (np.einsum("ij,ij->i", normal, -pts) > 0.0)
        box = fit_oriented_box(pts[seen], lifting.DEFAULT_GRAVITY)
        assert yaw_error_mod_90(box, truth) < 0.5
        # Footprint sides only: the [1, 99] height percentiles cut 2% of a uniformly sampled height.
        footprint = np.sort(box.dims[[0, 2]])
        assert np.all(np.abs(footprint - [1.8, 4.5]) <= 0.02 * np.array([1.8, 4.5]))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_oriented_box(np.random.default_rng(6).normal(size=(9, 3)), lifting.DEFAULT_GRAVITY)

    def test_planar_points_raise(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 200), np.zeros(200), rng.uniform(2, 4, 200)]
        )
        with pytest.raises(ValueError, match="zero height"):
            fit_oriented_box(pts, lifting.DEFAULT_GRAVITY)

    def test_collinear_footprint_raises(self):
        pts = np.column_stack(
            [np.linspace(0, 1, 50), np.linspace(0, 1, 50), np.full(50, 3.0)]
        )
        with pytest.raises(ValueError):
            fit_oriented_box(pts, lifting.DEFAULT_GRAVITY)


class TestAnchorWeights:
    def test_identical_points_get_unit_weight(self):
        w = anchor_weights(np.tile([[1.0, 2.0, 3.0]], (10, 1)))
        assert np.allclose(w, 1.0)

    def test_alpha_zero_is_uniform(self):
        pts = np.random.default_rng(8).normal(size=(50, 3))
        assert np.allclose(anchor_weights(pts, alpha=0.0), 1.0)

    def test_monotone_in_center_distance(self):
        x = np.linspace(-2.0, 2.0, 41)
        pts = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
        w = anchor_weights(pts)
        order = np.argsort(np.abs(x - x.mean()))
        assert np.all(np.diff(w[order]) <= 1e-12)

    def test_empty(self):
        assert anchor_weights(np.zeros((0, 3))).shape == (0,)


class TestSampleAnchors:
    def test_small_input_passes_through(self):
        pts = np.random.default_rng(9).normal(size=(40, 3))
        w = np.ones(40)
        out_p, out_w = sample_anchors(pts, w, count=256)
        assert np.array_equal(out_p, pts)
        assert np.array_equal(out_w, w)

    def test_subsample_count_and_alignment(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(1000, 3))
        w = rng.uniform(0.1, 1.0, size=1000)
        out_p, out_w = sample_anchors(pts, w, count=256, seed=1)
        assert out_p.shape == (256, 3)
        assert out_w.shape == (256,)
        # Each sampled row matches one original row with its weight.
        for p, ww in zip(out_p[:20], out_w[:20]):
            idx = np.where((pts == p).all(axis=1))[0]
            assert idx.size == 1 and w[idx[0]] == ww

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(500, 3))
        w = rng.uniform(0.5, 1.0, size=500)
        a = sample_anchors(pts, w, count=100, seed=5)
        b = sample_anchors(pts, w, count=100, seed=5)
        assert np.array_equal(a[0], b[0])
        c = sample_anchors(pts, w, count=100, seed=6)
        assert not np.array_equal(a[0], c[0])


class TestTranslationLosses:
    BOX = Box3D(center=[0.0, 0.0, 0.0], dims=[2.0, 2.0, 2.0], quaternion=[1, 0, 0, 0])

    def test_inclusion_zero_inside(self):
        pts = np.random.default_rng(12).uniform(-0.9, 0.9, size=(100, 3))
        assert inclusion_loss(self.BOX, pts, np.ones(100)) == 0.0

    def test_inclusion_known_value(self):
        pts = np.array([[1.52, 0.0, 0.0]])
        # 0.5 beyond the half-dim + 0.02 buffer.
        assert inclusion_loss(self.BOX, pts, np.ones(1)) == pytest.approx(0.5)

    def test_inclusion_weighted_mean(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.52, 0.0, 0.0]])
        assert inclusion_loss(self.BOX, pts, np.array([1.0, 1.0])) == pytest.approx(0.25)
        assert inclusion_loss(self.BOX, pts, np.array([3.0, 1.0])) == pytest.approx(0.125)

    def test_inclusion_respects_rotation(self):
        box = Box3D([0, 0, 0], [2.0, 2.0, 4.0], yaw_quat(math.pi / 2.0))
        # After a quarter turn the long axis lies along x.
        inside = np.array([[1.8, 0.0, 0.0]])
        outside = np.array([[0.0, 0.0, 1.8]])
        assert inclusion_loss(box, inside, np.ones(1)) == 0.0
        assert inclusion_loss(box, outside, np.ones(1)) > 0.5

    def test_tightness_zero_on_surface_cloud(self):
        pts = cube_cloud([0, 0, 0], [2, 2, 2], n=2000, seed=13)
        assert tightness_loss(self.BOX, pts) == 0.0

    def test_tightness_known_value(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        # All six faces are 1 away from the lone anchor; hinge at 0.1.
        assert tightness_loss(self.BOX, pts) == pytest.approx(0.9)
        assert tightness_loss(self.BOX, pts, buffer=1.0) == 0.0

    def test_projected_box2d_matches_manual(self):
        box = Box3D([0.3, -0.1, 6.0], [1.0, 0.8, 2.0], yaw_quat(0.5))
        px = project(CAM, box.corners())
        b = projected_box2d(box, CAM)
        assert b.x1 == pytest.approx(px[:, 0].min())
        assert b.y2 == pytest.approx(px[:, 1].max())

    def test_projection_loss_zero_at_exact_match(self):
        box = Box3D([0, 0, 5], [1, 1, 1], [1, 0, 0, 0])
        assert projection_loss(box, projected_box2d(box, CAM), CAM) == pytest.approx(0.0)

    def test_projection_loss_behind_camera_penalty(self):
        box = Box3D([0, 0, 0.3], [1, 1, 1], [1, 0, 0, 0])
        assert projection_loss(box, Box2D(0, 0, 10, 10), CAM) >= 1e6


class TestOptimizeTranslation:
    def make_problem(self):
        center = np.array([0.2, 0.1, 3.0])
        pts = cube_cloud(center, [1.0, 1.0, 1.0], n=4000, seed=7)
        w = anchor_weights(pts)
        a_pts, a_w = sample_anchors(pts, w, 256, seed=3)
        true_box = Box3D(center, [1.0, 1.0, 1.0], [1, 0, 0, 0])
        box2d = projected_box2d(true_box, CAM)
        return center, a_pts, a_w, box2d

    def test_recovers_offset_start(self):
        center, a_pts, a_w, box2d = self.make_problem()
        start = Box3D(center + [0.3, 0.0, 0.0], [1.0, 1.0, 1.0], [1, 0, 0, 0])
        res = optimize_translation(start, a_pts, a_w, box2d, CAM)
        assert np.linalg.norm(res.box.center - center) <= 0.05
        assert np.array_equal(res.box.dims, start.dims)

    def test_grid_evaluation_count(self):
        center, a_pts, a_w, box2d = self.make_problem()
        start = Box3D(center + [0.1, 0.1, 0.0], [1.0, 1.0, 1.0], [1, 0, 0, 0])
        res = optimize_translation(start, a_pts, a_w, box2d, CAM)
        assert res.n_grid_evaluations == 125

    def test_refinement_never_worse_than_grid(self):
        center, a_pts, a_w, box2d = self.make_problem()
        rng = np.random.default_rng(14)
        for _ in range(5):
            start = Box3D(center + rng.uniform(-0.3, 0.3, 3), [1, 1, 1], [1, 0, 0, 0])
            res = optimize_translation(start, a_pts, a_w, box2d, CAM)
            assert res.loss <= res.grid_loss + 1e-12

    def test_optimum_is_stable(self):
        center, a_pts, a_w, box2d = self.make_problem()
        start = Box3D(center, [1.0, 1.0, 1.0], [1, 0, 0, 0])
        first = optimize_translation(start, a_pts, a_w, box2d, CAM)
        again = optimize_translation(first.box, a_pts, a_w, box2d, CAM)
        assert np.linalg.norm(again.box.center - first.box.center) <= 0.02


class TestFallbackAndSelection:
    def test_scale_depth_convention(self):
        box = Box3D([0.0, 0.0, 10.0], [1.0, 1.0, 1.0], [1, 0, 0, 0])
        proj = projected_box2d(box, CAM)
        # Annotated box twice the projected size: s = 2, depth halves.
        big = Box2D(proj.x1 * 2 - proj.center[0], proj.y1 * 2 - proj.center[1],
                    proj.x2 * 2 - proj.center[0], proj.y2 * 2 - proj.center[1])
        s = 0.7 * (big.height / proj.height) + 0.3 * (big.width / proj.width)
        out = scale_depth_to_box2d(box, big, CAM)
        assert out.center[2] == pytest.approx(10.0 / s)
        assert np.array_equal(out.dims, box.dims)

    def test_larger_annotation_brings_box_closer(self):
        box = Box3D([0.5, 0.2, 8.0], [1.0, 0.8, 1.4], yaw_quat(0.3))
        proj = projected_box2d(box, CAM)
        cx, cy = proj.center
        big = Box2D(
            cx + 1.5 * (proj.x1 - cx), cy + 1.5 * (proj.y1 - cy),
            cx + 1.5 * (proj.x2 - cx), cy + 1.5 * (proj.y2 - cy),
        )
        out = scale_depth_to_box2d(box, big, CAM)
        assert out.center[2] < box.center[2]
        # And the corrected projection now matches the annotation closely.
        newproj = projected_box2d(out, CAM)
        assert abs(newproj.height - big.height) / big.height < 0.1

    def test_select_optimized_when_projection_agrees(self):
        box = Box3D([0, 0, 6], [1, 1, 1], [1, 0, 0, 0])
        fallback = Box3D([5, 5, 20], [1, 1, 1], [1, 0, 0, 0])
        chosen, branch = adaptive_select(box, fallback, projected_box2d(box, CAM), CAM)
        assert chosen is box and branch == "optimized"

    def test_select_fallback_when_projection_drifts(self):
        box = Box3D([0, 0, 6], [1, 1, 1], [1, 0, 0, 0])
        fallback = Box3D([0, 0, 12], [1, 1, 1], [1, 0, 0, 0])
        far2d = Box2D(0.0, 0.0, 40.0, 40.0)
        chosen, branch = adaptive_select(box, fallback, far2d, CAM)
        assert chosen is fallback and branch == "fallback"


class TestGravityAndRotation:
    def floor_points(self, tilt_deg=0.0, n=800, seed=15):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, n)
        z = rng.uniform(2, 8, n)
        y = 1.5 + math.tan(math.radians(tilt_deg)) * x
        return np.column_stack([x, y, z])

    def test_flat_floor_gives_default(self):
        g = estimate_gravity(self.floor_points())
        assert np.allclose(g, [0.0, -1.0, 0.0], atol=1e-6)

    def test_small_tilt_recovered(self):
        g = estimate_gravity(self.floor_points(tilt_deg=5.0))
        true_n = np.array([math.sin(math.radians(5.0)), -math.cos(math.radians(5.0)), 0.0])
        assert abs(float(g @ true_n)) > math.cos(math.radians(0.5))

    def test_steep_plane_rejected(self):
        g = estimate_gravity(self.floor_points(tilt_deg=40.0))
        assert np.allclose(g, [0.0, -1.0, 0.0])

    def test_few_points_default(self):
        g = estimate_gravity(np.zeros((3, 3)))
        assert np.allclose(g, [0.0, -1.0, 0.0])

    def test_aligned_box_is_fixed_point(self):
        box = Box3D([0.2, 0.3, 5.0], [0.8, 0.5, 1.4], yaw_quat(0.9))
        scene = self.floor_points()
        out = correct_rotation(box, scene)
        assert np.allclose(out.rotation, box.rotation, atol=1e-9)

    def test_tilt_removed(self):
        yaw = 0.4
        tilt = math.radians(10.0)
        # Compose: yaw about y, then a 10-degree roll about z.
        roll = np.array(
            [math.cos(tilt / 2.0), 0.0, 0.0, math.sin(tilt / 2.0)]
        )
        rot = quat_to_matrix(roll) @ yaw_to_matrix(yaw)
        upright = Box3D([0.0, 0.2, 5.0], [0.5, 0.3, 1.1], yaw_quat(yaw))
        tilted = Box3D(upright.center, upright.dims, matrix_to_quat(rot))
        out = correct_rotation(tilted, self.floor_points())
        assert np.allclose(out.rotation[:, 1], [0.0, 1.0, 0.0], atol=1e-9)
        err = abs(yaw_of_rotation(out.rotation) % math.pi - yaw)
        assert min(err, math.pi - err) < math.radians(2.0)


class TestRoadRegime:
    """Cars seen from roof height: side faces and rarely a top, at 5-40 m."""

    def test_footprint_of_side_faces(self):
        cam = CameraModel(600.0, 600.0, 640.0, 480.0, 1280, 960)
        spec = dict(dims_range=(1.6, 4.5), height_range=(1.4, 1.8), depth_range=(5.0, 40.0), floor_y=1.6)
        yaw_errs, center_errs, ious = [], [], []
        for seed in range(12):
            scene = synth_scene(SynthSpec(n_boxes=1 + seed % 3, **spec), cam, seed=seed)
            cloud = cloud_from_depth(scene.depth, cam)
            for box, mask, ann in zip(scene.boxes, scene.masks, scene.annotations):
                cand = lift_annotation(cloud, mask, Box2D(*ann.box2d), cam)
                yaw_errs.append(yaw_error_mod_90(cand.box, box))
                center_errs.append(np.linalg.norm(cand.box.center - box.center) / box.center[2])
                ious.append(iou3d(cand.box, box))
        assert len(ious) == 24
        assert np.median(yaw_errs) < 2.0
        assert np.median(center_errs) <= 0.02
        assert np.median(ious) >= 0.6


class TestPitchedCamera:
    """A camera pitched 10 degrees: the box fit must stand along the scene's gravity, not the camera's y axis."""

    CAM = CameraModel(600.0, 600.0, 640.0, 480.0, 1280, 960)

    def test_every_object_within_c6_bounds(self):
        t = math.radians(10.0)
        pitch = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(t), -math.sin(t)], [0.0, math.sin(t), math.cos(t)]])
        n_objects = 0
        for seed in range(5):
            scene = synth_scene(SynthSpec(n_boxes=1 + seed % 5), self.CAM, seed=seed)
            cloud = cloud_from_depth(scene.depth, self.CAM)
            # Turning about the camera centre keeps every point's source pixel, so each mask still selects its object.
            pitched = SceneCloud(cloud.points @ pitch.T, cloud.pixels)
            for box, mask in zip(scene.boxes, scene.masks):
                truth = Box3D(pitch @ box.center, box.dims, matrix_to_quat(pitch @ box.rotation))
                cand = lift_annotation(pitched, mask, projected_box2d(truth, self.CAM), self.CAM)
                assert np.linalg.norm(cand.box.center - truth.center) <= 0.1, (seed, n_objects)
                rel = np.abs(np.sort(cand.box.dims) - np.sort(truth.dims)) / np.sort(truth.dims)
                assert np.max(rel) <= 0.1, (seed, n_objects)
                n_objects += 1
        assert n_objects == 15


class TestLiftAnnotation:
    def make_scene(self):
        cam = CameraModel(600.0, 600.0, 640.0, 480.0, 1280, 960)
        scene = synth_scene(SynthSpec(n_boxes=1), cam, seed=0)
        cloud = cloud_from_depth(scene.depth, cam)
        return scene, cloud, cam

    def test_recovers_synthetic_object(self):
        scene, cloud, cam = self.make_scene()
        ann = scene.annotations[0]
        cand = lift_annotation(cloud, scene.masks[0], Box2D(*ann.box2d), cam)
        gt = scene.boxes[0]
        assert np.linalg.norm(cand.box.center - gt.center) <= 0.1
        rel = np.abs(np.sort(cand.box.dims) - np.sort(gt.dims)) / np.sort(gt.dims)
        assert np.max(rel) <= 0.1

    def test_candidate_structure(self):
        scene, cloud, cam = self.make_scene()
        ann = scene.annotations[0]
        cand = lift_annotation(cloud, scene.masks[0], Box2D(*ann.box2d), cam)
        assert cand.generator == "ransac_pca"
        assert cand.status == "optimized"
        for key in ("inclusion", "tightness", "projection"):
            assert key in cand.losses
        m = cand.measurements
        assert m["n_grid_evaluations"] == 125
        assert m["branch"] in ("optimized", "fallback")
        assert m["n_extracted"] >= m["n_after_outliers"] >= m["n_cluster"] > 0
        assert m["n_anchors"] <= 256

    def test_deterministic(self):
        scene, cloud, cam = self.make_scene()
        ann = scene.annotations[0]
        a = lift_annotation(cloud, scene.masks[0], Box2D(*ann.box2d), cam, seed=4)
        b = lift_annotation(cloud, scene.masks[0], Box2D(*ann.box2d), cam, seed=4)
        assert np.array_equal(a.box.center, b.box.center)
        assert np.array_equal(a.box.dims, b.box.dims)
        assert np.array_equal(a.box.quaternion, b.box.quaternion)


def flying_pixels(scene, rng):
    """A quarter of each mask's 3-px border pushed 0.5-2 m back in depth, as at a depth edge."""
    depth = scene.depth.copy()
    for mask in scene.masks:
        border = np.flatnonzero(mask & ~binary_erosion(mask, iterations=3))
        pick = rng.choice(border, size=len(border) // 4, replace=False)
        depth.flat[pick] += rng.uniform(0.5, 2.0, size=pick.size)
    return depth, scene.masks


def neighbour_leak(scene, rng):
    """Each mask OR'd with the next object's pixels within 8 px of it."""
    n = len(scene.masks)
    near = [distance_transform_edt(~m) <= 8.0 for m in scene.masks]
    return scene.depth, [m | (scene.masks[(k + 1) % n] & near[k]) for k, m in enumerate(scene.masks)]


def disconnected_patch(scene, rng):
    """Each mask plus a 12 x 12 px patch of floor more than 20 px from every object."""
    floor = (scene.instance_map == 0) & (scene.depth > 0) & (distance_transform_edt(scene.instance_map == 0) > 20.0)
    masks = []
    for mask in scene.masks:
        while True:
            r, c = rng.integers(0, floor.shape[0] - 12), rng.integers(0, floor.shape[1] - 12)
            if floor[r : r + 12, c : c + 12].all():
                break
        mask = mask.copy()
        mask[r : r + 12, c : c + 12] = True
        masks.append(mask)
    return scene.depth, masks


class TestLiftDropsContamination:
    """Points that are not the object's never reach the box fit.

    ``remove_outliers`` and ``largest_cluster`` are the only rejection steps
    before the footprint rectangle. On a C6 scene of two boxes whose masks
    lie within 8 px of each other, each way a mask goes wrong must still
    leave every object within C6's bounds.
    """

    CAM = CameraModel(600.0, 600.0, 640.0, 480.0, 1280, 960)

    @pytest.fixture(scope="class")
    def scene(self):
        return synth_scene(SynthSpec(n_boxes=2), self.CAM, seed=4)

    @pytest.mark.parametrize("contaminate", [flying_pixels, neighbour_leak, disconnected_patch], ids=lambda f: f.__name__)
    def test_every_object_within_c6_bounds(self, scene, contaminate):
        depth, masks = contaminate(scene, np.random.default_rng(0))
        added = sum(int(np.count_nonzero(m & ~clean)) for m, clean in zip(masks, scene.masks))
        assert added > 0 or not np.array_equal(depth, scene.depth)
        cloud = cloud_from_depth(depth, self.CAM)
        for box, mask, ann in zip(scene.boxes, masks, scene.annotations):
            cand = lift_annotation(cloud, mask, Box2D(*ann.box2d), self.CAM)
            assert np.linalg.norm(cand.box.center - box.center) <= 0.1
            assert np.max(np.abs(np.sort(cand.box.dims) - np.sort(box.dims)) / np.sort(box.dims)) <= 0.1


# ---------------------------------------------------------------------------
# Batched kernels against the one-at-a-time evaluation they replace
# ---------------------------------------------------------------------------
#
# The references below score one box placement at a time, as
# the lifting stages did before they were batched.
# The batched kernels must reproduce them bit for bit.


def reference_giou(a: Box2D, b: Box2D) -> float:
    iw = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    ih = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = iw * ih
    union = a.area + b.area - inter
    hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    if hull <= 0:
        return 1.0 if union == inter else 0.0
    iou = inter / union if union > 0 else 0.0
    return float(iou - (hull - union) / hull)


def reference_projection(box, box2d, camera):
    corners = box.corners()
    if corners[:, 2].min() <= 1e-6:
        return 1e6
    px = project(camera, corners)
    proj = Box2D(float(px[:, 0].min()), float(px[:, 1].min()), float(px[:, 0].max()), float(px[:, 1].max()))
    return 1.0 - reference_giou(proj, box2d)


def reference_terms(box, anchors, weights, box2d, camera):
    """(inclusion, tightness, projection) losses of one box."""
    local = (anchors - box.center) @ box.rotation
    half = box.dims / 2.0
    over = np.maximum(np.abs(local) - (half + 0.02), 0.0)
    inclusion = float(np.sum(weights * np.linalg.norm(over, axis=1)) / np.sum(weights))
    tightness = 0.0
    for axis in range(3):
        for sign in (1.0, -1.0):
            tightness += max(0.0, float(np.min(np.abs(local[:, axis] - sign * half[axis]))) - 0.1)
    return inclusion, tightness / 6.0, reference_projection(box, box2d, camera)


def reference_objective(box, anchors, weights, box2d, camera, center):
    """The weighted loss sum of ``box`` moved to ``center``."""
    moved = Box3D(center, box.dims, box.quaternion)
    inclusion, tightness, projection = reference_terms(moved, anchors, weights, box2d, camera)
    return 1.0 * inclusion + 0.5 * tightness + 0.5 * projection


def reference_optimize_translation(box, anchors, weights, box2d, camera):
    """optimize_translation's lattice scan and polish with one objective call per center."""
    from scipy.optimize import minimize

    def objective(center):
        return reference_objective(box, anchors, weights, box2d, camera, center)

    axes = [np.linspace(-h, h, 5) for h in box.dims / 2.0]
    best_center, best_val = None, math.inf
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                c = box.center + np.array([x, y, z])
                val = objective(c)
                if val < best_val:
                    best_center, best_val = c, val

    def jac(center):
        g = np.zeros(3)
        for k in range(3):
            step = np.zeros(3)
            step[k] = 1e-4
            g[k] = (objective(center + step) - objective(center - step)) / 2e-4
        return g

    bounds = [(box.center[k] - box.dims[k] / 2.0, box.center[k] + box.dims[k] / 2.0) for k in range(3)]
    options = {"maxiter": 100, "ftol": 1e-6}
    res = minimize(objective, best_center, jac=jac, method="L-BFGS-B", bounds=bounds, options=options)
    if float(res.fun) > best_val:
        return best_center, best_val, best_val
    return res.x, float(res.fun), best_val


def reference_footprint_rectangle(fp):
    """_footprint_rectangle with each hull edge's closeness scored in its own loop step."""
    from scipy.spatial import ConvexHull

    hp = fp[ConvexHull(fp).vertices]
    floor = 0.05 * math.hypot(*(fp.max(axis=0) - fp.min(axis=0)))
    scores = {}
    for k in range(len(hp)):
        edge = hp[(k + 1) % len(hp)] - hp[k]
        ne = float(np.linalg.norm(edge))
        if ne < 1e-12:
            continue
        c, s = edge[0] / ne, edge[1] / ne
        q = fp @ np.array([[c, -s], [s, c]])
        d = np.minimum(q - q.min(axis=0), q.max(axis=0) - q).min(axis=1)
        scores[k] = float(np.sum(1.0 / np.maximum(d, floor)))
    best = max(scores.values())
    k = next(k for k, score in scores.items() if score >= best * (1.0 - 1e-12))
    edge = hp[(k + 1) % len(hp)] - hp[k]
    ne = float(np.linalg.norm(edge))
    c, s = edge[0] / ne, edge[1] / ne
    rot = np.array([[c, -s], [s, c]])
    q = hp @ rot
    lo, hi = q.min(axis=0), q.max(axis=0)
    return math.atan2(s, c), 0.5 * (lo + hi) @ rot.T, hi - lo


class TestBatchedKernelsEqualOneAtATime:
    def problem(self, seed):
        rng = np.random.default_rng(seed)
        center = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5), rng.uniform(2.0, 4.0)])
        dims = rng.uniform(0.3, 1.2, size=3)
        # Odd seeds take a general rotation whose matrix changes in the last
        # bits when a moved Box3D re-normalises the quaternion.
        quat = yaw_quat(rng.uniform(0.0, math.pi))
        while seed % 2:
            quat = Box3D(center, dims, random_quaternion(rng)).quaternion
            if not np.array_equal(quat_to_matrix(quat), Box3D(center, dims, quat).rotation):
                break
        pts = cube_cloud(center, dims, yaw=rng.uniform(0.0, math.pi), n=3000, seed=seed)
        a_pts, a_w = sample_anchors(pts, anchor_weights(pts), 256, seed=seed)
        box = Box3D(center + rng.uniform(-0.2, 0.2, 3), dims * rng.uniform(0.8, 1.2, 3), quat)
        box2d = projected_box2d(Box3D(center, dims, quat), CAM)
        return box, a_pts, a_w, box2d

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_equals_sum_of_scalar_losses(self, seed):
        box, a_pts, a_w, box2d = self.problem(seed)
        rng = np.random.default_rng(100 + seed)
        axes = [np.linspace(-h, h, 5) for h in box.dims / 2.0]
        grid = box.center + np.array([[x, y, z] for x in axes[0] for y in axes[1] for z in axes[2]])
        scattered = box.center + rng.uniform(-1.0, 1.0, size=(40, 3)) * box.dims
        # Centers that put some or all corners behind the camera.
        behind = np.column_stack([rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), rng.uniform(-3.0, 0.3, 10)])
        # Nearest corner just past, and just short of, the camera's 1e-6 m cut-off.
        nearest = (box.corners() - box.center)[:, 2].min()
        grazing = box.center + np.outer([5e-4, 2e-6, 5e-7], [0.0, 0.0, 1.0]) - [0.0, 0.0, box.center[2] + nearest]
        centers = np.vstack([grid, scattered, behind, grazing])
        batched = lifting._translation_objective(box, a_pts, a_w, box2d, CAM)(centers)
        expected = [reference_objective(box, a_pts, a_w, box2d, CAM, c) for c in centers]
        assert batched.tolist() == expected
        assert np.count_nonzero(batched >= 0.5e6) >= 11  # weighted penalty rows
        assert (batched[-3:] < 0.5e6).tolist() == [True, True, False]

    @pytest.mark.parametrize("seed", range(3))
    def test_translation_search_equals_one_center_at_a_time(self, seed):
        box, a_pts, a_w, box2d = self.problem(seed)
        res = optimize_translation(box, a_pts, a_w, box2d, CAM)
        center, loss, grid_loss = reference_optimize_translation(box, a_pts, a_w, box2d, CAM)
        assert np.array_equal(res.box.center, center)
        assert (res.loss, res.grid_loss) == (loss, grid_loss)

    @pytest.mark.parametrize("seed", range(3))
    def test_public_losses_equal_scalar_references(self, seed):
        box, a_pts, a_w, box2d = self.problem(seed)
        got = (inclusion_loss(box, a_pts, a_w), tightness_loss(box, a_pts), projection_loss(box, box2d, CAM))
        assert got == reference_terms(box, a_pts, a_w, box2d, CAM)

    def test_lattice_ties_go_to_the_first_point(self, monkeypatch):
        box, a_pts, a_w, box2d = self.problem(0)
        monkeypatch.setattr(lifting, "_translation_objective", lambda *args: lambda centers: np.zeros(len(centers)))
        res = optimize_translation(box, a_pts, a_w, box2d, CAM)
        assert np.array_equal(res.box.center, box.center - box.dims / 2.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_footprint_scores_equal_per_edge_loop(self, seed):
        """Whole surfaces, side faces only (an L or an I), and noisy copies of both."""
        rng = np.random.default_rng(seed)
        dims = rng.uniform(0.3, 4.5, 3)
        if seed >= 4:  # a square footprint scores each side's frame and its quarter turn alike
            dims[2] = dims[0]
        pts = cube_cloud([0.0, 0.0, 5.0], dims, yaw=rng.uniform(0.0, math.pi), n=3000, seed=seed)
        sides = pts[np.abs(pts[:, 1]) < 0.5 * dims[1] - 1e-9]
        u, v = lifting._horizontal_basis(lifting._height_axis(lifting.DEFAULT_GRAVITY))
        for cloud in (pts, sides, sides[sides[:, 2] < 5.0], pts + rng.normal(scale=0.01, size=pts.shape)):
            fp = np.column_stack([cloud @ u, cloud @ v])
            theta, center, extents = lifting._footprint_rectangle(fp)
            want_theta, want_center, want_extents = reference_footprint_rectangle(fp)
            assert theta == want_theta
            assert np.array_equal(center, want_center) and np.array_equal(extents, want_extents)
