"""Geometric 2D-to-3D lifting: point extraction, box fitting, refinement.

The pipeline turns (point cloud, instance mask, 2D box, camera) into an
oriented 3D box candidate:

    extract_object_points -> remove_outliers -> largest_cluster
    -> fit_oriented_box (in the frame of estimate_gravity over the scene)
    -> optimize_translation -> adaptive_select

Only the anchor subsample draws random numbers, from the seed given to
:func:`lift_annotation`; every other stage is deterministic. Distances are
meters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import binary_erosion
from scipy.optimize import minimize
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .camera import CameraModel, projected_box2d, projected_extents
from .geometry import Box2D, Box3D, box_corners, giou2d_rows, iou2d, matrix_to_quat

__all__ = [
    "DEFAULT_GRAVITY",
    "LiftCandidate",
    "TranslationResult",
    "extract_object_points",
    "remove_outliers",
    "largest_cluster",
    "fit_oriented_box",
    "anchor_weights",
    "sample_anchors",
    "inclusion_loss",
    "tightness_loss",
    "projection_loss",
    "optimize_translation",
    "scale_depth_to_box2d",
    "adaptive_select",
    "estimate_gravity",
    "correct_rotation",
    "lift_annotation",
]

# Vertical axis of a level camera's frame (y points down in pixel space);
# estimate_gravity falls back to it.
DEFAULT_GRAVITY = np.array([0.0, -1.0, 0.0])

_BEHIND_CAMERA_PENALTY = 1e6

# Cleaning and box fitting.
_OUTLIER_SIGMA = 2.0  # drop points beyond mean + sigma * std of the kNN statistic
_EPS_FACTOR = 3.0  # cluster radius in median nearest-neighbor distances
_HEIGHT_PERCENTILES = (1.0, 99.0)
_CLOSENESS_FLOOR = 0.05  # least point-to-side distance in the closeness score, in footprint diagonals

# Translation search: anchors, objective weights and the L-BFGS-B polish.
_ANCHOR_COUNT = 256
_MAHALANOBIS_ALPHA = 0.5
_INCLUSION_BUFFER = 0.02
_TIGHTNESS_BUFFER = 0.1
_LAMBDA_INCLUSION = 1.0
_LAMBDA_TIGHTNESS = 0.5
_LAMBDA_PROJECTION = 0.5
_MAX_ITERATIONS = 100
_F_TOL = 1e-6
_FD_STEP = 1e-4
_GRID_SIZE = 5  # lattice side; odd, so the unshifted center is a lattice point

# Fallback selection and gravity estimation.
_PROJECTED_IOU_THRESHOLD = 0.4
_MAX_TILT_DEG = 15.0


@dataclass
class TranslationResult:
    """Outcome of the two-stage translation search."""

    box: Box3D
    loss: float
    grid_loss: float
    n_grid_evaluations: int


@dataclass
class LiftCandidate:
    """A lifted 3D box with its provenance and diagnostics."""

    box: Box3D
    # A stable label, not a description of the fit: it reaches output bytes
    # and ``filters.small_upgrade_allowed``.
    generator: str = "ransac_pca"
    status: str = "raw"  # raw | optimized | filtered
    losses: dict = field(default_factory=dict)
    measurements: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Point extraction and cleaning
# ---------------------------------------------------------------------------


def extract_object_points(cloud, mask) -> np.ndarray:
    """Cloud points whose source pixel survives one erosion of the mask.

    Args:
        cloud: a SceneCloud (``points`` (N, 3), ``pixels`` (N, 2) as
            (row, col) provenance).
        mask: (H, W) boolean instance mask.

    Raises:
        ValueError: empty mask, or no points left after erosion.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty instance mask")
    eroded = binary_erosion(mask, structure=np.ones((3, 3), dtype=bool))
    if not eroded.any():
        raise ValueError("mask vanished under erosion")
    px = cloud.pixels
    if px is None or len(px) != len(cloud.points):
        raise ValueError("cloud lacks per-point pixel provenance")
    sel = eroded[px[:, 0], px[:, 1]]
    pts = cloud.points[sel]
    if pts.shape[0] == 0:
        raise ValueError("no cloud points inside the eroded mask")
    return pts


def remove_outliers(points, k: int = 16) -> np.ndarray:
    """Statistical outlier removal on mean k-nearest-neighbor distance.

    Points whose statistic exceeds mean + 2 std are dropped.
    Fewer than k + 1 points pass through unchanged.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] <= k:
        return pts.copy()
    tree = cKDTree(pts)
    dists, _ = tree.query(pts, k=k + 1)
    stat = dists[:, 1:].mean(axis=1)
    cutoff = stat.mean() + _OUTLIER_SIGMA * stat.std()
    return pts[stat <= cutoff]


def largest_cluster(points, min_points: int = 8) -> np.ndarray:
    """Largest density cluster; radius is 3x the median NN distance.

    Density clustering in the DBSCAN sense: core points have at least
    ``min_points`` neighbors (self included) within eps, counted from the
    one pair query that also links the clusters; clusters are the
    connected components of the core points, numbered by their lowest point
    index; a border point joins the lowest-numbered cluster among its core
    neighbors. Ties in size break toward the smaller mean depth (z).

    Raises:
        ValueError: if every point is noise.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    tree = cKDTree(pts)
    if n > 1:
        nn, _ = tree.query(pts, k=2)
        eps = _EPS_FACTOR * float(np.median(nn[:, 1]))
    else:
        eps = 0.0
    if eps <= 0:
        raise ValueError("degenerate point spacing; all points classified as noise")
    i, j = tree.query_pairs(eps, output_type="ndarray").T
    core = 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n) >= min_points
    if not core.any():
        raise ValueError("all points classified as noise")
    rank = np.cumsum(core) - 1  # index of each core point among the core points
    linked = core[i] & core[j]
    graph = csr_matrix((np.ones(np.count_nonzero(linked)), (rank[i[linked]], rank[j[linked]])), shape=(rank[-1] + 1,) * 2)
    n_clusters, core_labels = connected_components(graph, directed=False)
    labels = np.full(n, n_clusters, dtype=np.int64)  # n_clusters marks noise
    labels[core] = core_labels
    for a, b in ((i, j), (j, i)):
        border = core[a] & ~core[b]
        np.minimum.at(labels, b[border], labels[a[border]])
    sizes = np.bincount(labels)[:n_clusters]
    best = min(np.flatnonzero(sizes == sizes.max()), key=lambda c: float(pts[labels == c, 2].mean()))
    return pts[labels == best]


# ---------------------------------------------------------------------------
# Oriented box fitting
# ---------------------------------------------------------------------------


def _horizontal_basis(height_axis: np.ndarray):
    """Two orthonormal in-plane directions (u, v) with u x v = height axis."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(float(ref @ height_axis)) > 0.9:
        ref = np.array([0.0, 0.0, 1.0])
    u = ref - (ref @ height_axis) * height_axis
    u /= np.linalg.norm(u)
    v = np.cross(height_axis, u)
    return u, v


def _height_axis(gravity: np.ndarray) -> np.ndarray:
    """The gravity line, pointed to positive y so default-gravity boxes are pure yaws."""
    return -gravity if gravity[1] < 0 else gravity


def _yaw_rotation(yaw: float, u: np.ndarray, v: np.ndarray, height_axis: np.ndarray) -> np.ndarray:
    """Rotation whose axes are (yaw direction in the u-v plane, height axis, their cross)."""
    a1 = math.cos(yaw) * u + math.sin(yaw) * v
    return np.column_stack([a1, height_axis, np.cross(a1, height_axis)])


def _footprint_rectangle(fp: np.ndarray):
    """Footprint rectangle flush with the hull edge of best L-shape closeness.

    Each convex-hull edge gives a candidate frame. A frame is scored by the
    closeness criterion of L-shape fitting (Zhang et al. 2017, "Efficient
    L-Shape Fitting for Vehicle Detection Using Laser Scanners"): each point
    takes its distance to the nearer rectangle side along either frame axis,
    floored at 5% of the footprint's bounding-box diagonal, and the frame
    scores the sum of the inverses. The first edge within 1e-12 (relative)
    of the best score wins. Minimum area ties on the L-shaped footprint of
    two side faces; closeness does not. A seen top face puts the box's sides
    on the hull, so tabletop fits keep the rectangle that minimum area chose.

    Returns (theta, center2d, extents2d); theta is the angle of the first
    rectangle axis.
    """
    try:
        hull = ConvexHull(fp)
    except QhullError as exc:
        raise ValueError("degenerate footprint: points are collinear") from exc
    hp = fp[hull.vertices]
    edges = np.roll(hp, -1, axis=0) - hp
    norms = np.linalg.norm(edges, axis=1)
    usable = np.flatnonzero(norms >= 1e-12)
    if usable.size == 0:
        raise ValueError("degenerate footprint: no usable hull edge")
    c, s = (edges[usable] / norms[usable, None]).T
    floor = _CLOSENESS_FLOOR * float(np.linalg.norm(np.ptp(fp, axis=0)))
    d = np.full((fp.shape[0], usable.size), np.inf)  # distance to the nearest side, (points, edges)
    for axis in (np.stack([c, s]), np.stack([-s, c])):
        q = fp @ axis
        np.minimum(d, q - q.min(axis=0), out=d)
        np.minimum(d, q.max(axis=0) - q, out=d)
    scores = (1.0 / np.maximum(d, floor, out=d)).sum(axis=0)
    k = int(usable[np.argmax(scores >= scores.max() * (1.0 - 1e-12))])

    edge = hp[(k + 1) % len(hp)] - hp[k]
    ne = float(np.linalg.norm(edge))
    c, s = edge[0] / ne, edge[1] / ne
    rot = np.array([[c, -s], [s, c]])  # rotate by -theta (row vectors)
    q = hp @ rot
    lo, hi = q.min(axis=0), q.max(axis=0)
    return math.atan2(s, c), 0.5 * (lo + hi) @ rot.T, hi - lo


def fit_oriented_box(points, gravity) -> Box3D:
    """Oriented box around a point cloud, upright along ``gravity``.

    The height axis follows ``gravity`` (in practice :func:`estimate_gravity`
    of the scene); the footprint (points projected onto the plane normal to
    it) gets the hull-edge rectangle of best L-shape closeness
    (:func:`_footprint_rectangle`); height spans the [1, 99] percentile band
    of the coordinate along it. The result's rotation is a yaw about that
    axis. Outliers are the job of the stages before it
    (:func:`remove_outliers`, :func:`largest_cluster`).

    Args:
        points: (N, 3), N >= 10.
        gravity: (3,) unit vector.

    Raises:
        ValueError: too few points, collinear footprint, or zero height.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] < 10:
        raise ValueError("need at least 10 points to fit a box")
    haxis = _height_axis(np.asarray(gravity, dtype=np.float64))
    u, v = _horizontal_basis(haxis)

    hcoord = pts @ haxis
    h_lo, h_hi = np.percentile(hcoord, _HEIGHT_PERCENTILES)
    height = float(h_hi - h_lo)
    if height < 1e-9:
        raise ValueError("points span zero height")

    theta, center2d, extents = _footprint_rectangle(np.column_stack([pts @ u, pts @ v]))

    rot = _yaw_rotation(theta, u, v, haxis)
    center = center2d[0] * u + center2d[1] * v + 0.5 * (h_lo + h_hi) * haxis
    dims = np.array([max(extents[0], 1e-6), height, max(extents[1], 1e-6)])
    return Box3D(center=center, dims=dims, quaternion=matrix_to_quat(rot))


# ---------------------------------------------------------------------------
# Anchor weighting
# ---------------------------------------------------------------------------


def anchor_weights(points, alpha: float = _MAHALANOBIS_ALPHA) -> np.ndarray:
    """Per-point weights exp(-alpha * Mahalanobis distance), in (0, 1].

    The covariance is regularized with 1e-6 * I; if inversion still fails
    the weights fall back to uniform.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0)
    mu = pts.mean(axis=0)
    centered = pts - mu
    cov = centered.T @ centered / max(n, 1) + 1e-6 * np.eye(3)
    try:
        inv = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        return np.ones(n)
    m = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", centered, inv, centered), 0.0))
    return np.exp(-alpha * m)


def sample_anchors(points, weights, count: int = _ANCHOR_COUNT, seed: int = 0):
    """Weight-proportional subsample of at most ``count`` anchors."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if pts.shape[0] <= count:
        return pts, w
    rng = np.random.default_rng(seed)
    idx = rng.choice(pts.shape[0], size=count, replace=False, p=w / w.sum())
    idx.sort()
    return pts[idx], w[idx]


# ---------------------------------------------------------------------------
# Translation losses and refinement
# ---------------------------------------------------------------------------


# Each loss is a kernel over m box placements that share dims and rotation:
# ``local`` holds the anchors in each placement's box frame, (m, A, 3), and
# ``corners`` each placement's corners, (m, 8, 3). The public losses are the
# one-placement case; the translation search evaluates many centers at once.


def _anchor_frames(centers: np.ndarray, rotation: np.ndarray, anchor_points) -> np.ndarray:
    """Anchors in the frame of the box placed at each center row: (m, A, 3)."""
    return (np.asarray(anchor_points, dtype=np.float64) - centers[:, None, :]) @ rotation


def _inclusion(local: np.ndarray, weights, half: np.ndarray, buffer: float = _INCLUSION_BUFFER) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    over = np.maximum(np.abs(local) - (half + buffer), 0.0)
    dist = np.linalg.norm(over, axis=-1)
    return np.sum(w * dist, axis=-1) / np.sum(w)


def _tightness(local: np.ndarray, half: np.ndarray, buffer: float = _TIGHTNESS_BUFFER) -> np.ndarray:
    total = 0.0
    for axis in range(3):
        for sign in (1.0, -1.0):
            nearest = np.min(np.abs(local[..., axis] - sign * half[axis]), axis=-1)
            total = total + np.maximum(0.0, nearest - buffer)
    return total / 6.0


def _projection(corners: np.ndarray, box2d: Box2D, camera: CameraModel) -> np.ndarray:
    """1 - GIoU per placement; placements reaching behind the camera get the penalty, unprojected."""
    front = corners[:, :, 2].min(axis=1) > 1e-6
    out = np.full(corners.shape[0], _BEHIND_CAMERA_PENALTY)
    out[front] = 1.0 - giou2d_rows(projected_extents(camera, corners[front]), box2d.as_array())
    return out


def inclusion_loss(box: Box3D, anchor_points, weights, buffer: float = _INCLUSION_BUFFER) -> float:
    """Weighted mean distance of anchors outside the buffered box.

    Zero iff every anchor lies inside the box grown by ``buffer`` on each
    face; strictly positive otherwise.
    """
    local = _anchor_frames(box.center[None], box.rotation, anchor_points)
    return float(_inclusion(local, weights, box.dims / 2.0, buffer)[0])


def tightness_loss(box: Box3D, anchor_points, buffer: float = _TIGHTNESS_BUFFER) -> float:
    """Mean face-plane slack: hinge of (nearest anchor distance - buffer).

    Zero when every one of the six face planes has an anchor within
    ``buffer``; grows as faces drift away from the cloud.
    """
    local = _anchor_frames(box.center[None], box.rotation, anchor_points)
    return float(_tightness(local, box.dims / 2.0, buffer)[0])


def projection_loss(box: Box3D, box2d: Box2D, camera: CameraModel) -> float:
    """1 - GIoU between the projected box and the annotated 2D box.

    Boxes reaching behind the camera get a large constant penalty.
    """
    return float(_projection(box.corners()[None], box2d, camera)[0])


def _translation_objective(box: Box3D, anchor_points, weights, box2d, camera):
    """The weighted loss sum with ``box`` moved to each row of centers (m, 3), as (m,)."""
    # A moved Box3D re-normalises the quaternion; every placement shares that rotation.
    rotation = Box3D(box.center, box.dims, box.quaternion).rotation
    half = box.dims / 2.0

    def objective(centers: np.ndarray) -> np.ndarray:
        local = _anchor_frames(centers, rotation, anchor_points)
        corners = box_corners(centers[:, None, :], box.dims, rotation)
        return (
            _LAMBDA_INCLUSION * _inclusion(local, weights, half)
            + _LAMBDA_TIGHTNESS * _tightness(local, half)
            + _LAMBDA_PROJECTION * _projection(corners, box2d, camera)
        )

    return objective


def optimize_translation(
    candidate: Box3D,
    anchor_points,
    weights,
    box2d: Box2D,
    camera: CameraModel,
) -> TranslationResult:
    """Refine the candidate's center; dims and rotation stay fixed.

    Stage 1 evaluates the anchor/projection objective on a 5^3
    lattice spanning the box dims around the center (the center itself is a
    lattice point), all lattice points in one batched call; the first
    lattice point with the smallest loss wins. Stage 2 polishes it with
    bounded L-BFGS-B inside the same window; each step is one batched call
    on the point and its six central-difference neighbours (step 1e-4),
    giving the loss and its gradient together. If polishing fails or does
    not improve, the lattice best is returned; the final loss never exceeds
    the lattice best.
    """
    objective = _translation_objective(candidate, anchor_points, weights, box2d, camera)
    origin = candidate.center
    half_window = candidate.dims / 2.0

    axes = [np.linspace(-hw, hw, _GRID_SIZE) for hw in half_window]
    lattice = origin + np.array(list(itertools.product(*axes)))
    grid_values = objective(lattice)
    best = int(np.argmin(grid_values))
    best_center = lattice[best]
    grid_loss = float(grid_values[best])

    bounds = [(origin[k] - half_window[k], origin[k] + half_window[k]) for k in range(3)]
    steps = np.zeros((7, 3))
    steps[1::2] = _FD_STEP * np.eye(3)
    steps[2::2] = -_FD_STEP * np.eye(3)

    def value_and_gradient(center: np.ndarray):
        f = objective(center + steps)
        return float(f[0]), (f[1::2] - f[2::2]) / (2 * _FD_STEP)

    try:
        res = minimize(
            value_and_gradient,
            best_center,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": _MAX_ITERATIONS, "ftol": _F_TOL},
        )
        refined_center, refined_val = res.x, float(res.fun)
    except Exception:
        refined_center, refined_val = best_center, math.inf
    if not math.isfinite(refined_val) or refined_val > grid_loss:
        refined_center, refined_val = best_center, grid_loss

    final = Box3D(refined_center, candidate.dims, candidate.quaternion)
    return TranslationResult(
        box=final,
        loss=refined_val,
        grid_loss=grid_loss,
        n_grid_evaluations=len(lattice),
    )


# ---------------------------------------------------------------------------
# Fallback scaling and selection
# ---------------------------------------------------------------------------


def scale_depth_to_box2d(box: Box3D, box2d: Box2D, camera: CameraModel) -> Box3D:
    """Move the box along its viewing ray so projected size matches box2d.

    The scale blends height (0.7) and width (0.3) ratios between the
    annotated and projected 2D boxes; depth is divided by the scale, so a
    projection that is too small comes closer.
    """
    proj = projected_box2d(box, camera)
    if proj.height <= 0 or proj.width <= 0:
        raise ValueError("projected box is degenerate")
    s = 0.7 * (box2d.height / proj.height) + 0.3 * (box2d.width / proj.width)
    if s <= 0:
        raise ValueError("non-positive projection scale")
    return Box3D(box.center / s, box.dims, box.quaternion)


def adaptive_select(
    optimized: Box3D,
    fallback: Box3D,
    box2d: Box2D,
    camera: CameraModel,
) -> tuple[Box3D, str]:
    """Optimized box if its projection overlaps the 2D box enough, else fallback.

    Returns the chosen box and the branch name ("optimized" or "fallback").
    """
    overlap = iou2d(projected_box2d(optimized, camera), box2d)
    if overlap >= _PROJECTED_IOU_THRESHOLD:
        return optimized, "optimized"
    return fallback, "fallback"


# ---------------------------------------------------------------------------
# Gravity
# ---------------------------------------------------------------------------


def estimate_gravity(points) -> np.ndarray:
    """Scene gravity from the dominant ground plane, else ``DEFAULT_GRAVITY``.

    Takes the lowest quarter of the scene (largest y; y points down), fits a
    plane by PCA, and accepts its normal when within 15 degrees of the
    default vertical; otherwise returns the default.
    """
    pts = np.asarray(points, dtype=np.float64)
    d = DEFAULT_GRAVITY.copy()
    if pts.shape[0] < 10:
        return d
    y = pts[:, 1]
    low = pts[y >= np.percentile(y, 75)]
    if low.shape[0] < 10:
        return d
    centered = low - low.mean(axis=0)
    cov = centered.T @ centered / low.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    normal = eigvecs[:, 0]
    cos = abs(float(normal @ d))
    if math.degrees(math.acos(min(1.0, cos))) <= _MAX_TILT_DEG:
        return normal if normal @ d >= 0 else -normal
    return d


def correct_rotation(box: Box3D, scene_points) -> Box3D:
    """Turn the box's height axis onto the scene's gravity, keeping its heading.

    Gravity comes from :func:`estimate_gravity` over the scene points. The
    heading is the direction of the box's first axis in the plane normal to
    gravity. A box whose height axis is already within 1e-9 of that line is
    returned as is. :func:`lift_annotation` no longer calls it: the box fit
    already stands along the estimated gravity.
    """
    haxis = _height_axis(estimate_gravity(scene_points))
    rot = box.rotation
    if abs(float(rot[:, 1] @ haxis)) >= 1.0 - 1e-9:
        return box
    u, v = _horizontal_basis(haxis)
    yaw = math.atan2(float(rot[:, 0] @ v), float(rot[:, 0] @ u))
    return Box3D(box.center, box.dims, matrix_to_quat(_yaw_rotation(yaw, u, v, haxis)))


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def lift_annotation(
    cloud,
    mask,
    box2d: Box2D,
    camera: CameraModel,
    seed: int = 0,
) -> LiftCandidate:
    """Run the full lifting pipeline for one annotated object.

    Raises ValueError when a stage cannot produce a candidate (empty mask,
    all points noise, degenerate footprint); callers log and skip.
    """
    pts = extract_object_points(cloud, mask)
    n_extracted = pts.shape[0]
    cleaned = remove_outliers(pts)
    n_inliers = cleaned.shape[0]
    cluster = largest_cluster(cleaned)
    n_clustered = cluster.shape[0]

    fitted = fit_oriented_box(cluster, estimate_gravity(cloud.points))
    # Anchors come from the full cleaned cloud, not the dominant cluster:
    # sparse but real surface points (grazing-angle faces) are what pin the
    # translation along the viewing ray.
    weights = anchor_weights(cleaned)
    a_pts, a_w = sample_anchors(cleaned, weights, seed=seed)

    result = optimize_translation(fitted, a_pts, a_w, box2d, camera)
    fallback = scale_depth_to_box2d(fitted, box2d, camera)
    selected, branch = adaptive_select(result.box, fallback, box2d, camera)

    losses = {
        "inclusion": inclusion_loss(selected, a_pts, a_w),
        "tightness": tightness_loss(selected, a_pts),
        "projection": projection_loss(selected, box2d, camera),
    }
    measurements = {
        "n_extracted": n_extracted,
        "n_after_outliers": n_inliers,
        "n_cluster": n_clustered,
        "n_anchors": int(a_pts.shape[0]),
        "branch": branch,
        "grid_loss": result.grid_loss,
        "refined_loss": result.loss,
        "n_grid_evaluations": result.n_grid_evaluations,
    }
    return LiftCandidate(box=selected, status="optimized", losses=losses, measurements=measurements)
