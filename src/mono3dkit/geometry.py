"""Oriented 3D box geometry: corners, rotations, overlap measures.

Conventions used across the package:

* Camera coordinates, right-handed: x right, y down, z forward. All lengths
  in meters.
* An oriented box is a center, per-axis dimensions (w, h, l) along the box's
  local (x, y, z) axes, and a unit quaternion stored scalar-first
  (qw, qx, qy, qz). The rotation maps box-local directions to camera
  directions, so the columns of the rotation matrix are the box axes.
* ``corners = R @ (signs * dims) + center`` with the sign table
  :data:`CORNER_SIGNS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

__all__ = [
    "Box2D",
    "Box3D",
    "CORNER_SIGNS",
    "box_corners",
    "quat_to_matrix",
    "matrix_to_quat",
    "random_quaternion",
    "rot6d_to_matrix",
    "matrix_to_rot6d",
    "yaw_of_rotation",
    "yaw_to_matrix",
    "normalize_box_rotation",
    "iou3d",
    "iou3d_monte_carlo",
    "intersection_volume",
    "iou2d",
    "giou2d",
    "giou2d_rows",
]

# Half-extent sign pattern for the 8 corners. Index bit layout: corners 0-3
# are the z = -l/2 face in a CCW ring, 4-7 the z = +l/2 face above them.
CORNER_SIGNS = 0.5 * np.array(
    [
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, +1],
        [+1, -1, +1],
        [+1, +1, +1],
        [-1, +1, +1],
    ],
    dtype=np.float64,
)

_DEGENERATE_VOLUME = 1e-12


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel-space box, corner form (x1, y1) top-left."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 >= self.x1 and self.y2 >= self.y1):
            raise ValueError(f"invalid Box2D extents: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Box2D":
        a = np.asarray(a, dtype=np.float64)
        return Box2D(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (m), dims (w, h, l) > 0, unit quaternion.

    The quaternion is scalar-first and normalized on construction; dims must
    be strictly positive and finite.
    """

    center: np.ndarray
    dims: np.ndarray
    quaternion: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        dims = np.asarray(self.dims, dtype=np.float64).reshape(3)
        quat = np.asarray(self.quaternion, dtype=np.float64).reshape(4)
        if not np.all(np.isfinite(center)):
            raise ValueError("box center must be finite")
        if not (np.all(np.isfinite(dims)) and np.all(dims > 0)):
            raise ValueError(f"box dims must be positive and finite, got {dims}")
        norm = float(np.linalg.norm(quat))
        if not math.isfinite(norm) or norm < 1e-9:
            raise ValueError("quaternion has (near-)zero norm")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "quaternion", quat / norm)

    @property
    def rotation(self) -> np.ndarray:
        """3x3 rotation matrix (columns are the box axes)."""
        return quat_to_matrix(self.quaternion)

    def corners(self) -> np.ndarray:
        """(8, 3) corner coordinates in camera space."""
        return box_corners(self.center, self.dims, self.rotation)

    @property
    def volume(self) -> float:
        return float(np.prod(self.dims))

    def translated(self, offset) -> "Box3D":
        return Box3D(self.center + np.asarray(offset, dtype=np.float64), self.dims, self.quaternion)


def box_corners(center, dims, rotation) -> np.ndarray:
    """Corners of an oriented box given center, dims, rotation matrix."""
    local = CORNER_SIGNS * np.asarray(dims, dtype=np.float64)
    return local @ np.asarray(rotation, dtype=np.float64).T + np.asarray(center, dtype=np.float64)


# ---------------------------------------------------------------------------
# Quaternions (scalar-first)
# ---------------------------------------------------------------------------


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a scalar-first quaternion (normalized internally)."""
    q = np.asarray(q, dtype=np.float64).reshape(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(m) -> np.ndarray:
    """Scalar-first unit quaternion of a rotation matrix (Shepperd's method)."""
    m = np.asarray(m, dtype=np.float64)
    t = np.trace(m)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    q = np.array([w, x, y, z])
    q /= np.linalg.norm(q)
    # Canonical sign: first nonzero component positive.
    for c in q:
        if abs(c) > 1e-12:
            if c < 0:
                q = -q
            break
    return q


def random_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit quaternion (Shoemake's subgroup algorithm)."""
    u1, u2, u3 = rng.uniform(size=3)
    a, b = math.sqrt(1 - u1), math.sqrt(u1)
    return np.array(
        [
            a * math.sin(2 * math.pi * u2),
            a * math.cos(2 * math.pi * u2),
            b * math.sin(2 * math.pi * u3),
            b * math.cos(2 * math.pi * u3),
        ]
    )


# ---------------------------------------------------------------------------
# 6D rotation parameterization (first two matrix rows)
# ---------------------------------------------------------------------------


def rot6d_to_matrix(r6) -> np.ndarray:
    """Rotation matrix from six scalars holding the first two matrix rows.

    Row 1 is the first triple normalized; row 2 is the Gram-Schmidt residual
    of the second triple against row 1; row 3 is their cross product, giving
    determinant +1.

    Raises:
        ValueError: if either triple is (near-)zero or the two are parallel
            within 1e-9.
    """
    r6 = np.asarray(r6, dtype=np.float64).reshape(6)
    a, b = r6[:3], r6[3:]
    na = np.linalg.norm(a)
    if na < 1e-9:
        raise ValueError("degenerate 6D rotation: first row is near zero")
    row1 = a / na
    resid = b - np.dot(b, row1) * row1
    nr = np.linalg.norm(resid)
    if nr < 1e-9:
        raise ValueError("degenerate 6D rotation: rows are parallel")
    row2 = resid / nr
    row3 = np.cross(row1, row2)
    return np.stack([row1, row2, row3])


def matrix_to_rot6d(m) -> np.ndarray:
    """First two rows of a rotation matrix, flattened to 6 scalars."""
    m = np.asarray(m, dtype=np.float64)
    return m[:2].reshape(6).copy()


# ---------------------------------------------------------------------------
# Canonical rotation normalization
# ---------------------------------------------------------------------------


def yaw_of_rotation(rotation) -> float:
    """Heading angle of the box's local +z axis in the camera x-z plane.

    Zero points along camera +z, increasing toward +x; range (-pi, pi].
    """
    heading = np.asarray(rotation, dtype=np.float64)[:, 2]
    return math.atan2(heading[0], heading[2])


def yaw_to_matrix(yaw: float) -> np.ndarray:
    """Rotation about the camera y axis by ``yaw``."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# Exact quarter/half turns about y; keeps corner preservation tight.
_RY_90 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
_RY_180 = np.diag([-1.0, 1.0, -1.0])


def normalize_box_rotation(dims, quaternion) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (dims, quaternion) leaving the box point set unchanged.

    Two steps: if width exceeds length, swap them and fold a quarter turn
    about the vertical into the rotation; then fold the heading into
    [0, pi) with a half turn if needed. Idempotent.
    """
    dims = np.asarray(dims, dtype=np.float64).reshape(3).copy()
    quat = np.asarray(quaternion, dtype=np.float64).reshape(4)
    rot = quat_to_matrix(quat)
    changed = False

    if dims[0] > dims[2]:
        dims = dims[[2, 1, 0]]
        rot = rot @ _RY_90
        changed = True

    # Tolerance keeps the fold idempotent: folding a heading of exactly pi
    # lands at -epsilon, which must not trigger a second fold.
    yaw = yaw_of_rotation(rot)
    if yaw < -1e-12 or yaw >= math.pi - 1e-12:
        rot = rot @ _RY_180
        changed = True

    if changed:
        quat = matrix_to_quat(rot)
    return dims, quat


# ---------------------------------------------------------------------------
# Exact 3D IoU: convex hull of the vertices of the intersection
# ---------------------------------------------------------------------------

# The 12 box edges as corner-index pairs: corners that differ in one sign.
_EDGES = np.array(
    [(i, j) for i in range(8) for j in range(i + 1, 8) if np.count_nonzero(CORNER_SIGNS[i] != CORNER_SIGNS[j]) == 1]
)

# Inside tests allow this fraction of the longer box side.
_INSIDE_TOL = 1e-9


def _vertices_inside(corners: np.ndarray, half: np.ndarray, tol: float) -> np.ndarray:
    """Vertices of A∩B that lie on the edges of one box, in the other's frame.

    ``corners`` are the first box's corners in the local frame of the second,
    an origin-centred box of half-extents ``half``. The candidates are those
    corners and the points where the first box's edges cross the second's
    face planes; those within ``tol`` of the second box are kept.
    """
    p0 = corners[_EDGES[:, 0]]
    step = corners[_EDGES[:, 1]] - p0
    # Edges parallel to a plane divide by zero or a denormal; their t is
    # inf or nan and fails the [0, 1] test below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = (np.stack([-half, half])[None] - p0[:, None]) / step[:, None]  # (edge, side, axis)
    hit = np.nonzero((t >= 0.0) & (t <= 1.0))
    points = np.vstack([corners, p0[hit[0]] + t[hit][:, None] * step[hit[0]]])
    return points[np.all(np.abs(points) <= half + tol, axis=1)]


def intersection_volume(a: Box3D, b: Box3D) -> float:
    """Exact volume of the intersection of two oriented boxes.

    Works in ``a``'s local frame: the convex hull of every box corner inside
    the other box and every point where an edge of one box crosses a face of
    the other inside it. A set with no volume gives 0.
    """
    ra = a.rotation
    rot = ra.T @ b.rotation  # b's axes in a's frame
    offset = (b.center - a.center) @ ra  # b's center in a's frame
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


def iou3d(a: Box3D, b: Box3D) -> float:
    """Exact 3D IoU of two oriented boxes; 0 when either has (near-)zero volume."""
    va, vb = a.volume, b.volume
    if va < _DEGENERATE_VOLUME or vb < _DEGENERATE_VOLUME:
        return 0.0
    vi = intersection_volume(a, b)
    union = va + vb - vi
    return float(min(1.0, max(0.0, vi / union)))


# Samples drawn and tested per pass of the Monte-Carlo oracle. It bounds the
# oracle's memory and keeps each pass in cache; the estimate does not depend
# on it.
_MC_CHUNK = 32_768


def iou3d_monte_carlo(a: Box3D, b: Box3D, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo IoU estimate: uniform samples over the joint bounding box.

    Draws ``n_samples`` points uniformly from the axis-aligned box spanned by
    the corners of ``a`` and ``b``, as ``numpy.random.default_rng(seed)
    .uniform(lo, hi, (n_samples, 3))`` would, and returns the number inside
    both boxes over the number inside either (0.0 when none is). The result is
    a deterministic function of the two boxes, ``n_samples`` and ``seed``.
    The points are drawn and tested in fixed-size chunks of one stream only to
    bound memory; the chunking does not change the estimate.

    Independent of the exact convex-hull path; used as an oracle and by the CLI.

    Raises:
        ValueError: if ``n_samples`` is less than 1.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    ca, cb = a.corners(), b.corners()
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0))
    span = np.maximum(ca.max(axis=0), cb.max(axis=0)) - lo
    rng = np.random.default_rng(seed)
    n_inter = n_union = 0
    for start in range(0, n_samples, _MC_CHUNK):
        u = rng.random((min(_MC_CHUNK, n_samples - start), 3))
        # lo + span * u, as rng.uniform computes it, one contiguous row per axis.
        pts = np.empty((3, len(u)))
        for i in range(3):
            np.multiply(u[:, i], span[i], out=pts[i])
            pts[i] += lo[i]
        in_a = _mc_inside(pts, a)
        in_b = _mc_inside(pts, b)
        n_inter += np.count_nonzero(in_a & in_b)
        n_union += np.count_nonzero(in_a | in_b)
    if n_union == 0:
        return 0.0
    return float(n_inter / n_union)


def _mc_inside(pts: np.ndarray, box: Box3D) -> np.ndarray:
    """Mask of the (3, N) points ``pts`` inside ``box``: |R^T (p - c)| <= dims / 2."""
    d0, d1, d2 = (pts[i] - box.center[i] for i in range(3))
    rot, half = box.rotation, box.dims / 2.0
    inside = np.ones(pts.shape[1], dtype=bool)
    for j in range(3):  # one local axis at a time
        local = d0 * rot[0, j] + d1 * rot[1, j] + d2 * rot[2, j]
        inside &= np.abs(local) <= half[j]
    return inside


# ---------------------------------------------------------------------------
# 2D overlap measures
# ---------------------------------------------------------------------------


def iou2d(a: Box2D, b: Box2D) -> float:
    """Plain IoU of two axis-aligned 2D boxes."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return float(inter / union)


def giou2d(a: Box2D, b: Box2D) -> float:
    """Generalized IoU of two axis-aligned 2D boxes, in (-1, 1]."""
    return float(giou2d_rows(a.as_array(), b.as_array()))


def giou2d_rows(a, b) -> np.ndarray:
    """:func:`giou2d` of corner-form rows (x1, y1, x2, y2); ``a`` and ``b`` broadcast over (..., 4)."""
    ax1, ay1, ax2, ay2 = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bx1, by1, bx2, by2 = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    iw = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    ih = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    hw = np.maximum(ax2, bx2) - np.minimum(ax1, bx1)
    hh = np.maximum(ay2, by2) - np.minimum(ay1, by1)
    hull = hw * hh
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
        giou = iou - (hull - union) / hull
    # A zero hull means both boxes degenerate to overlapping points/segments.
    return np.where(hull > 0, giou, np.where(union == inter, 1.0, 0.0))
