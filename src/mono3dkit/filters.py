"""Rule-based plausibility filters for lifted 3D annotations.

Each filter is a pure function from a candidate (plus side information) to
a :class:`FilterVerdict`. Verdicts never mutate the candidate; callers mark
failing annotations as ignore3d. Rules are independent, so the union of
failed rules does not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import CameraModel, project, projected_box2d
from .geometry import Box2D, Box3D, iou2d

__all__ = [
    "SizeSpec",
    "FilterVerdict",
    "EDGE_CONTACT_MAX",
    "PROJECTION_RATIO_RANGE",
    "OCCLUSION_MAX",
    "SIZE_TOLERANCE",
    "AXIS_PROPORTION_MIN",
    "SMALL_AREA_FRACTION",
    "edge_contact_fraction",
    "projection_size_ratio",
    "occlusion_ratio",
    "geometric_filter",
    "size_filter",
    "ratio_filters",
    "small_object_gate",
    "small_upgrade_allowed",
    "projected_iou",
]

EDGE_CONTACT_MAX = 0.03
PROJECTION_RATIO_RANGE = (0.5, 1.5)
OCCLUSION_MAX = 0.15
AXIS_PROPORTION_MIN = 0.05
SMALL_AREA_FRACTION = 0.005

# Size tolerance by (fixed_size, dataset_class). Variable-size categories
# get looser bounds; fine-grained datasets looser still.
SIZE_TOLERANCE = {
    (True, "standard"): 1.5,
    (False, "standard"): 3.0,
    (True, "fine_grained"): 2.5,
    (False, "fine_grained"): 5.0,
}

_UPGRADE_GENERATORS = ("labelany3d", "sam3d", "ransac_pca")
_OCCLUSION_MARGIN = 0.05  # meters the stored depth must undercut a surface point by
_FACE_SAMPLES = 64  # surface points sampled per camera-facing face


@dataclass(frozen=True)
class SizeSpec:
    """Per-category physical size plausibility bounds, meters.

    Axis bounds apply to the sorted box dimensions. ``is_flat`` categories
    skip the shortest axis (their thin side varies wildly); ``is_elongated``
    categories skip the shortest and longest axes.
    """

    category: str
    shortest: tuple[float, float]
    middle: tuple[float, float]
    longest: tuple[float, float]
    max_depth_ratio: float
    is_flat: bool = False
    is_elongated: bool = False
    fixed_size: bool = True

    def __post_init__(self):
        record = f"category {self.category!r}"
        for axis in ("shortest", "middle", "longest"):
            lo, hi = getattr(self, axis)
            if lo > hi:
                raise ValueError(f"{record}: {axis}: min {lo} exceeds max {hi}")
        if self.max_depth_ratio <= 0:
            raise ValueError(f"{record}: max_depth_ratio must be positive, got {self.max_depth_ratio}")


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of one filter: pass/fail, failed rule ids, measurements."""

    passed: bool
    failed_rules: tuple = ()
    measurements: dict = field(default_factory=dict)
    flags: tuple = ()

    def __post_init__(self):
        if self.passed != (len(self.failed_rules) == 0):
            raise ValueError("passed must agree with failed_rules being empty")


def _verdict(failed, measurements, flags=()):
    failed = tuple(failed)
    return FilterVerdict(passed=not failed, failed_rules=failed, measurements=dict(measurements), flags=tuple(flags))


# ---------------------------------------------------------------------------
# Geometric rules
# ---------------------------------------------------------------------------


def edge_contact_fraction(box2d: Box2D, image_size, band: float = 2.0) -> float:
    """Fraction of the 2D box perimeter lying within ``band`` px of the border.

    Each of the four box sides contributes its full length when the side
    runs inside the border band (e.g. the left side when x0 <= band).
    """
    w, h = image_size
    perimeter = 2.0 * (box2d.width + box2d.height)
    if perimeter <= 0:
        return 0.0
    contact = 0.0
    if box2d.x1 <= band:
        contact += box2d.height
    if w - box2d.x2 <= band:
        contact += box2d.height
    if box2d.y1 <= band:
        contact += box2d.width
    if h - box2d.y2 <= band:
        contact += box2d.width
    return contact / perimeter


def projection_size_ratio(box: Box3D, box2d: Box2D, camera: CameraModel) -> float:
    """Linear size ratio between the projected 3D box and the 2D box.

    sqrt(area of the projected corners' bounding rectangle / area of box2d),
    so 1.0 means the 3D box projects to the same linear size as annotated.
    """
    proj_area = projected_box2d(box, camera).area
    area = box2d.area
    if area <= 0:
        raise ValueError("degenerate 2D box")
    return float(np.sqrt(proj_area / area))


def occlusion_ratio(
    box: Box3D,
    depth: np.ndarray,
    camera: CameraModel,
    seed: int = 0,
) -> float:
    """Fraction of camera-facing box surface hidden behind nearer scene depth.

    Points are sampled on the three faces whose outward normal points toward
    the camera, projected into the depth map, and counted as occluded when
    the stored depth undercuts the point by more than 5 cm.
    Samples falling outside the image or on invalid (zero) depth are skipped.
    """
    rng = np.random.default_rng(seed)
    h, w = depth.shape
    rot = box.rotation
    half = box.dims / 2.0
    pts = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            normal = sign * rot[:, axis]
            face_center = box.center + normal * half[axis]
            if float(normal @ face_center) >= 0:
                continue  # normal points away from the camera at origin
            local = rng.uniform(-1.0, 1.0, size=(_FACE_SAMPLES, 3)) * half
            local[:, axis] = sign * half[axis]
            pts.append(local @ rot.T + box.center)
    if not pts:
        return 0.0
    pts = np.vstack(pts)
    pts = pts[pts[:, 2] > 1e-6]
    if pts.shape[0] == 0:
        return 0.0
    px = project(camera, pts)
    u = np.floor(px[:, 0]).astype(int)
    v = np.floor(px[:, 1]).astype(int)
    ok = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    if not ok.any():
        return 0.0
    zs = pts[ok, 2]
    d = depth[v[ok], u[ok]]
    valid = d > 0
    if not valid.any():
        return 0.0
    occluded = d[valid] < zs[valid] - _OCCLUSION_MARGIN
    return float(np.count_nonzero(occluded) / np.count_nonzero(valid))


def geometric_filter(
    candidate,
    box2d: Box2D,
    camera: CameraModel,
    image_size,
    occlusion: float | None = None,
) -> FilterVerdict:
    """Edge-contact, occlusion, and projection-size plausibility rules.

    ``candidate`` is a LiftCandidate (or anything with ``box`` and
    ``generator``). The occlusion rule needs a precomputed
    :func:`occlusion_ratio` (it requires the scene depth map) and only
    applies to candidates from the geometric lifting generator; pass None
    to skip it.
    """
    failed = []
    box = candidate.box
    edge = edge_contact_fraction(box2d, image_size)
    if edge >= EDGE_CONTACT_MAX:
        failed.append("edge_contact")
    ratio = projection_size_ratio(box, box2d, camera)
    lo, hi = PROJECTION_RATIO_RANGE
    if not (lo <= ratio <= hi):
        failed.append("proj_size_ratio")
    measurements = {"edge_contact": edge, "proj_size_ratio": ratio}
    flags = []
    if getattr(candidate, "generator", "ransac_pca") == "ransac_pca":
        if occlusion is None:
            flags.append("occlusion_unmeasured")
        else:
            measurements["occlusion"] = float(occlusion)
            if occlusion > OCCLUSION_MAX:
                failed.append("occlusion")
    return _verdict(failed, measurements, flags)


# ---------------------------------------------------------------------------
# Size and proportion rules
# ---------------------------------------------------------------------------


def size_filter(candidate, spec: SizeSpec | None, dataset_class: str = "standard") -> FilterVerdict:
    """Sorted box dimensions against per-category bounds with tolerance.

    Axis k passes when dims_sorted[k] lies in [min / tau, max * tau] where
    tau follows :data:`SIZE_TOLERANCE`. Flat categories skip the shortest
    axis; elongated categories skip shortest and longest. No spec for the
    category means an automatic pass flagged "no_spec".
    """
    if spec is None:
        return _verdict([], {}, flags=("no_spec",))
    key = (bool(spec.fixed_size), dataset_class)
    if key not in SIZE_TOLERANCE:
        raise ValueError(f"unknown dataset_class {dataset_class!r}")
    tau = SIZE_TOLERANCE[key]
    dims = np.sort(np.asarray(candidate.box.dims, dtype=np.float64))
    bounds = {"shortest": spec.shortest, "middle": spec.middle, "longest": spec.longest}
    skip = set()
    if spec.is_flat:
        skip.add("shortest")
    if spec.is_elongated:
        skip.update(("shortest", "longest"))
    failed = []
    measurements = {"tolerance": tau}
    for k, name in enumerate(("shortest", "middle", "longest")):
        measurements[name] = float(dims[k])
        if name in skip:
            continue
        lo, hi = bounds[name]
        if not (lo / tau <= dims[k] <= hi * tau):
            failed.append(f"size_{name}")
    return _verdict(failed, measurements)


def ratio_filters(candidate, spec: SizeSpec | None) -> FilterVerdict:
    """Depth-to-width and axis-proportion plausibility.

    The box's z extent over its x extent must not exceed the per-category
    maximum (non-strict). For categories that are neither flat nor
    elongated, shortest/middle must be at least 0.05 to reject degenerate
    slivers.
    """
    if spec is None:
        return _verdict([], {}, flags=("no_spec",))
    dims = np.asarray(candidate.box.dims, dtype=np.float64)
    failed = []
    depth_ratio = float(dims[2] / dims[0]) if dims[0] > 0 else float("inf")
    if depth_ratio > spec.max_depth_ratio:
        failed.append("depth_width_ratio")
    measurements = {"depth_width_ratio": depth_ratio}
    if not (spec.is_flat or spec.is_elongated):
        s = np.sort(dims)
        proportion = float(s[0] / s[1]) if s[1] > 0 else 0.0
        measurements["axis_proportion"] = proportion
        if proportion < AXIS_PROPORTION_MIN:
            failed.append("axis_proportion")
    return _verdict(failed, measurements)


# ---------------------------------------------------------------------------
# Small-object handling
# ---------------------------------------------------------------------------


def small_object_gate(box2d: Box2D, image_size) -> bool:
    """True when the 2D box covers less than 0.5% of the image."""
    w, h = image_size
    if w <= 0 or h <= 0:
        raise ValueError("image size must be positive")
    return box2d.area < SMALL_AREA_FRACTION * w * h


def small_upgrade_allowed(
    vlm_score: float,
    category_score: float,
    generator: str,
    projected_iou: float | None = None,
) -> bool:
    """Whether a small-filtered annotation may be re-admitted.

    Requires external review score >= 10 with a category sub-score of 1 and
    a trusted generator. Score exactly 10 additionally needs the projected
    3D-to-2D IoU >= 0.5; score 11 and above is exempt from the IoU check.
    """
    if vlm_score < 10 or category_score != 1:
        return False
    if generator.lower().replace("-", "_") not in _UPGRADE_GENERATORS:
        return False
    if vlm_score >= 11:
        return True
    if projected_iou is None:
        return False
    return projected_iou >= 0.5


def projected_iou(box: Box3D, box2d: Box2D, camera: CameraModel) -> float:
    """2D IoU between the projected 3D box's bounding rectangle and box2d."""
    return iou2d(projected_box2d(box, camera), box2d)
