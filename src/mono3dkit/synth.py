"""Synthetic scene generator: exact depth rendering of random box layouts.

Scenes are built by rejection sampling of oriented boxes (pairwise 3D IoU
exactly zero, whole silhouette inside the image) resting below the optical
axis, optionally on a ground plane. Depth is rendered by exact ray/box slab
intersection through pixel centers and stores z-depth, so backprojecting a
noiseless depth map reproduces the visible surface points bit-exactly.
Per-object masks mark the pixels where that object is the nearest hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraModel, projected_box2d
from .dataio import AnnotationRecord, ImageRecord
from .geometry import Box2D, Box3D, iou2d, iou3d, yaw_to_matrix, matrix_to_quat

__all__ = ["SynthSpec", "SynthScene", "synth_scene", "ray_box_depths"]

_LATERAL_FRACTION = 0.62  # of the half field of view at the box depth
# Yaw is sampled relative to the viewing bearing inside this band (degrees)
# so every box shows two vertical faces; a single visible face projects
# to a line footprint that no rectangle fit can recover.
_YAW_OFFSET_RANGE = (25.0, 65.0)
_MARGIN_PX = 8.0  # projected silhouettes stay this far inside the image
_MAX_BOX2D_IOU = 0.3  # largest 2D IoU between two placed boxes' projections


@dataclass
class SynthSpec:
    """Layout and noise parameters for one generated scene."""

    n_boxes: int = 3
    dims_range: tuple[float, float] = (0.35, 0.55)
    # Boxes are kept wider than tall. A dominant top face pins the
    # translation refinement: most anchor points then sit on the one
    # surface whose extent the camera sees without foreshortening.
    height_range: tuple[float, float] | None = (0.14, 0.24)
    depth_range: tuple[float, float] = (1.5, 2.2)
    # Camera height above the ground plane. Keeping depth below about
    # 2.3x the box-top clearance keeps top faces densely sampled, which
    # the cluster and footprint stages need. The tabletop scale matters
    # too: mask erosion costs about one pixel of extent per silhouette
    # side, the refinement then slides the box along the viewing ray by
    # depth times the relative extent deficit, so small boxes seen close
    # up at high resolution keep that slide inside a few centimetres.
    floor_y: float | None = 1.2
    noise_sigma: float = 0.0
    categories: tuple = ("block",)
    max_rejections: int = 20_000

    def __post_init__(self):
        if self.n_boxes < 1:
            raise ValueError("need at least one box")
        if self.dims_range[0] <= 0 or self.dims_range[0] > self.dims_range[1]:
            raise ValueError("bad dims_range")
        if self.height_range is not None:
            if self.height_range[0] <= 0 or self.height_range[0] > self.height_range[1]:
                raise ValueError("bad height_range")
        if self.depth_range[0] <= 0 or self.depth_range[0] > self.depth_range[1]:
            raise ValueError("bad depth_range")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")
        if self.floor_y is not None and not math.isfinite(self.floor_y):
            raise ValueError(f"floor_y must be finite, got {self.floor_y}")


@dataclass
class SynthScene:
    """A rendered scene: records, exact depth, instance map, GT boxes."""

    image: ImageRecord
    annotations: list
    boxes: list
    depth: np.ndarray  # (H, W) float64, 0 where no surface
    instance_map: np.ndarray  # (H, W) uint16, 0 background, k+1 for box k
    masks: list = field(default_factory=list)


def ray_box_depths(dx: np.ndarray, dy: np.ndarray, box: Box3D) -> np.ndarray:
    """z-depth of the first box hit along rays (dx, dy, 1); inf on miss.

    Slab test in the box frame. Because the ray direction has unit z, the
    ray parameter of the hit equals its z coordinate.
    """
    rot = box.rotation
    half = box.dims / 2.0
    d_world = np.stack([dx, dy, np.ones_like(dx)], axis=-1)
    dl = d_world @ rot  # row-vector form of R^T d
    ol = -(box.center @ rot)
    t_lo = np.full(dx.shape, -np.inf)
    t_hi = np.full(dx.shape, np.inf)
    for axis in range(3):
        di = dl[..., axis]
        oi = ol[axis]
        parallel = np.abs(di) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half[axis] - oi) / di
            t2 = (half[axis] - oi) / di
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        inside = abs(oi) <= half[axis]
        lo = np.where(parallel, -np.inf if inside else np.inf, lo)
        hi = np.where(parallel, np.inf if inside else -np.inf, hi)
        t_lo = np.maximum(t_lo, lo)
        t_hi = np.minimum(t_hi, hi)
    hit = (t_lo <= t_hi) & (t_hi > 1e-9)
    t = np.where(t_lo > 1e-9, t_lo, t_hi)
    return np.where(hit, t, np.inf)


def _sample_box(spec: SynthSpec, camera: CameraModel, rng: np.random.Generator) -> Box3D:
    dims = rng.uniform(spec.dims_range[0], spec.dims_range[1], size=3)
    if spec.height_range is not None:
        dims[1] = rng.uniform(*spec.height_range)
    z = rng.uniform(*spec.depth_range)
    tan_x = (camera.width / 2.0) / camera.fx
    x = rng.uniform(-1.0, 1.0) * _LATERAL_FRACTION * z * tan_x
    if spec.floor_y is not None:
        y = spec.floor_y - dims[1] / 2.0
    else:
        tan_y = (camera.height / 2.0) / camera.fy
        y = rng.uniform(0.25, 0.7) * z * tan_y
    bearing = math.atan2(x, z)
    lo, hi = _YAW_OFFSET_RANGE
    yaw = (bearing + math.radians(rng.uniform(lo, hi))) % math.pi
    return Box3D(np.array([x, y, z]), dims, matrix_to_quat(yaw_to_matrix(yaw)))


def _acceptable(box: Box3D, placed, camera: CameraModel) -> bool:
    if box.corners()[:, 2].min() <= 0.5:
        return False
    aabb = projected_box2d(box, camera)
    if aabb.x1 < _MARGIN_PX or aabb.x2 > camera.width - _MARGIN_PX:
        return False
    if aabb.y1 < _MARGIN_PX or aabb.y2 > camera.height - _MARGIN_PX:
        return False
    # The 2D test costs far less than iou3d, so it goes first; both only
    # reject, so their order does not change the result.
    for other in placed:
        if iou2d(aabb, projected_box2d(other, camera)) > _MAX_BOX2D_IOU:
            return False
        if iou3d(box, other) > 0.0:
            return False
    return True


def _pixel_window(aabb: Box2D, width: int, height: int) -> tuple:
    """Row and column slices covering every pixel whose center lies within 1 px of ``aabb``, clipped to the image."""
    cols = slice(max(math.floor(aabb.x1) - 1, 0), min(math.ceil(aabb.x2) + 1, width))
    rows = slice(max(math.floor(aabb.y1) - 1, 0), min(math.ceil(aabb.y2) + 1, height))
    return rows, cols


def synth_scene(
    spec: SynthSpec,
    camera: CameraModel,
    seed: int = 0,
    image_id: str | None = None,
) -> SynthScene:
    """Generate and render one scene.

    Raises:
        ValueError: the camera cannot see a box resting on the floor, or
            the placement rejection budget is exhausted.
    """
    if spec.floor_y is not None and spec.floor_y > 0:
        # A box's nearest bottom corner is no deeper than its center, so its
        # bottom projects at this row or below.
        row = camera.cy + camera.fy * spec.floor_y / spec.depth_range[1]
        if row > camera.height - _MARGIN_PX:
            raise ValueError(
                f"camera cannot see the floor: a box on the floor {spec.floor_y:g} m below the camera, "
                f"at most {spec.depth_range[1]:g} m deep, has its bottom at row {row:.1f} or below, "
                f"past the bottom margin at row {camera.height - _MARGIN_PX:g} "
                f"(camera {camera.width}x{camera.height}, fy {camera.fy:g}, cy {camera.cy:g})"
            )
    rng = np.random.default_rng(seed)
    boxes: list[Box3D] = []
    rejections = 0
    while len(boxes) < spec.n_boxes:
        box = _sample_box(spec, camera, rng)
        if _acceptable(box, boxes, camera):
            boxes.append(box)
        else:
            rejections += 1
            if rejections > spec.max_rejections:
                raise ValueError(f"box placement failed after {rejections} rejections")

    h, w = camera.height, camera.width
    u = (np.arange(w) + 0.5 - camera.cx) / camera.fx
    v = (np.arange(h) + 0.5 - camera.cy) / camera.fy
    dx, dy = np.meshgrid(u, v)
    depth = np.full((h, w), np.inf)
    owner = np.full((h, w), -1, dtype=np.int64)
    for k, box in enumerate(boxes):
        # Boxes lie in front of the camera (see _acceptable), so a ray that
        # hits one passes through its projected box; outside that window,
        # padded by a pixel, every ray misses and keeps its depth.
        window = _pixel_window(projected_box2d(box, camera), w, h)
        t = ray_box_depths(dx[window], dy[window], box)
        closer = t < depth[window]
        depth[window][closer] = t[closer]
        owner[window][closer] = k
    if spec.floor_y is not None:
        with np.errstate(divide="ignore"):
            t_floor = np.where(dy > 1e-9, spec.floor_y / dy, np.inf)
        closer = t_floor < depth
        depth[closer] = t_floor[closer]
        owner[closer] = -2  # ground plane: valid depth, no instance

    valid = np.isfinite(depth)
    depth = np.where(valid, depth, 0.0)
    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=depth.shape)
        depth = np.where(valid, np.maximum(depth + noise, 1e-3), 0.0)

    image_id = image_id or f"synth-{seed:06d}"
    masks = [owner == k for k in range(len(boxes))]
    for k, mask in enumerate(masks):
        if not mask.any():
            raise ValueError(f"box {k} is fully occluded; adjust the spec or seed")
    instance_map = np.zeros((h, w), dtype=np.uint16)
    for k, mask in enumerate(masks):
        instance_map[mask] = k + 1

    image = ImageRecord(
        id=image_id,
        width=w,
        height=h,
        fx=camera.fx,
        fy=camera.fy,
        cx=camera.cx,
        cy=camera.cy,
        source="synthetic",
        scene="synthetic",
    )
    annotations = []
    for k, box in enumerate(boxes):
        aabb = projected_box2d(box, camera)
        annotations.append(
            AnnotationRecord(
                id=f"{image_id}-obj{k:03d}",
                image_id=image_id,
                category=spec.categories[k % len(spec.categories)],
                box2d=(
                    max(aabb.x1, 0.0),
                    max(aabb.y1, 0.0),
                    min(aabb.x2, float(w)),
                    min(aabb.y2, float(h)),
                ),
                center=tuple(float(c) for c in box.center),
                dims=tuple(float(d) for d in box.dims),
                quaternion=tuple(float(q) for q in box.quaternion),
                ignore3d=False,
                quality="good_fit",
                instance=k + 1,
            )
        )
    return SynthScene(
        image=image,
        annotations=annotations,
        boxes=boxes,
        depth=depth,
        instance_map=instance_map,
        masks=masks,
    )
