"""Pinhole camera model, projection, backprojection, and ray fields.

Pixel coordinates follow the usual image convention: x right, y down,
origin at the top-left corner, and pixel (i, j) sampled at its center
(i + 0.5, j + 0.5). Depth is z-depth (distance along the optical axis),
not ray length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box2D, Box3D

__all__ = [
    "CameraModel",
    "project",
    "projected_extents",
    "projected_box2d",
    "backproject",
    "ray_directions",
    "ray_field",
]

_MIN_DEPTH = 1e-9


@dataclass(frozen=True)
class CameraModel:
    """Intrinsics of a pinhole camera with an image of width x height pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValueError(f"intrinsics must be finite, got fx={self.fx}, fy={self.fy}, cx={self.cx}, cy={self.cy}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


def project(camera: CameraModel, points) -> np.ndarray:
    """Project camera-space points to pixel coordinates.

    Args:
        camera: intrinsics.
        points: (..., 3) array of camera-space points.

    Returns:
        (..., 2) pixel coordinates.

    Raises:
        ValueError: if any point is on or behind the camera plane
            (z <= 1e-9).
    """
    pts = np.asarray(points, dtype=np.float64)
    z = pts[..., 2]
    if np.any(z <= _MIN_DEPTH):
        raise ValueError("cannot project points behind the camera")
    u = camera.fx * pts[..., 0] / z + camera.cx
    v = camera.fy * pts[..., 1] / z + camera.cy
    return np.stack([u, v], axis=-1)


def projected_extents(camera: CameraModel, corners) -> np.ndarray:
    """Axis-aligned pixel box around each projected point set.

    Args:
        camera: intrinsics.
        corners: (..., K, 3) camera-space point sets, e.g. box corners.

    Returns:
        (..., 4) corner-form extents (x1, y1, x2, y2).

    Raises:
        ValueError: as :func:`project`.
    """
    px = project(camera, corners)
    return np.concatenate([px.min(axis=-2), px.max(axis=-2)], axis=-1)


def projected_box2d(box: Box3D, camera: CameraModel) -> Box2D:
    """Axis-aligned pixel box around the projected 3D corners (see :func:`projected_extents`)."""
    return Box2D.from_array(projected_extents(camera, box.corners()))


def backproject(camera: CameraModel, pixels, depth) -> np.ndarray:
    """Lift pixel coordinates with z-depth back to camera space.

    ``depth`` broadcasts against the pixel array; the returned points have
    z exactly equal to the given depth.
    """
    px = np.asarray(pixels, dtype=np.float64)
    d = np.asarray(depth, dtype=np.float64)
    x = (px[..., 0] - camera.cx) / camera.fx
    y = (px[..., 1] - camera.cy) / camera.fy
    ones = np.ones_like(x)
    return np.stack([x, y, ones], axis=-1) * d[..., None]


def ray_directions(camera: CameraModel, pixels) -> np.ndarray:
    """Unit viewing directions through the given pixel coordinates."""
    px = np.asarray(pixels, dtype=np.float64)
    x = (px[..., 0] - camera.cx) / camera.fx
    y = (px[..., 1] - camera.cy) / camera.fy
    d = np.stack([x, y, np.ones_like(x)], axis=-1)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def ray_field(camera: CameraModel, resolution: tuple[int, int] | None = None) -> np.ndarray:
    """Unit ray directions, shape (rows, cols, 3), on a grid covering the full image.

    Args:
        camera: intrinsics.
        resolution: (cols, rows) of the sampling grid; defaults to the
            camera's own pixel grid. Samples sit at the centers of the grid
            cells mapped onto the image, so the native resolution samples
            pixel centers (i + 0.5, j + 0.5).
    """
    if resolution is None:
        cols, rows = camera.width, camera.height
    else:
        cols, rows = resolution
    if cols <= 0 or rows <= 0:
        raise ValueError("resolution must be positive")
    u = (np.arange(cols) + 0.5) * (camera.width / cols)
    v = (np.arange(rows) + 0.5) * (camera.height / rows)
    uu, vv = np.meshgrid(u, v)
    return ray_directions(camera, np.stack([uu, vv], axis=-1))
