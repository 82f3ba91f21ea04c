"""12-D encoding of oriented 3D boxes relative to a 2D box and camera.

Layout of the encoding vector:

==== ==========================================================
 0-1  projected-center offset from the 2D box center, / 10 px
 2    log depth, scaled by 2.0
 3-5  log dims (w, h, l), scaled by 2.0
 6-11 first two rows of the rotation matrix
==== ==========================================================

Boxes are brought to canonical rotation before encoding, so
decode(encode(box)) reproduces the canonical form of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, backproject, project
from .geometry import Box2D, Box3D, matrix_to_quat, matrix_to_rot6d, normalize_box_rotation, quat_to_matrix, rot6d_to_matrix

__all__ = [
    "CENTER_OFFSET_SCALE",
    "LOG_DEPTH_SCALE",
    "LOG_DIM_SCALE",
    "BoxEncoding12",
    "encode_box",
    "decode_box",
    "depth_quality",
    "confidence_target",
    "fuse_score",
]

CENTER_OFFSET_SCALE = 10.0
LOG_DEPTH_SCALE = 2.0
LOG_DIM_SCALE = 2.0

# Blend between depth quality and 3D IoU in the confidence target.
_DEPTH_QUALITY_WEIGHT = 0.7
# Blend between 2D and 3D scores in the fused detection score.
_FUSE_3D_WEIGHT = 0.5


@dataclass(frozen=True)
class BoxEncoding12:
    """Named view of the 12-D box encoding."""

    dcx: float
    dcy: float
    log_depth: float
    log_w: float
    log_h: float
    log_l: float
    r6: np.ndarray  # first two rotation-matrix rows, shape (6,)

    def __post_init__(self):
        r6 = np.asarray(self.r6, dtype=np.float64).reshape(6)
        object.__setattr__(self, "r6", r6)

    def as_array(self) -> np.ndarray:
        head = [self.dcx, self.dcy, self.log_depth, self.log_w, self.log_h, self.log_l]
        return np.concatenate([np.asarray(head, dtype=np.float64), self.r6])

    @staticmethod
    def from_array(a) -> "BoxEncoding12":
        a = np.asarray(a, dtype=np.float64).reshape(12)
        return BoxEncoding12(
            dcx=float(a[0]),
            dcy=float(a[1]),
            log_depth=float(a[2]),
            log_w=float(a[3]),
            log_h=float(a[4]),
            log_l=float(a[5]),
            r6=a[6:12],
        )


def encode_box(box: Box3D, box2d: Box2D, camera: CameraModel) -> BoxEncoding12:
    """Encode a 3D box against its 2D box and camera.

    The box rotation is canonicalized first; the center must be in front of
    the camera.
    """
    dims, quat = normalize_box_rotation(box.dims, box.quaternion)
    center_px = project(camera, box.center)
    bx, by = box2d.center
    dcx = (float(center_px[0]) - bx) / CENTER_OFFSET_SCALE
    dcy = (float(center_px[1]) - by) / CENTER_OFFSET_SCALE
    log_depth = LOG_DEPTH_SCALE * math.log(float(box.center[2]))
    log_dims = LOG_DIM_SCALE * np.log(dims)
    r6 = matrix_to_rot6d(quat_to_matrix(quat))
    return BoxEncoding12(
        dcx=dcx,
        dcy=dcy,
        log_depth=log_depth,
        log_w=float(log_dims[0]),
        log_h=float(log_dims[1]),
        log_l=float(log_dims[2]),
        r6=r6,
    )


def decode_box(enc: BoxEncoding12, box2d: Box2D, camera: CameraModel) -> Box3D:
    """Invert :func:`encode_box` given the same 2D box and camera."""
    depth = math.exp(enc.log_depth / LOG_DEPTH_SCALE)
    bx, by = box2d.center
    u = bx + CENTER_OFFSET_SCALE * enc.dcx
    v = by + CENTER_OFFSET_SCALE * enc.dcy
    center = backproject(camera, np.array([u, v]), np.asarray(depth))
    dims = np.exp(np.array([enc.log_w, enc.log_h, enc.log_l]) / LOG_DIM_SCALE)
    quat = matrix_to_quat(rot6d_to_matrix(enc.r6))
    return Box3D(center=center, dims=dims, quaternion=quat)


def depth_quality(pred_log_depth: float, gt_log_depth: float) -> float:
    """Depth-consistency score exp(-|log depth error|), in (0, 1]."""
    return math.exp(-abs(float(pred_log_depth) - float(gt_log_depth)))


def confidence_target(q_depth: float, iou: float) -> float:
    """Soft 3D confidence target 0.7 * q_depth + 0.3 * iou3d; both lie in [0, 1]."""
    if not (0.0 <= q_depth <= 1.0 and 0.0 <= iou <= 1.0):
        raise ValueError("confidence target components must be in [0, 1]")
    return _DEPTH_QUALITY_WEIGHT * q_depth + (1.0 - _DEPTH_QUALITY_WEIGHT) * iou


def fuse_score(score_2d: float, score_3d: float) -> float:
    """Fused detection score: 2D score plus half the 3D confidence."""
    return float(score_2d) + _FUSE_3D_WEIGHT * float(score_3d)
