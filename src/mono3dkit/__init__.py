"""Geometry, lifting, filtering, and evaluation toolkit for open-vocabulary
monocular 3D object detection.

The package covers the deterministic, non-neural side of such a system:
oriented-box math with exact IoU, a pinhole camera model, the 12-parameter
box regression codec, reference losses with analytic gradients, a geometric
2D-to-3D lifting pipeline, rule-based annotation filters, benchmark
protocols (AP sweeps, error metrics, ODS), balanced split sampling, dataset
file formats, and a synthetic scene generator that closes the loop for
testing. The ``mono3dkit`` command exposes the main workflows.
"""

from .camera import (
    CameraModel,
    backproject,
    project,
    projected_box2d,
    projected_extents,
    ray_directions,
    ray_field,
)
from .codec import (
    BoxEncoding12,
    confidence_target,
    decode_box,
    depth_quality,
    encode_box,
    fuse_score,
)
from .evaluation import (
    Detection,
    EvalResult,
    GroundTruth,
    average_precision,
    depth_band,
    evaluate,
    frequency_split,
    match_group,
    nms,
    ods,
    tp_errors,
)
from .filters import (
    FilterVerdict,
    SizeSpec,
    edge_contact_fraction,
    geometric_filter,
    occlusion_ratio,
    projected_iou,
    projection_size_ratio,
    ratio_filters,
    size_filter,
    small_object_gate,
    small_upgrade_allowed,
)
from .geometry import (
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
from .lifting import (
    LiftCandidate,
    TranslationResult,
    adaptive_select,
    anchor_weights,
    correct_rotation,
    estimate_gravity,
    extract_object_points,
    fit_oriented_box,
    inclusion_loss,
    largest_cluster,
    lift_annotation,
    optimize_translation,
    projection_loss,
    remove_outliers,
    sample_anchors,
    scale_depth_to_box2d,
    tightness_loss,
)
from .losses import (
    LossReport,
    camera_ray_mse,
    clip_and_scale_geom,
    conf_loss,
    conf_target,
    depth_l1_loss,
    global_pointmap_alignment,
    l3d_regression,
    loss_2d,
    mask_bce_loss,
    scale_and_clip_o2m,
    silog_loss,
)
from .dataio import (
    AnnotationRecord,
    DatasetFile,
    ImageRecord,
    SceneCloud,
    canonical_json,
    cloud_from_depth,
    read_dataset,
    read_depth,
    read_instance_map,
    read_size_specs,
    write_dataset,
    write_depth,
    write_instance_map,
    write_size_specs,
)
from .sampler import SamplerTargets, SampleResult, sample_eval_split
from .synth import SynthScene, SynthSpec, synth_scene

__version__ = "0.1.0"
