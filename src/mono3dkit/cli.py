"""Command-line interface.

Subcommands: eval (benchmark a prediction file), lift (2D-to-3D lifting over
a dataset), synth (generate synthetic scenes), sample (balanced split
selection), iou (exact vs Monte-Carlo box overlap). Every subcommand is
deterministic given its inputs, flags, and seed.

Exit codes: 0 success, 1 internal error, 2 user or input error. Output
files are written atomically and carry the effective configuration under a
"config" key.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import dataio
from .camera import CameraModel
from .evaluation import Detection, GroundTruth, evaluate
from .filters import geometric_filter, occlusion_ratio, ratio_filters, size_filter
from .geometry import Box3D, iou3d, iou3d_monte_carlo
from .lifting import lift_annotation
from .sampler import SamplerTargets, sample_eval_split
from .synth import SynthSpec, synth_scene

__all__ = ["InputError", "detections_from_dataset", "ground_truths_from_dataset", "main"]


class InputError(ValueError):
    """User-correctable problem: bad paths, malformed files, bad flags."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are InputErrors, so ``main`` reports them like any bad input."""

    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage().rstrip()}")


def _number_in(convert, low: float, high: float = math.inf, above: bool = False):
    """Argparse type: a finite ``convert(text)`` (int or float) in [low, high], or in (low, high] when ``above``."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {'an integer' if convert is int else 'a number'}, got {text!r}") from None
        if not ((low < value if above else low <= value) and value <= high and abs(value) < math.inf):
            bounds = f"{'(' if above else '['}{low:g}, {high:g}{')' if high == math.inf else ']'}"
            raise argparse.ArgumentTypeError(f"must be in {bounds}, got {text}")
        return value

    return check


_non_negative_int = _number_in(int, 0)
_positive_int = _number_in(int, 1)
_fraction = _number_in(float, 0.0, 1.0)
_finite = _number_in(float, -math.inf, above=True)


@contextlib.contextmanager
def _input_errors(prefix: str = ""):
    """Re-raise a ValueError from the block as an InputError, message prefixed."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"{prefix}{exc}") from exc


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        cfg[key] = val if isinstance(val, (int, float, bool, str, type(None))) else list(val)
    return cfg


def _read_dataset(path: str) -> dataio.DatasetFile:
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    with _input_errors():
        return dataio.read_dataset(path)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def detections_from_dataset(ds: dataio.DatasetFile):
    """Annotations with 3D geometry and both scores become detections."""
    dets = []
    for a in ds.annotations:
        if not a.has_3d:
            continue
        if a.s2d is None or a.s3d is None:
            raise ValueError(f"annotation {a.id!r}: predictions need s2d and s3d")
        dets.append(
            Detection(
                image_id=a.image_id,
                category=a.category,
                box3d=a.box3d(),
                box2d=a.box2d_obj(),
                s2d=a.s2d,
                s3d=a.s3d,
            )
        )
    return dets


def ground_truths_from_dataset(ds: dataio.DatasetFile):
    """Every annotation becomes a ground truth; ignored ones carry no 3D box."""
    gts = []
    for a in ds.annotations:
        gts.append(
            GroundTruth(
                image_id=a.image_id,
                category=a.category,
                box2d=a.box2d_obj(),
                box3d=a.box3d() if (a.has_3d and not a.ignore3d) else None,
                ignore3d=a.ignore3d,
            )
        )
    return gts


def _cmd_eval(args) -> int:
    gt = _read_dataset(args.gt)
    pred = _read_dataset(args.pred)
    symmetric = ()
    if args.symmetric_categories:
        if not os.path.exists(args.symmetric_categories):
            raise InputError(f"no such file: {args.symmetric_categories}")
        with _input_errors(f"{args.symmetric_categories}: "):
            with open(args.symmetric_categories, "r", encoding="utf-8") as f:
                symmetric = tuple(line.strip() for line in f if line.strip())
    with _input_errors(f"{args.pred}: "):
        dets = detections_from_dataset(pred)
    with _input_errors(f"{args.gt}: "):
        gts = ground_truths_from_dataset(gt)
    result = evaluate(
        dets,
        gts,
        mode=args.mode,
        symmetric_categories=symmetric,
        nms_iou=args.nms_iou,
        score_floor=args.score_thresh,
        max_per_image=args.max_dets,
    )
    counts = {"tp": 0, "fp": 0, "neutral": 0}
    for _, kind, _ in result.match_log:
        counts[kind] += 1
    doc = {
        "config": _config_echo(args),
        "mode": result.mode,
        "overall_ap": result.overall_ap,
        "per_category_ap": result.per_category_ap,
        "ap_by_depth": result.ap_by_depth,
        "ap_by_frequency": result.ap_by_frequency,
        "mate": result.mate,
        "mase": result.mase,
        "maoe": result.maoe,
        "ods": result.ods_score,
        "match_counts": counts,
        "flags": list(result.flags),
    }
    dataio.atomic_write_text(args.output, dataio.canonical_json(doc))

    lines = [f"mode {result.mode}"]
    lines.append(f"{'category':<32}{'AP':>8}")
    for c in sorted(result.per_category_ap):
        lines.append(f"{c:<32}{result.per_category_ap[c]:>8.4f}")
    lines.append(
        f"overall AP {result.overall_ap:.4f} | mATE {result.mate:.4f} "
        f"mASE {result.mase:.4f} mAOE {result.maoe:.4f} | ODS {result.ods_score:.4f}"
    )
    band = " ".join(f"{k} {v:.4f}" for k, v in sorted(result.ap_by_depth.items()))
    freq = " ".join(f"{k} {v:.4f}" for k, v in sorted(result.ap_by_frequency.items()))
    if band:
        lines.append("AP by depth: " + band)
    if freq:
        lines.append("AP by frequency: " + freq)
    table = "\n".join(lines) + "\n"
    if args.table:
        dataio.atomic_write_text(args.table, table)
    sys.stdout.write(table)
    return 0


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def _lift_one(ann, image, cloud, depth_map, instances, size_specs, args):
    mask = instances == ann.instance
    camera = image.camera
    candidate = lift_annotation(cloud, mask, ann.box2d_obj(), camera, seed=args.seed)
    record = {
        "annotation_id": ann.id,
        "image_id": ann.image_id,
        "category": ann.category,
        "generator": candidate.generator,
        "status": candidate.status,
        "center": list(candidate.box.center),
        "dims": list(candidate.box.dims),
        "quaternion": list(candidate.box.quaternion),
        "losses": candidate.losses,
        "measurements": candidate.measurements,
    }
    occ = occlusion_ratio(candidate.box, depth_map, camera, seed=args.seed)
    verdicts = [
        geometric_filter(candidate, ann.box2d_obj(), camera, (image.width, image.height), occlusion=occ)
    ]
    spec = size_specs.get(ann.category) if size_specs else None
    verdicts.append(size_filter(candidate, spec, args.dataset_class))
    verdicts.append(ratio_filters(candidate, spec))
    failed = [rule for v in verdicts for rule in v.failed_rules]
    flags = [flag for v in verdicts for flag in v.flags]
    record["filter"] = {
        "passed": not failed,
        "failed_rules": sorted(failed),
        "flags": sorted(set(flags)),
    }
    record["ignore3d"] = bool(failed)
    return record


def _read_rasters(image, depth_file: str, inst_file: str):
    """Depth map, instance map and scene cloud of one image."""
    with _input_errors():
        depth = dataio.read_depth(depth_file)
        instances = dataio.read_instance_map(inst_file)
    if instances.shape != depth.shape:
        raise InputError(f"{inst_file}: instance map is {instances.shape}, depth map is {depth.shape}")
    with _input_errors(f"{depth_file}: "):
        cloud = dataio.cloud_from_depth(depth, image.camera)
    return depth, instances, cloud


def _cmd_lift(args) -> int:
    ds = _read_dataset(args.dataset)
    size_specs = None
    if args.size_spec:
        if not os.path.exists(args.size_spec):
            raise InputError(f"no such file: {args.size_spec}")
        with _input_errors():
            size_specs = dataio.read_size_specs(args.size_spec)
    anns_of = {}
    for a in ds.annotations:
        if a.instance is not None:
            anns_of.setdefault(a.image_id, []).append(a)
    records = []
    for image in sorted(ds.images, key=lambda im: im.id):
        anns = anns_of.get(image.id)
        if not anns:
            continue
        if image.depth_path is None:
            raise InputError(f"{args.dataset}: image {image.id!r} has no depth_path")
        depth_file = os.path.join(args.depth_dir, image.depth_path)
        inst_file = os.path.join(args.masks_dir, f"{image.id}.wd3i")
        if not os.path.exists(depth_file):
            raise InputError(f"no such depth file: {depth_file}")
        if not os.path.exists(inst_file):
            raise InputError(f"no such instance map: {inst_file}")
        depth, instances, cloud = _read_rasters(image, depth_file, inst_file)
        for ann in sorted(anns, key=lambda a: a.id):
            try:
                records.append(_lift_one(ann, image, cloud, depth, instances, size_specs, args))
            except ValueError as exc:
                records.append(
                    {
                        "annotation_id": ann.id,
                        "image_id": ann.image_id,
                        "category": ann.category,
                        "status": "failed",
                        "error": str(exc),
                        "ignore3d": True,
                    }
                )
    doc = {"config": _config_echo(args), "candidates": records}
    dataio.atomic_write_text(args.output, dataio.canonical_json(doc))
    n_ok = sum(1 for r in records if r.get("status") == "optimized")
    sys.stdout.write(f"lifted {n_ok}/{len(records)} annotations -> {args.output}\n")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _write_synth(args, spec: SynthSpec, camera: CameraModel, written: list):
    """Render and write every scene, recording each file once it exists."""

    def write(name: str, save):
        path = os.path.join(args.out_dir, name)
        save(path)
        written.append(path)

    ds = dataio.DatasetFile()
    for k in range(args.scenes):
        with _input_errors(f"scene seed {args.seed + k}: "):
            scene = synth_scene(spec, camera, seed=args.seed + k, image_id=f"synth-{args.seed + k:06d}")
            scene.image.depth_path = f"{scene.image.id}.wd3d"
            write(scene.image.depth_path, lambda path: dataio.write_depth(path, scene.depth))
            write(f"{scene.image.id}.wd3i", lambda path: dataio.write_instance_map(path, scene.instance_map))
        ds.images.append(scene.image)
        ds.annotations.extend(scene.annotations)
    write("dataset.json", lambda path: dataio.write_dataset(ds, path))
    meta = {"config": _config_echo(args), "images": [im.id for im in ds.images]}
    write("synth-config.json", lambda path: dataio.atomic_write_text(path, dataio.canonical_json(meta)))


def _cmd_synth(args) -> int:
    # The flag types admit only values that CameraModel and SynthSpec accept.
    camera = CameraModel(args.fx, args.fy, args.cx, args.cy, args.width, args.height)
    spec = SynthSpec(
        n_boxes=args.boxes,
        noise_sigma=args.noise_sigma,
        floor_y=None if args.no_floor else args.floor_y,
        categories=tuple(args.categories.split(",")),
    )
    created = not os.path.isdir(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    written: list = []
    try:
        _write_synth(args, spec, camera, written)
    except BaseException:
        # A failed run leaves the output directory as it found it, less the files it wrote.
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(args.out_dir)
        raise
    sys.stdout.write(f"wrote {args.scenes} scene(s) to {args.out_dir}\n")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    ds = _read_dataset(args.dataset)
    with _input_errors():
        result = sample_eval_split(ds, SamplerTargets(), size=args.size, seed=args.seed)
    doc = {
        "config": _config_echo(args),
        "image_ids": result.image_ids,
        "rare_categories": list(result.rare_categories),
        "depth_proportions": result.depth_proportions,
        "source_proportions": result.source_proportions,
        "phase_sizes": list(result.phase_sizes),
    }
    if args.output:
        dataio.atomic_write_text(args.output, dataio.canonical_json(doc))
    sys.stdout.write(f"selected {len(result.image_ids)} images: {' '.join(result.image_ids[:10])}")
    if len(result.image_ids) > 10:
        sys.stdout.write(" ...")
    sys.stdout.write("\n")
    if result.rare_categories:
        sys.stdout.write("rare categories: " + " ".join(result.rare_categories) + "\n")
    return 0


# ---------------------------------------------------------------------------
# iou
# ---------------------------------------------------------------------------


def _parse_box(values) -> Box3D:
    v = [float(x) for x in values]
    return Box3D(np.array(v[0:3]), np.array(v[3:6]), np.array(v[6:10]))


def _cmd_iou(args) -> int:
    with _input_errors("bad box: "):
        a = _parse_box(args.box_a)
        b = _parse_box(args.box_b)
    exact = iou3d(a, b)
    mc = iou3d_monte_carlo(a, b, n_samples=args.mc_samples, seed=args.seed)
    sys.stdout.write(f"exact {exact:.6f}, mc {mc:.3f} (n={args.mc_samples})\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mono3dkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="run the 3D detection benchmark")
    p.add_argument("gt", help="ground-truth dataset file")
    p.add_argument("pred", help="prediction dataset file (annotations carry s2d/s3d)")
    p.add_argument("--mode", choices=("iou", "dist"), default="iou")
    p.add_argument("--nms-iou", type=_fraction, default=0.6)
    p.add_argument("--score-thresh", type=_fraction, default=0.05)
    p.add_argument("--max-dets", type=_positive_int, default=100)
    p.add_argument("--symmetric-categories", default=None, help="file with one category per line")
    p.add_argument("--output", default="eval-result.json")
    p.add_argument("--table", default=None, help="also write the text table here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("lift", help="lift 2D annotations to 3D boxes")
    p.add_argument("dataset", help="dataset file with instance ids and depth paths")
    p.add_argument("--depth-dir", required=True)
    p.add_argument("--masks-dir", required=True)
    p.add_argument("--output", default="candidates.json")
    p.add_argument("--size-spec", default=None)
    p.add_argument("--dataset-class", choices=("standard", "fine_grained"), default="standard")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("synth", help="generate synthetic scenes")
    p.add_argument("--boxes", type=_positive_int, default=3)
    p.add_argument("--scenes", type=_positive_int, default=1)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out-dir", default="synth-out")
    p.add_argument("--width", type=_positive_int, default=960)
    p.add_argument("--height", type=_positive_int, default=720)
    p.add_argument("--fx", type=_number_in(float, 0.0, above=True), default=450.0)
    p.add_argument("--fy", type=_number_in(float, 0.0, above=True), default=450.0)
    p.add_argument("--cx", type=_finite, default=480.0)
    p.add_argument("--cy", type=_finite, default=360.0)
    p.add_argument("--noise-sigma", type=_number_in(float, 0.0), default=0.0)
    p.add_argument("--floor-y", type=_finite, default=1.2)
    p.add_argument("--no-floor", action="store_true")
    p.add_argument("--categories", default="block")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sample", help="select a balanced evaluation split")
    p.add_argument("dataset")
    p.add_argument("--size", type=_non_negative_int, default=0, help="phase-2 target image count")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("iou", help="exact and Monte-Carlo IoU of two boxes")
    p.add_argument("--box-a", nargs=10, required=True, metavar="V", help="cx cy cz w h l qw qx qy qz")
    p.add_argument("--box-b", nargs=10, required=True, metavar="V")
    p.add_argument("--mc-samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=_cmd_iou)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
