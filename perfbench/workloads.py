"""The four benchmark workloads.

Each workload is built from the run's seed alone (its set-up), then runs
one operation per call to ``op(k)``. An operation returns an ``Outcome``:
the canonical bytes of everything it produced (hashed into the run's output
digest), whether its output checks passed, and the counts the per-layer
report needs. Every workload calls the package through the ``mono3dkit``
module attributes, so a traced run sees each call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import mono3dkit as m3
from mono3dkit.dataio import AnnotationRecord, DatasetFile, ImageRecord

# C6 camera and recovery rule: within 0.1 m of the true center and 10% on
# every sorted dimension.
LIFT_CAMERA = (600.0, 600.0, 640.0, 480.0, 1280, 960)
RECOVER_CENTER_M = 0.1
RECOVER_DIMS_REL = 0.1
BLOCK_SPEC = m3.SizeSpec("block", (0.1, 0.6), (0.1, 0.7), (0.1, 0.8), 5.0)

# C2 tolerance between exact and Monte-Carlo IoU, at 10^6 samples.
MC_SAMPLES = 1_000_000
MC_TOL = 0.01

# C9 split size, source quotas and tolerance.
SAMPLE_SIZE = 600
SAMPLE_SOURCE_TOL = 0.03


class Workload:
    """Set-up is the constructor; ``op(k)`` runs operation k."""

    cycle = 1  # runs stop after a whole number of these ops
    min_ops = 1  # every run does at least these; the digest covers them

    def op(self, k: int) -> "Outcome":
        raise NotImplementedError


@dataclass
class Outcome:
    """One op's result. ``ok`` is false when the op raised (``error`` set,
    no output) or when its output failed the workload's check."""

    canon: bytes
    ok: bool
    checked: int = 1  # outputs compared against known truth
    recovered: int = 1  # of those, how many matched it
    info: dict = field(default_factory=dict)
    error: str | None = None

    @classmethod
    def raised(cls, exc: Exception, checked: int = 1) -> "Outcome":
        return cls(canon=canonical({"error": str(exc)}), ok=False, checked=checked, recovered=0, error=str(exc))


def canonical(obj) -> bytes:
    """JSON with sorted keys and shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def box_obj(box: m3.Box3D) -> list:
    return [[float(v) for v in box.center], [float(v) for v in box.dims], [float(v) for v in box.quaternion]]


def derived_seed(seed: int, k: int) -> int:
    """Per-operation seed, a pure function of the run seed and op index."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# lift-scenes: synth -> rasters on disk -> cloud -> lift -> filters -> eval
# ---------------------------------------------------------------------------


class LiftScenes(Workload):
    """One op renders one scene of 1 + k % 5 boxes and lifts every object."""

    cycle = min_ops = 5  # scenes of 1..5 boxes

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.camera = m3.CameraModel(*LIFT_CAMERA)
        self.depth_path = os.path.join(workdir, "scene.wd3d")
        self.inst_path = os.path.join(workdir, "scene.wd3i")

    def op(self, k: int) -> Outcome:
        cam = self.camera
        try:
            scene = m3.synth_scene(m3.SynthSpec(n_boxes=1 + k % 5), cam, seed=derived_seed(self.seed, k))
            m3.write_depth(self.depth_path, scene.depth)
            m3.write_instance_map(self.inst_path, scene.instance_map)
            raster_bytes = os.path.getsize(self.depth_path) + os.path.getsize(self.inst_path)
            depth = m3.read_depth(self.depth_path)
            instances = m3.read_instance_map(self.inst_path)
            cloud = m3.cloud_from_depth(depth, cam)
            objects, dets, gts = [], [], []
            for ann, truth in zip(scene.annotations, scene.boxes):
                box2d = m3.Box2D(*ann.box2d)
                cand = m3.lift_annotation(cloud, instances == ann.instance, box2d, cam)
                occ = m3.occlusion_ratio(cand.box, depth, cam)
                verdicts = [
                    m3.geometric_filter(cand, box2d, cam, (cam.width, cam.height), occlusion=occ),
                    m3.size_filter(cand, BLOCK_SPEC),
                    m3.ratio_filters(cand, BLOCK_SPEC),
                ]
                failed = sorted(rule for v in verdicts for rule in v.failed_rules)
                c_err = float(np.linalg.norm(cand.box.center - truth.center))
                d_err = float(np.max(np.abs(np.sort(cand.box.dims) - np.sort(truth.dims)) / np.sort(truth.dims)))
                meas = cand.measurements
                objects.append(
                    {
                        "box": box_obj(cand.box),
                        "occlusion": occ,
                        "failed_rules": failed,
                        "recovered": c_err <= RECOVER_CENTER_M and d_err <= RECOVER_DIMS_REL,
                        "points_in": int(meas["n_extracted"]),
                        "after_outliers": int(meas["n_after_outliers"]),
                        "cluster": int(meas["n_cluster"]),
                        "branch": meas["branch"],
                        "grid_evals": int(meas["n_grid_evaluations"]),
                        "polish_improved": bool(meas["refined_loss"] < meas["grid_loss"]),
                    }
                )
                s3d = min(1.0, max(0.0, 1.0 - cand.losses["projection"]))
                dets.append(m3.Detection(ann.image_id, ann.category, cand.box, box2d, 0.9, s3d))
                gts.append(m3.GroundTruth(ann.image_id, ann.category, box2d, truth))
            result = m3.evaluate(dets, gts, mode="iou")
        except ValueError as exc:
            return Outcome.raised(exc, checked=0)
        ev = eval_summary(result)
        out = {"objects": objects, "eval": ev}
        return Outcome(
            canon=canonical(out),
            ok=eval_consistent(result),
            checked=len(objects),
            recovered=sum(o["recovered"] for o in objects),
            info={"objects": objects, "raster_bytes": raster_bytes},
        )


# ---------------------------------------------------------------------------
# eval-pool: one evaluate(mode="iou") over a fixed detection/GT pool
# ---------------------------------------------------------------------------

EVAL_CAMERA = (720.0, 720.0, 640.0, 360.0, 1280, 720)
# image count per category: "common" sits in 5..20 images, "rare" below 5.
EVAL_CATEGORIES = {"car": ((1.6, 1.5, 4.2), 3, 6), "pedestrian": ((0.6, 1.7, 0.6), 2, 3)}
EVAL_IMAGES = 6
EVAL_DEPTH_BANDS = ((4.0, 10.0), (10.0, 35.0), (35.0, 60.0))  # near, medium, far
EVAL_IGNORE_FRAC = 0.05
EVAL_FP_FRAC = 0.15
EVAL_POOLS = 32


def eval_summary(result: m3.EvalResult) -> dict:
    return {
        "mode": result.mode,
        "per_category_ap": result.per_category_ap,
        "overall_ap": result.overall_ap,
        "ap_by_depth": result.ap_by_depth,
        "ap_by_frequency": result.ap_by_frequency,
        "mate": result.mate,
        "mase": result.mase,
        "maoe": result.maoe,
        "ods": result.ods_score,
        "flags": list(result.flags),
        "match_log": [
            [d.image_id, d.category, kind, None if g is None else box_obj(g.box3d)] for d, kind, g in result.match_log
        ],
    }


def _in_unit(x) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def eval_consistent(result: m3.EvalResult) -> bool:
    """Every AP in [0, 1] and ODS equal to its components."""
    aps = [result.overall_ap, *result.per_category_ap.values(), *result.ap_by_depth.values(), *result.ap_by_frequency.values()]
    errors_finite = all(math.isfinite(v) for v in (result.mate, result.mase, result.maoe))
    ods = m3.ods(result.overall_ap, result.mate, result.mase, result.maoe)
    return all(_in_unit(a) for a in aps) and errors_finite and abs(ods - result.ods_score) <= 1e-12


def _yaw_box(center, dims, yaw) -> m3.Box3D:
    return m3.Box3D(np.asarray(center, dtype=np.float64), np.asarray(dims, dtype=np.float64), [math.cos(yaw / 2), 0.0, math.sin(yaw / 2), 0.0])


def _box2d(box: m3.Box3D, cam: m3.CameraModel) -> m3.Box2D:
    px = m3.project(cam, box.corners())
    return m3.Box2D(float(px[:, 0].min()), float(px[:, 1].min()), float(px[:, 0].max()), float(px[:, 1].max()))


def eval_pool(rng: np.random.Generator, cam: m3.CameraModel):
    """One pool: gravity-aligned GT over three depth bands with skewed
    category counts; detections are perturbed copies of the GT plus false
    positives. The pool's shape is the same for every seed, so its cost
    varies little: the i-th GT of an image has i % 3 duplicates, false
    positives go round the GT list, and the last GT is the ignored one.
    Returns (detections, ground truths)."""
    gts, dets = [], []
    slot = 0
    for category, (dims, per_image, n_images) in EVAL_CATEGORIES.items():
        for image in rng.permutation(EVAL_IMAGES)[:n_images]:
            for i in range(per_image):
                lo, hi = EVAL_DEPTH_BANDS[slot % len(EVAL_DEPTH_BANDS)]
                slot += 1
                z = rng.uniform(lo, hi)
                size = np.asarray(dims) * rng.uniform(0.85, 1.15, 3)
                center = (rng.uniform(-0.4, 0.4) * z, 1.6 - size[1] / 2, z)
                gts.append((f"img{image:02d}", category, _yaw_box(center, size, rng.uniform(0, math.pi)), i % 3))
    n_ignore = max(1, round(EVAL_IGNORE_FRAC * len(gts)))
    truths = []
    for j, (image_id, category, box, duplicates) in enumerate(gts):
        b2 = _box2d(box, cam)
        if j >= len(gts) - n_ignore:
            truths.append(m3.GroundTruth(image_id, category, b2, None, True))
        else:
            truths.append(m3.GroundTruth(image_id, category, b2, box))
        for _ in range(1 + duplicates):
            scale = float(np.linalg.norm(box.dims))
            moved = _yaw_box(
                box.center + rng.normal(0.0, 0.04 * scale, 3),
                box.dims * rng.uniform(0.9, 1.1, 3),
                m3.yaw_of_rotation(box.rotation) + rng.normal(0.0, 0.1),
            )
            dets.append(m3.Detection(image_id, category, moved, _box2d(moved, cam), rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0)))
    n_fp = round(EVAL_FP_FRAC * len(dets))
    for f in range(n_fp):
        image_id, category, box, _ = gts[f * len(gts) // n_fp]
        z = rng.uniform(4.0, 60.0)
        fp = _yaw_box((rng.uniform(-0.4, 0.4) * z, 1.6 - box.dims[1] / 2, z), box.dims, rng.uniform(0, math.pi))
        dets.append(m3.Detection(image_id, category, fp, _box2d(fp, cam), rng.uniform(0.1, 0.8), rng.uniform(0.0, 1.0)))
    return dets, truths


class EvalPool(Workload):
    """Set-up builds EVAL_POOLS pools from the seed; op k evaluates pool
    k % EVAL_POOLS. A run evaluates each pool at most once, so its median
    rests on many pools' costs rather than on a few pools repeated."""

    min_ops = 8

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        cam = m3.CameraModel(*EVAL_CAMERA)
        self.pools = [eval_pool(rng, cam) for _ in range(EVAL_POOLS)]

    def op(self, k: int) -> Outcome:
        dets, gts = self.pools[k % EVAL_POOLS]
        try:
            result = m3.evaluate(dets, gts, mode="iou")
        except ValueError as exc:
            return Outcome.raised(exc)
        ok = eval_consistent(result) and len(result.ap_by_depth) == 3 and len(result.ap_by_frequency) >= 2
        return Outcome(canon=canonical(eval_summary(result)), ok=ok, recovered=int(ok))


# ---------------------------------------------------------------------------
# iou-oracle: exact iou3d and the Monte-Carlo estimate of one C2-style pair
# ---------------------------------------------------------------------------


class IouOracle(Workload):
    """General rotations; b's center lies inside a's inscribed sphere, so
    every pair overlaps."""

    min_ops = 20

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def pair(self, k: int):
        rng = np.random.default_rng(derived_seed(self.seed, k))
        ca = np.array([0.0, 0.0, 5.0]) + rng.uniform(-1.0, 1.0, 3)
        dims_a = rng.uniform(0.8, 2.0, 3)
        a = m3.Box3D(ca, dims_a, rng.normal(size=4))
        direction = rng.normal(size=3)
        offset = direction / np.linalg.norm(direction) * rng.uniform(0.0, 0.45 * dims_a.min())
        b = m3.Box3D(ca + a.rotation @ offset, rng.uniform(0.8, 2.0, 3), rng.normal(size=4))
        return a, b

    def op(self, k: int) -> Outcome:
        a, b = self.pair(k)
        try:
            exact = m3.iou3d(a, b)
            mc = m3.iou3d_monte_carlo(a, b, n_samples=MC_SAMPLES, seed=k)
        except ValueError as exc:
            return Outcome.raised(exc)
        ok = exact > 0.0 and abs(exact - mc) <= MC_TOL
        return Outcome(canon=canonical([exact, mc]), ok=ok, recovered=int(ok), info={"mc_err": abs(exact - mc)})


# ---------------------------------------------------------------------------
# sample-pool: read the 10k-image C9 pool from disk, then sample a split
# ---------------------------------------------------------------------------


def c9_pool() -> tuple[DatasetFile, dict]:
    """The C9 pool: 10k images, 123 regular categories plus two rare ones."""
    sources = ("coco", "lvis", "lvis", "objects365", "objects365")
    band_z = [5.0] * 10 + [20.0] * 5 + [50.0] * 4 + [120.0]
    images, annotations = [], []
    for i in range(10_000):
        images.append(ImageRecord(id=f"im{i:05d}", width=640, height=480, fx=500.0, fy=500.0, cx=320.0, cy=240.0, source=sources[i % 5]))
        if i >= 9_997:
            category = "rare-a" if i == 9_997 else "rare-b"
        else:
            category = f"cat{i % 123:03d}"
        annotations.append(
            AnnotationRecord(
                id=f"a{i:05d}",
                image_id=f"im{i:05d}",
                category=category,
                box2d=(0.0, 0.0, 50.0, 50.0),
                center=(0.0, 0.0, band_z[i % 20]),
                dims=(1.0, 1.0, 1.0),
                quaternion=(1.0, 0.0, 0.0, 0.0),
                quality="good_fit",
            )
        )
    return DatasetFile(images=images, annotations=annotations), {a.image_id: a.category for a in annotations}


class SamplePool(Workload):
    """Set-up writes the pool file; each op reads it and samples with its
    own seed derived from the run seed."""

    min_ops = 3
    source_quotas = {"coco": 0.20, "lvis": 0.40, "objects365": 0.40}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.path = os.path.join(workdir, "pool.json")
        ds, self.category_of = c9_pool()
        self.categories = set(self.category_of.values())
        m3.write_dataset(ds, self.path)
        self.dataset_bytes = os.path.getsize(self.path)

    def op(self, k: int) -> Outcome:
        try:
            ds = m3.read_dataset(self.path)
            res = m3.sample_eval_split(ds, m3.SamplerTargets(), size=SAMPLE_SIZE, seed=derived_seed(self.seed, k))
        except ValueError as exc:
            return Outcome.raised(exc)
        covered = {self.category_of[i] for i in res.image_ids} == self.categories
        src_dev = max(abs(res.source_proportions[s] - q) for s, q in self.source_quotas.items())
        ok = covered and res.rare_categories == ("rare-a", "rare-b") and src_dev <= SAMPLE_SOURCE_TOL
        out = {
            "image_ids": res.image_ids,
            "rare": list(res.rare_categories),
            "depth": res.depth_proportions,
            "source": res.source_proportions,
            "phase_sizes": list(res.phase_sizes),
        }
        return Outcome(
            canon=canonical(out),
            ok=ok,
            recovered=int(ok),
            info={"phase_sizes": res.phase_sizes, "dataset_bytes": self.dataset_bytes},
        )


WORKLOADS = {
    "lift-scenes": LiftScenes,
    "eval-pool": EvalPool,
    "iou-oracle": IouOracle,
    "sample-pool": SamplePool,
}
