"""Per-layer metrics of a traced run, from its spans and op outcomes.

Names and units here are the ``per_layer`` list of BENCHMARK.json. A layer
a workload never calls reports 0 for its metrics. "Per object" means per
lifted annotation; "per op" means per benchmark operation; "per evaluate"
means per ``evaluate`` call.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import ROOT

LIFT_STAGES = {
    "extract": ("extract_object_points",),
    "outliers": ("remove_outliers",),
    "cluster": ("largest_cluster",),
    "boxfit": ("fit_oriented_box",),
    "anchors": ("anchor_weights", "sample_anchors"),
    "translation": ("optimize_translation",),
    "fallback": ("scale_depth_to_box2d", "adaptive_select"),
    "rotation": ("correct_rotation",),
    "gravity": ("estimate_gravity",),
}
FILTER_RULES = (
    "edge_contact",
    "proj_size_ratio",
    "occlusion",
    "size_shortest",
    "size_middle",
    "size_longest",
    "depth_width_ratio",
    "axis_proportion",
)
SELF_LAYERS = ("synth", "dataio", "lifting", "filters", "geometry", "camera", "evaluation", "sampler")

UNITS = {
    **{f"lifting.{stage}_ms": "ms" for stage in LIFT_STAGES},
    "lifting.points_in": "count",
    "lifting.cluster_keep_frac": "frac",
    "lifting.grid_evals": "count",
    "lifting.objective_calls": "count",
    "lifting.optimized_frac": "frac",
    "lifting.polish_improved_frac": "frac",
    "synth.scene_ms": "ms",
    "dataio.raster_write_ms": "ms",
    "dataio.raster_read_ms": "ms",
    "dataio.cloud_ms": "ms",
    "dataio.raster_bytes": "B",
    "dataio.read_dataset_ms": "ms",
    "dataio.dataset_bytes": "B",
    "filters.occlusion_ms": "ms",
    "filters.rules_ms": "ms",
    "filters.pass_frac": "frac",
    **{f"filters.rule_hits.{rule}": "count/object" for rule in FILTER_RULES},
    "geometry.iou3d_calls": "count",
    "geometry.iou3d_distinct_pairs": "count",
    "geometry.iou3d_nonzero_frac": "frac",
    "geometry.iou3d_us": "us",
    "geometry.mc_ms": "ms",
    "geometry.mc_max_abs_err": "iou",
    "camera.project_calls": "count",
    "evaluation.nms_ms": "ms",
    "evaluation.match_group_calls": "count",
    "evaluation.match_self_ms": "ms",
    "evaluation.ap_ms": "ms",
    "evaluation.iou2d_calls": "count",
    "sampler.sample_ms": "ms",
    "sampler.phase_sizes.cover": "count",
    "sampler.phase_sizes.fill": "count",
    "sampler.phase_sizes.patch": "count",
    **{f"{layer}.self_ms": "ms" for layer in SELF_LAYERS},
    "bench.remainder_ms": "ms",
    "trace.root_span_ms": "ms",
    "trace.op_ms_untraced": "ms",
    "trace.op_ms_traced": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans_per_op": "count",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def _pair_key(a, b):
    return tuple(arr.tobytes() for box in (a, b) for arr in (box.center, box.dims, box.quaternion))


class _Spans:
    """Span columns with durations, self times and nearest-ancestor lookup."""

    def __init__(self, tracer):
        self.n = len(tracer.start)
        self.name = [tracer.names[i] for i in tracer.name]
        self.site = [tracer.sites[i] for i in tracer.site]
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(self.n)]
        self.own = tracer.self_times_ns()
        self.parent = tracer.parent
        self.op = tracer.op
        self._anchor: dict[str, list[int]] = {}

    def anchor(self, name: str) -> list[int]:
        """For each span, the index of its nearest enclosing ``name`` span, or -1."""
        if name not in self._anchor:
            out = [-1] * self.n
            for i in range(self.n):  # parents precede children
                p = self.parent[i]
                if p >= 0:
                    out[i] = p if self.name[p] == name else out[p]
            self._anchor[name] = out
        return self._anchor[name]

    def named(self, name: str) -> list[int]:
        return [i for i in range(self.n) if self.name[i] == name]

    def per_group(self, group: str, names, value) -> list[float]:
        """For each ``group`` span, the sum of ``value(i)`` over spans in ``names`` below it."""
        anchor = self.anchor(group)
        sums = {g: 0.0 for g in self.named(group)}
        for i in range(self.n):
            if self.name[i] in names and anchor[i] >= 0:
                sums[anchor[i]] += value(i)
        return list(sums.values())

    def per_op(self, names, value) -> list[float]:
        """For each op, the sum of ``value(i)`` over its spans in ``names``."""
        sums: dict[int, float] = defaultdict(float)
        for i in range(self.n):
            if self.name[i] == ROOT:
                sums[self.op[i]] += 0.0
            elif self.name[i] in names:
                sums[self.op[i]] += value(i)
        return list(sums.values())


def layer_metrics(tracer, outcomes, untraced_ms, traced_ms) -> dict:
    """All per-layer metrics.

    ``outcomes`` are the traced ops' Outcomes; ``untraced_ms`` and
    ``traced_ms`` are the reference-time costs (see ``refclock.py``) of the
    same ops run without and with tracing, whose means give the tracing
    overhead. Span times are wall time: the layers' self times and the
    remainder add up to ``trace.root_span_ms``, the mean root span.
    """
    s = _Spans(tracer)
    ms = lambda i: s.dur[i] / 1e6  # noqa: E731
    one = lambda i: 1.0  # noqa: E731
    out = {}

    lift = "lifting.lift_annotation"
    for stage, fnames in LIFT_STAGES.items():
        out[f"lifting.{stage}_ms"] = _median(s.per_group(lift, {f"lifting.{f}" for f in fnames}, ms))
    objects = [o for oc in outcomes for o in oc.info.get("objects", [])]
    out["lifting.points_in"] = _median(o["points_in"] for o in objects)
    out["lifting.cluster_keep_frac"] = _frac(sum(o["cluster"] for o in objects), sum(o["after_outliers"] for o in objects))
    out["lifting.grid_evals"] = _median(o["grid_evals"] for o in objects)
    out["lifting.objective_calls"] = _median(s.per_group(lift, {"lifting.projection_loss"}, one))
    out["lifting.optimized_frac"] = _frac(sum(o["branch"] == "optimized" for o in objects), len(objects))
    out["lifting.polish_improved_frac"] = _frac(sum(o["polish_improved"] for o in objects), len(objects))

    out["synth.scene_ms"] = _median(ms(i) for i in s.named("synth.synth_scene"))

    out["dataio.raster_write_ms"] = _median(s.per_op({"dataio.write_depth", "dataio.write_instance_map"}, ms))
    out["dataio.raster_read_ms"] = _median(s.per_op({"dataio.read_depth", "dataio.read_instance_map"}, ms))
    out["dataio.cloud_ms"] = _median(ms(i) for i in s.named("dataio.cloud_from_depth"))
    out["dataio.raster_bytes"] = _median(oc.info["raster_bytes"] for oc in outcomes if "raster_bytes" in oc.info)
    out["dataio.read_dataset_ms"] = _median(ms(i) for i in s.named("dataio.read_dataset"))
    out["dataio.dataset_bytes"] = _median(oc.info["dataset_bytes"] for oc in outcomes if "dataset_bytes" in oc.info)

    out["filters.occlusion_ms"] = _median(ms(i) for i in s.named("filters.occlusion_ratio"))
    rule_calls = [[ms(i) for i in s.named(f"filters.{f}")] for f in ("geometric_filter", "size_filter", "ratio_filters")]
    out["filters.rules_ms"] = _median(sum(t) for t in zip(*rule_calls))
    out["filters.pass_frac"] = _frac(sum(not o["failed_rules"] for o in objects), len(objects))
    hits = Counter(rule for o in objects for rule in o["failed_rules"])
    for rule in FILTER_RULES:
        out[f"filters.rule_hits.{rule}"] = _frac(hits[rule], len(objects))

    iou3d = s.named("geometry.iou3d")
    notes = tracer.notes
    pairs_by_op: dict[int, set] = defaultdict(set)
    for i in iou3d:
        a, b, _ = notes[i]
        pairs_by_op[s.op[i]].add(_pair_key(a, b))
    out["geometry.iou3d_calls"] = _median(s.per_op({"geometry.iou3d"}, one))
    out["geometry.iou3d_distinct_pairs"] = _median(len(pairs_by_op[op]) for op in {s.op[i] for i in s.named(ROOT)})
    out["geometry.iou3d_nonzero_frac"] = _frac(sum(notes[i][2] > 0.0 for i in iou3d), len(iou3d))
    out["geometry.iou3d_us"] = _median(s.dur[i] / 1e3 for i in iou3d)
    out["geometry.mc_ms"] = _median(ms(i) for i in s.named("geometry.iou3d_monte_carlo"))
    out["geometry.mc_max_abs_err"] = max((oc.info["mc_err"] for oc in outcomes if "mc_err" in oc.info), default=0.0)

    out["camera.project_calls"] = _median(s.per_op({"camera.project"}, one))

    ev = "evaluation.evaluate"
    out["evaluation.nms_ms"] = _median(s.per_group(ev, {"evaluation.nms"}, ms))
    out["evaluation.match_group_calls"] = _median(s.per_group(ev, {"evaluation.match_group"}, one))
    out["evaluation.match_self_ms"] = _median(s.per_group(ev, {"evaluation.match_group"}, lambda i: s.own[i] / 1e6))
    out["evaluation.ap_ms"] = _median(s.per_group(ev, {"evaluation.average_precision"}, ms))
    out["evaluation.iou2d_calls"] = _median(s.per_group(ev, {"geometry.iou2d"}, lambda i: s.site[i] == "evaluation"))

    out["sampler.sample_ms"] = _median(ms(i) for i in s.named("sampler.sample_eval_split"))
    phases = [oc.info["phase_sizes"] for oc in outcomes if "phase_sizes" in oc.info]
    for k, phase in enumerate(("cover", "fill", "patch")):
        out[f"sampler.phase_sizes.{phase}"] = _median(p[k] for p in phases)

    by_op = tracer.layer_self_ns_by_op()
    ops = [op for op in by_op if op >= 0]
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = _frac(sum(by_op[op].get(layer, 0) for op in ops) / 1e6, len(ops))
    out["bench.remainder_ms"] = _frac(sum(by_op[op].get("bench", 0) for op in ops) / 1e6, len(ops))
    out["trace.root_span_ms"] = _frac(sum(ms(i) for i in s.named(ROOT)), len(ops))
    out["trace.op_ms_untraced"] = statistics.fmean(untraced_ms)
    out["trace.op_ms_traced"] = statistics.fmean(traced_ms)
    out["trace.overhead_ms"] = out["trace.op_ms_traced"] - out["trace.op_ms_untraced"]
    out["trace.spans_per_op"] = _frac(s.n, len(ops))
    return out
