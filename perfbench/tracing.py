"""Spans around the public functions of mono3dkit, installed from outside.

The benchmark never edits the package. For a traced run it replaces module
attributes (``mono3dkit.evaluation.iou3d``, ``mono3dkit.lifting.project``,
...) with wrappers that record a span per call, and puts the originals back
afterwards. Because ``from .geometry import iou3d`` copies the reference
into the importing module, every ``mono3dkit`` module namespace is scanned
and each attribute that *is* a target function is replaced; the span keeps
the module the call came from, so counts can be split by caller.

Spans live in flat in-memory arrays (name, caller, start, end, parent, op)
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# Public functions wrapped per layer. Private helpers stay inside the span
# of the public function that calls them, so their time is that layer's
# self time.
LAYERS = {
    "synth": ("synth_scene",),
    "dataio": (
        "write_depth",
        "write_instance_map",
        "read_depth",
        "read_instance_map",
        "cloud_from_depth",
        "read_dataset",
        "write_dataset",
    ),
    "lifting": (
        "lift_annotation",
        "extract_object_points",
        "remove_outliers",
        "largest_cluster",
        "fit_oriented_box",
        "anchor_weights",
        "sample_anchors",
        "optimize_translation",
        "scale_depth_to_box2d",
        "adaptive_select",
        "correct_rotation",
        "estimate_gravity",
        "projection_loss",
    ),
    "filters": ("occlusion_ratio", "geometric_filter", "size_filter", "ratio_filters"),
    "geometry": ("iou3d", "iou3d_monte_carlo", "iou2d", "giou2d"),
    "camera": ("project", "backproject"),
    "evaluation": ("evaluate", "nms", "match_group", "average_precision", "tp_errors"),
    "sampler": ("sample_eval_split",),
}

ROOT = "bench.op"  # the span the benchmark opens around each operation


class Tracer:
    """Span recorder. One instance per traced run; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        self.sites: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._site_ids: dict[str, int] = {}
        self.name = array("i")
        self.site = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        # Per-span observations for the few spans whose arguments or result
        # feed a counter: span index -> value.
        self.notes: dict[int, object] = {}

    def _intern(self, table: dict, values: list, key: str) -> int:
        if key not in table:
            table[key] = len(values)
            values.append(key)
        return table[key]

    def begin(self, name: str, site: str = "bench") -> int:
        idx = len(self.start)
        self.name.append(self._intern(self._name_ids, self.names, name))
        self.site.append(self._intern(self._site_ids, self.sites, site))
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark operation; spans inside carry its id."""
        self._op = op_id
        idx = self.begin(ROOT)
        try:
            yield
        finally:
            self.finish(idx)
            self._op = -1

    def _wrap(self, name: str, site: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if observe is not None:
                self.notes[idx] = observe(args, result)
            return result

        return traced

    def install(self, observers: dict | None = None):
        """Wrap every target function in every loaded mono3dkit module."""
        observers = observers or {}
        targets = {}
        for layer, fnames in LAYERS.items():
            module = sys.modules[f"mono3dkit.{layer}"]
            for fname in fnames:
                targets[id(getattr(module, fname))] = f"{layer}.{fname}"
        modules = [(name, mod) for name, mod in sys.modules.items() if name.split(".")[0] == "mono3dkit"]
        for modname, module in modules:
            site = modname.partition(".")[2] or "package"
            for attr, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is None:
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(name, site, value, observers.get(name)))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def spans(self):
        """Rows of (index, name, site, start_ns, end_ns, parent, op)."""
        for i in range(len(self.start)):
            yield i, self.names[self.name[i]], self.sites[self.site[i]], self.start[i], self.end[i], self.parent[i], self.op[i]

    def self_times_ns(self) -> list[int]:
        """Duration of each span minus the time its direct children cover.

        Calls are synchronous and single-threaded, so children nest inside
        their parent and never overlap each other.
        """
        own = [self.end[i] - self.start[i] for i in range(len(self.start))]
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_self_ns_by_op(self) -> dict[int, dict[str, int]]:
        """op id -> {layer: self time}; the root span's self time is "bench"."""
        own = self.self_times_ns()
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            layer = "bench" if name == ROOT else name.split(".", 1)[0]
            out[self.op[i]][layer] += own[i]
        return out

    def write_tsv(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\top\tname\tsite\tstart_ns\tend_ns\n")
            for i, name, site, t0, t1, parent, op in self.spans():
                f.write(f"{i}\t{parent}\t{op}\t{name}\t{site}\t{t0}\t{t1}\n")
