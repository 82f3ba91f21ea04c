"""Smoke test of the benchmark: one op of every workload, the self-time
arithmetic of a trace, the reference clock, the metric names against
BENCHMARK.json, and the command line end to end.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def test_metric_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_its_check_and_repeats_exactly(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, str(tmp_path)).op(0)
    assert first.ok and first.recovered <= first.checked
    again = cls(7, str(tmp_path)).op(0)
    assert again.canon == first.canon


def test_reference_clock_is_a_fixed_kernel_with_positive_cost():
    assert refclock.kernel() == refclock.kernel()
    assert refclock.sample(calls=3) > 0.0


def test_self_times_add_up_to_the_root_span(monkeypatch):
    tracer = tracing.Tracer()
    ticks = iter(range(5, 1000, 5))
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(ticks))
    with tracer.op_span(0):
        outer = tracer.begin("lifting.lift_annotation")
        tracer.finish(tracer.begin("geometry.iou3d"))
        tracer.finish(outer)
        tracer.finish(tracer.begin("camera.project"))
    own = dict(tracer.layer_self_ns_by_op()[0])
    # root 5..40 holds lift 10..25 (which holds iou3d 15..20) and project 30..35
    assert own == {"bench": 15, "lifting": 10, "geometry": 5, "camera": 5}
    assert sum(own.values()) == tracer.end[0] - tracer.start[0]


def test_traced_eval_op_reports_every_layer_metric(tmp_path):
    pool = workloads.EvalPool(3, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install({"geometry.iou3d": lambda a, r: (a[0], a[1], r)})
    try:
        with tracer.op_span(0):
            outcome = pool.op(0)
    finally:
        tracer.uninstall()
    assert workloads.m3.evaluation.iou3d is workloads.m3.geometry.iou3d  # originals restored
    metrics = layers.layer_metrics(tracer, [outcome], [1.0], [1.5])
    assert set(metrics) == set(layers.UNITS)
    assert metrics["geometry.iou3d_calls"] > metrics["geometry.iou3d_distinct_pairs"] > 0
    assert metrics["evaluation.match_group_calls"] > 0
    total = sum(metrics[f"{layer}.self_ms"] for layer in layers.SELF_LAYERS) + metrics["bench.remainder_ms"]
    assert total == pytest.approx(metrics["trace.root_span_ms"], rel=1e-9)
    assert metrics["trace.overhead_ms"] == pytest.approx(0.5)


def test_command_prints_every_end_to_end_metric():
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "iou-oracle", "--seed", "1", "--seconds", "0.01", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    side, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == workloads.IouOracle.min_ops
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert side["digest_ops"] == workloads.IouOracle.min_ops and len(side["digest"]) == 64


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "iou-oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
