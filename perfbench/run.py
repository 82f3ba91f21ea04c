"""mono3dkit benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload lift-scenes --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. BLAS
is pinned to one thread. Set-up (a fresh interpreter importing mono3dkit,
plus building the workload's inputs from the seed) is repeated three times
and its median reported. Then ops k = 0, 1, ... run back to back until
``--seconds`` of op wall time are measured, at least the workload's
``min_ops`` are done and the ops make whole input cycles (the lift-scenes
cycle is five scenes of 1..5 boxes, so every run has the same mix of scene
sizes). ``gc.collect()`` runs between ops, outside the timed span. Every
op's output is checked; an op fails when it raises ``ValueError`` (a
documented input rejection, e.g. synth_scene exhausting its placement
budget) or its output fails the check.

Ops and set-up are timed in CPU seconds (user + system) of the benchmark
process and the interpreters it starts, and reported in reference time
(see ``refclock.py``): CPU time divided by that of a fixed kernel sampled
between ops, so that a shared host's drifting speed cancels out. Every op
runs on one thread. ``ops_per_ref_s`` and ``op_ref_ms_p50`` are ops per
reference second and the median op in reference milliseconds; ``setup_s``
is the median set-up in reference seconds. Raw CPU and wall times are
kept on the side line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs ops
untraced for half the time, then runs the same ops again with spans around
the public functions of each layer, and prints the per-layer metrics, the
self time per layer (wall time) and the tracing overhead (reference time,
traced ops minus the same ops untraced); the spans
are written to ``perfbench/out/trace-<workload>-<seed>.tsv``.

The last stdout line is the result object. The line before it carries the
run's environment, its failed-op share and errors, every untraced op's CPU
and wall time, and the sha256 digest of the canonical outputs of ops
0 .. min_ops-1, which is equal across commits whose outputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "ops_per_ref_s": "1/s",
    "op_ref_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recovered_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def timed_setup(workload_cls, seed: int, workdir: str):
    """Set-up SETUP_REPEATS times (fresh-interpreter import + input build);
    returns the workload, the median set-up in reference seconds and each
    repeat's CPU seconds."""
    import refclock

    env = dict(os.environ, PYTHONPATH=SRC)
    cpu, ref_s = [], []
    for _ in range(SETUP_REPEATS):
        c0 = cpu_seconds()
        subprocess.run([sys.executable, "-c", "import mono3dkit"], env=env, check=True, cwd=ROOT)
        workload = workload_cls(seed, workdir)
        cpu.append(cpu_seconds() - c0)
        ref_s.append(cpu[-1] / refclock.sample() / 1e3)
    return workload, statistics.median(ref_s), cpu


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_ops(workload, ks, seconds: float, wrap=None):
    """Closed loop over op indices ``ks``.

    Returns (outcomes, op CPU seconds, op wall seconds, reference clock):
    the reference is the kernel's CPU seconds per call, the mean of the
    samples taken just before and just after the op. Stops once
    ``seconds`` of op wall time are measured, at least ``workload.min_ops``
    are done and the op count is a whole number of the workload's input
    cycles, or when ``ks`` runs out.
    """
    import refclock

    outcomes, cpu, wall, ref = [], [], [], []
    before = refclock.sample()
    total = 0.0
    for k in ks:
        gc.collect()
        ctx = wrap(k) if wrap else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        with ctx:
            outcome = workload.op(k)
        dc, dt = time.process_time() - c0, time.perf_counter() - t0
        after = refclock.sample()
        outcomes.append(outcome)
        cpu.append(dc)
        wall.append(dt)
        ref.append((before + after) / 2)
        before = after
        total += dt
        if total >= seconds and len(cpu) >= workload.min_ops and len(cpu) % workload.cycle == 0:
            break
    return outcomes, cpu, wall, ref


def reference_ms(cpu, ref) -> list[float]:
    """Op costs in reference milliseconds: CPU seconds over the kernel's
    CPU seconds per call."""
    return [c / r for c, r in zip(cpu, ref)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mono3dkit", "__init__.py")):
        print(f"run.py: no mono3dkit package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import layers
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as workdir:
        workload, setup_s, setup_cpu = timed_setup(cls, args.seed, workdir)
        if args.trace:
            untraced, cpu, wall, ref = run_ops(workload, itertools.count(), args.seconds / 2)
            op_ref_ms = reference_ms(cpu, ref)
            tracer = tracing.Tracer()
            tracer.install({"geometry.iou3d": lambda a, r: (a[0], a[1], r[0] if isinstance(r, tuple) else r)})
            try:
                traced, traced_cpu, _, traced_ref = run_ops(workload, range(len(untraced)), float("inf"), wrap=tracer.op_span)
            finally:
                tracer.uninstall()
            outcomes = untraced + traced
            metrics = layers.layer_metrics(tracer, traced, op_ref_ms, reference_ms(traced_cpu, traced_ref))
            units = layers.UNITS
            tracer.write_tsv(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.tsv"))
        else:
            outcomes, cpu, wall, ref = run_ops(workload, itertools.count(), args.seconds)
            op_ref_ms = reference_ms(cpu, ref)
            checked = sum(o.checked for o in outcomes)
            metrics = {
                "ops_per_ref_s": len(op_ref_ms) / sum(op_ref_ms) * 1e3,
                "op_ref_ms_p50": statistics.median(op_ref_ms),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "recovered_frac": sum(o.recovered for o in outcomes) / checked if checked else 0.0,
            }
            units = END_TO_END_UNITS

    failed = sum(not o.ok for o in outcomes)
    digest = hashlib.sha256()
    for o in outcomes[: cls.min_ops]:
        digest.update(hashlib.sha256(o.canon).digest())
    side = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest.hexdigest(),
        "digest_ops": cls.min_ops,
        "failed_frac": failed / len(outcomes),
        "errors": sorted({o.error for o in outcomes if o.error is not None}),
        "op_cpu_ms": [round(t * 1e3, 3) for t in cpu],
        "op_wall_ms": [round(t * 1e3, 3) for t in wall],
        "ref_call_us": [round(r * 1e6, 2) for r in ref],
        "setup_cpu_s": [round(c, 4) for c in setup_cpu],
        "env": environment(),
    }
    result = {
        # An op that raised produced no output; "correct" means no output
        # that was produced failed its check.
        "correct": all(o.ok or o.error is not None for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(side, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
