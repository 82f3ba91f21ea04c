"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Runs the BENCHMARK.json command once per (workload, seed), one run at a
time, and prints per workload and metric the median, the quartile spread
(Q3 - Q1 of ``statistics.quantiles(n=4)``, as a share of the median) and
the bound, plus the distinct output digests per seed. ``--out`` also
writes that summary as JSON, e.g. to record a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", type=seed_list, required=True, help="inclusive range, e.g. 1-10")
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            side, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            runs.append({"seed": seed, "digest": side["digest"], "attempted": result["attempted"], "failed": result["failed"], "correct": result["correct"]})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, result["attempted"], result["failed"], {k: round(v["value"], 4) for k, v in result["metrics"].items() if k in bounds}, flush=True)
        stats = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            stats[metric] = {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": vals}
            if metric in bounds or args.trace:
                print(f"  {metric:32s} median {med:12.4f}  spread {stats[metric]['spread']:.4f}  bound {bounds.get(metric)}")
        summary["workloads"][name] = {"runs": runs, "metrics": stats, "env": side["env"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
