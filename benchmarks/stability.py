#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way its acceptance is judged.

    python3 benchmarks/stability.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                    [--trace-twice] [--out FILE]

Runs ``run.py`` once per seed on each workload (untraced) and reports, for
each end-to-end metric, the median over seeds and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json. With
``--trace-twice`` it also makes two traced runs of the first seed per
workload and checks that every ``calls`` metric is identical between them.
``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its result line, plus the environment it printed."""
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("environment "):
            result["environment"] = json.loads(line[len("environment "):])
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median; the spread of a single value is 0."""
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-twice", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            results.append(run(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"failed={results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            rows[name] = {"median": median, "iqr_share": share, "bound": bound, "values": values}
            flag = "" if share <= bound / 3 or name == "setup_s" else ("  > bound/3" if share <= bound else "  > BOUND")
            ok = ok and (share <= bound or name == "setup_s")
            print(f"  {name:16s} median {median:12.6g} {units[name]:3s}  iqr/median {share:8.4f}  bound {bound}{flag}")
        summary[workload] = {"runs": len(results), "environment": results[0].get("environment"),
                             "metrics": rows,
                             "failed": [r["failed"] for r in results],
                             "attempted": [r["attempted"] for r in results],
                             "correct": [r["correct"] for r in results]}
        if args.trace_twice:
            first, second = (run(workload, args.first_seed, spec["run_seconds"], 1) for _ in range(2))
            differ = [name for name, m in first["metrics"].items()
                      if name.endswith(".calls") and m["value"] != second["metrics"][name]["value"]]
            summary[workload]["calls_identical_in_two_traced_runs"] = not differ
            ok = ok and not differ
            print(f"  traced twice: calls {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
