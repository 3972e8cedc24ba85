#!/usr/bin/env python3
"""The opertuple benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the program is imported from its ``src/``. With
``--trace 0`` the last line of standard output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run. Human-readable lines (environment, every metric with its unit
and sample count, every mismatch with the construction truth) come before it.
Workloads, metrics and their predicted links are listed in design.json.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess

# BLAS and OpenMP threads for this process and every child it starts.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
GRIDS = ("small", "mid", "corner")
WORKLOADS = ("operator_polys", "vector_states", "joint_spectra", "cold_cli")
IMPORT_PROBE = (
    "from time import perf_counter\n"
    "start = perf_counter()\n"
    "import numpy, opertuple\n"
    "print(perf_counter() - start)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s.small", "s"),
    ("pass_s.mid", "s"),
    ("pass_s.corner", "s"),
    ("slowest_op_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# name -> (kind, span name) for the per-layer metrics read off the spans.
PER_LAYER = {
    "multiindex.enumerate_multiindices.calls": ("calls", "multiindex.enumerate_multiindices"),
    "multiindex.multinomial_weight.calls": ("calls", "multiindex.multinomial_weight"),
    "tuples.tuple_power.calls": ("calls", "tuples.tuple_power"),
    "tuples.tuple_power.self_s": ("self", "tuples.tuple_power"),
    "tuples.make_tuple.calls": ("calls", "tuples.make_tuple"),
    "tuples.make_tuple.self_s": ("self", "tuples.make_tuple"),
    "tuples.null_reducing_check.self_s": ("self", "tuples.null_reducing_check"),
    "tuples.quasinormal_class.self_s": ("self", "tuples.quasinormal_class"),
    "defects.level_sums.calls": ("calls", "defects.level_sums"),
    "defects.level_sums.self_s": ("self", "defects.level_sums"),
    "defects.partial_isometry_defect.calls": ("calls", "defects.partial_isometry_defect"),
    "defects.partial_isometry_defect.busy_s": ("busy", "defects.partial_isometry_defect"),
    "defects.isometry_defect.busy_s": ("busy", "defects.isometry_defect"),
    "defects.scalar_defect.calls": ("calls", "defects.scalar_defect"),
    "defects.scalar_defect.self_s": ("self", "defects.scalar_defect"),
    "linalg.unitary_triangularize.calls": ("calls", "linalg.unitary_triangularize"),
    "linalg.unitary_triangularize.self_s": ("self", "linalg.unitary_triangularize"),
    "linalg.null_space_basis.calls": ("calls", "linalg.null_space_basis"),
    "linalg.null_space_basis.self_s": ("self", "linalg.null_space_basis"),
    "spectra.simultaneous_triangularize.calls": ("calls", "spectra.simultaneous_triangularize"),
    "spectra.taylor_diagonal.calls": ("calls", "spectra.taylor_diagonal"),
    "spectra.joint_point_spectrum.calls": ("calls", "spectra.joint_point_spectrum"),
    "spectra.joint_point_spectrum.busy_s": ("busy", "spectra.joint_point_spectrum"),
    "minverse.beta.calls": ("calls", "minverse.beta"),
    "minverse.beta.busy_s": ("busy", "minverse.beta"),
    "minverse.expand_power_sum.calls": ("calls", "minverse.expand_power_sum"),
    "minverse.expand_power_sum.self_s": ("self", "minverse.expand_power_sum"),
    "tuplefile.parse_tuple_file.self_s": ("self", "tuplefile.parse_tuple_file"),
    "reports.report_to_dict.self_s": ("self", "reports.report_to_dict"),
    "cli.main.busy_s": ("busy", "cli.main"),
}


class OpRecord:
    __slots__ = ("label", "grid", "rep", "seconds", "raw", "mismatches")

    def __init__(self, op, seconds, raw, mismatches):
        self.label = f"{op.name} @ {op.grid}"
        self.grid = op.grid
        self.rep = op.rep
        self.seconds = seconds  # scaled to the reference speed
        self.raw = raw
        self.mismatches = mismatches


class SpeedClock:
    """Wall time scaled to a reference machine speed.

    The speed of a shared machine drifts by tens of percent within seconds.
    Two fixed calibration kernels run just before and just after each timed
    interval and, from a timer signal, every INTERVAL_S during it:
    ``compute`` (an interpreter loop and 32 x 32 products, like the mid and
    corner ops) and ``calls`` (numpy calls on 8 x 8 arrays, whose per-call
    overhead is what the small ops spend their time on). The interval counts
    as its wall time, less the time the kernels took inside it, times the
    kernel's REFERENCE_S over its mean time. Raw wall times are kept and
    printed next to the scaled ones.
    """

    REFERENCE_S = {"compute": 0.00025, "calls": 0.00025}
    INTERVAL_S = 0.04

    def __init__(self):
        import numpy

        self._np = numpy
        self._mid = numpy.eye(32, dtype=numpy.complex128) + 0.1
        self._small = numpy.eye(8, dtype=numpy.complex128) + 0.1
        self._samples: list[tuple[float, float]] = []

    def kernels(self) -> tuple[float, float]:
        np = self._np
        start = perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i
        for _ in range(3):
            self._mid @ self._mid
        middle = perf_counter()
        for _ in range(6):
            x = self._small @ self._small
            np.linalg.norm(x)
            x.conj().T.copy()
            np.linalg.svd(x, compute_uv=False)
        return middle - start, perf_counter() - middle

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(self.kernels())

    def time(self, fn, kernel: str = "compute"):
        """Run ``fn``; return (result, exception or None, raw seconds, speed factor)."""
        self._samples = samples = [self.kernels()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        start = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the program failed on a valid input: record it, go on
            result, error = None, exc
        finally:
            raw = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        raw -= sum(a + b for a, b in samples[1:])
        samples.append(self.kernels())
        column = 0 if kernel == "compute" else 1
        return result, error, raw, self.REFERENCE_S[kernel] / statistics.fmean(k[column] for k in samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "opertuple").glob("*.py"))


def child_import_seconds(env: dict) -> float:
    """``import numpy, opertuple`` in a fresh interpreter, timed inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def run_pass(ops, clock: SpeedClock, tracer, first_op_id: int) -> list[OpRecord]:
    from oracle import Mismatch

    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
            tracer.active = True
        result, error, raw, factor = clock.time(op.run, op.kernel)
        if tracer is not None:
            tracer.active = False
        if error is not None:
            found = [Mismatch("error", "raised", "a result", f"{type(error).__name__}: {error}")]
        else:
            try:
                found = op.check(result)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found = [Mismatch("value", "result shape", "the documented fields", f"{type(exc).__name__}: {exc}")]
        records.append(OpRecord(op, raw * factor, raw, found))
    return records


def run_passes(ops, clock, budget: float, min_passes: int, tracer=None, spans=None):
    """Whole passes until ``budget`` seconds have gone, at least ``min_passes``.

    With a tracer, ``spans`` receives the [lo, hi) span range of each pass.
    """
    passes: list[list[OpRecord]] = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < budget:
        lo = len(tracer) if tracer is not None else 0
        passes.append(run_pass(ops, clock, tracer, len(passes) * len(ops)))
        if spans is not None:
            spans.append((lo, len(tracer)))
    return passes


def tally(passes) -> tuple[int, int, list[str]]:
    """Distinct ops, those with a mismatch in any run, and those whose verdict varies.

    Each op of one pass counts once, however many passes the measuring time
    allowed, so ``attempted`` and ``failed`` depend on the seed alone.
    """
    verdicts: dict[tuple[str, int], set[bool]] = {}
    for p in passes:
        for r in p:
            verdicts.setdefault((r.label, r.rep), set()).add(bool(r.mismatches))
    failed = sum(1 for seen in verdicts.values() if True in seen)
    varying = sorted({label for (label, _rep), seen in verdicts.items() if len(seen) > 1})
    return len(verdicts), failed, varying


def pass_seconds(records: list[OpRecord]) -> float:
    return sum(r.seconds for r in records)


def end_to_end(passes, setups, peak_rss_kb) -> dict:
    # Typical op: each distinct op's median time over the run, then
    # quantiles over the distinct ops, so every op weighs the same.
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            samples.setdefault(r.label, []).append(r.seconds * 1e3)
    ops_ms = [statistics.median(v) for v in samples.values()]
    cuts = statistics.quantiles(ops_ms, n=10, method="inclusive") if len(ops_ms) > 1 else [ops_ms[0]] * 9
    values = {
        "setup_s": statistics.median(setups),
        "slowest_op_s": statistics.median(max(r.seconds for r in run) for run in grid_runs(passes, "corner")),
        "op_ms.p50": statistics.median(ops_ms),
        "op_ms.p90": cuts[8],
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    for grid in GRIDS:
        values[f"pass_s.{grid}"] = statistics.median(sum(r.seconds for r in run) for run in grid_runs(passes, grid))
    return values


def grid_runs(passes, grid: str) -> list[list[OpRecord]]:
    """The records of each run of a grid point's ops: per pass and per repetition."""
    runs: dict[tuple[int, int], list[OpRecord]] = {}
    for i, p in enumerate(passes):
        for r in p:
            if r.grid == grid:
                runs.setdefault((i, r.rep), []).append(r)
    return list(runs.values())


def per_layer(tracer, ranges, setup_range, untraced, traced, import_seconds):
    """Per-layer metrics from the traced passes, plus the exact-count self-check."""
    from spans import Layers

    layers = [Layers(tracer, lo, hi) for lo, hi in ranges]
    faults = []
    for other in layers[1:]:
        if other.calls != layers[0].calls:
            diff = sorted(k for k in set(other.calls) | set(layers[0].calls)
                          if other.calls.get(k) != layers[0].calls.get(k))
            faults.append(f"call counts differ between traced passes of one input: {diff}")
    values = {}
    for name, (kind, span) in PER_LAYER.items():
        if kind == "calls":
            values[name] = layers[0].calls.get(span, 0)
        else:
            table = "self_s" if kind == "self" else "busy"
            values[name] = statistics.median(getattr(l, table).get(span, 0.0) for l in layers)
    first = layers[0]
    values["linalg.null_space_basis.confirm_ratio"] = (
        first.confirmed / first.confirm_attempts if first.confirm_attempts else 0.0
    )
    tri = first.calls.get("spectra.simultaneous_triangularize", 0)
    values["spectra.triangularize_attempts"] = (
        first.calls.get("linalg.unitary_triangularize", 0) / tri if tri else 0.0
    )
    setup_layers = Layers(tracer, *setup_range)
    values["tuplefile.serialize_tuple_file.self_s"] = setup_layers.self_s.get("tuplefile.serialize_tuple_file", 0.0)
    child_imports = [
        tracer.end[i] - tracer.start[i]
        for lo, hi in ranges
        for i in range(lo, hi)
        if tracer.names[tracer.name[i]] == "cli.import"
    ]
    values["cli.import_s"] = statistics.median(child_imports or import_seconds)
    values["trace.overhead"] = (
        statistics.median(pass_seconds(p) for p in traced)
        / statistics.median(pass_seconds(p) for p in untraced)
        - 1.0
    )
    return values, faults


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opertuple" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'opertuple'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # Fixed before numpy is imported. One CPU for the benchmark and its
    # children: the speed kernels then measure the CPU that runs the timed work.
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy
    import opertuple  # noqa: F401  (timed: the import is part of set-up)
    import scipy

    import_seconds = [perf_counter() - start]

    import workloads
    from spans import Tracer

    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cold = args.workload == "cold_cli"
    wl = {
        "operator_polys": workloads.OperatorPolys,
        "vector_states": workloads.VectorStates,
        "joint_spectra": workloads.JointSpectra,
        "cold_cli": lambda: workloads.ColdCli(ROOT, WORK),
    }[args.workload]()

    clock = SpeedClock()
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            if i > 0:
                import_seconds.append(clock.time(lambda: child_import_seconds(env))[0])
            ops, error, raw, factor = clock.time(lambda: wl.prepare(args.seed))
            if error is not None:
                raise error
            setups.append((import_seconds[i] + raw) * factor)

        faults = []
        if args.trace == 0:
            passes = run_passes(ops, clock, args.seconds, 1)
            own = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
            metrics = end_to_end(passes, setups, own.ru_maxrss)
            units = dict(END_TO_END)
        else:
            # One run of each op per pass, so calls count one pass's work.
            ops = [op for op in ops if op.rep == 0]
            untraced = run_passes(ops, clock, args.seconds / 3, 1)
            tracer = Tracer()
            tracer.install()
            setup_lo = len(tracer)
            if cold:
                wl.tracer = tracer
                tracer.active = True
                wl.write_files()  # traced once, for serialize_tuple_file
                tracer.active = False
            setup_range = (setup_lo, len(tracer))
            ranges = []
            traced = run_passes(ops, clock, args.seconds * 2 / 3, 2, tracer=tracer, spans=ranges)
            metrics, faults = per_layer(tracer, ranges, setup_range, untraced, traced, import_seconds)
            passes = untraced + traced
            units = layer_units()
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    finally:
        if cold:
            wl.remove_files()

    env_line = {
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": source_lines(),
    }
    report(args, env_line, passes, metrics, units, faults)
    attempted, failed, _varying = tally(passes)
    bad_values = any(m.kind in ("value", "error") for p in passes for r in p for m in r.mismatches)
    result = {
        "correct": not bad_values and not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def layer_units() -> dict:
    units = {}
    for name in list(PER_LAYER) + [
        "linalg.null_space_basis.confirm_ratio",
        "spectra.triangularize_attempts",
        "tuplefile.serialize_tuple_file.self_s",
        "cli.import_s",
        "trace.overhead",
    ]:
        if name.endswith(".calls"):
            units[name] = "count"
        elif name.endswith("_s"):
            units[name] = "s"
        else:
            units[name] = "ratio"
    return units


def report(args, env_line, passes, metrics, units, faults) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env_line))
    print(f"passes {len(passes)}  ops per pass {len(passes[0])}")
    distinct_ops = len({r.label for r in passes[0]})
    samples = {"op_ms.p50": distinct_ops, "op_ms.p90": distinct_ops, "slowest_op_s": len(grid_runs(passes, "corner"))}
    samples.update({f"pass_s.{g}": len(grid_runs(passes, g)) for g in GRIDS})
    for name, unit in units.items():
        n = samples.get(name, "")
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit:6s} {'n=' + str(n) if n else ''}")
    raw = {grid: statistics.median(sum(r.raw for r in run) for run in grid_runs(passes, grid)) for grid in GRIDS}
    print("unscaled wall seconds per pass (median): " + "  ".join(f"{g} {v:.6g}" for g, v in raw.items()))
    attempted, failed, varying = tally(passes)
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} distinct ops disagree with the construction)")
    for label in varying:
        print(f"  verdict varies between runs of {label}")
    runs: dict[str, int] = {}
    seen: dict[tuple[str, str], int] = {}
    for p in passes:
        for r in p:
            runs[r.label] = runs.get(r.label, 0) + 1
            for m in r.mismatches:
                seen[(r.label, str(m))] = seen.get((r.label, str(m)), 0) + 1
    for (label, text), count in seen.items():
        print(f"  mismatch {label}: {text}  (in {count} of {runs[label]} runs)")
    for fault in faults:
        print(f"benchmark fault: {fault}")


if __name__ == "__main__":
    sys.exit(main())
