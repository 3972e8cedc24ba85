"""The four closed-loop workloads: one caller, no concurrency, ops in a fixed order.

A workload's ``prepare`` builds its inputs from the seed, warms up, and
returns the ops of one pass, small then mid then corner. Each op is timed
alone; its result is then compared with the construction truth (untimed,
untraced).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import build
import oracle
from oracle import Mismatch

import opertuple as ot

# (label, dim, d, m): ROADMAP item 1's grid.
GRID = (("small", 8, 2, 4), ("mid", 32, 4, 6), ("corner", 64, 4, 8))
VECTOR_STATE_M = 4  # prop2.4 at (64,4,8) alone runs ~45 s on the seed code
SPECTRA_M = 1
CHILD_TIMEOUT_S = 120.0
# The in-process small ops take about a millisecond each, too little to time
# once: an untimed pass runs them on this many inputs of their own, and
# pass_s.small is the median over those runs.
SMALL_INPUTS = 10
# A cold command is dominated by import; the mid and corner ones run twice
# per pass so their pass_s have more than one sample per pass.
COLD_REPEATS = 2


@dataclass
class Op:
    name: str
    grid: str
    run: Callable[[], object]
    check: Callable[[object], list[Mismatch]]
    rep: int = 0  # > 0: another input or another run of the same op in one pass
    kernel: str = "compute"  # the speed kernel that does the same kind of work


def _audit(report) -> dict:
    return ot.report_to_dict(report)


def _result(result) -> dict:
    return {"norm": result.norm, "scale": result.scale, "is_zero": getattr(result, "is_zero", None)}


class InProcess:
    """Ops that call the library directly; each builds its tuples with make_tuple."""

    # Speed kernel for the small ops: they spend their time in numpy calls on
    # 8 x 8 arrays, except in vector_states, where interpreter loops over
    # states and multi-indices dominate.
    small_kernel = "calls"

    def prepare(self, seed: int) -> list[Op]:
        ops = []
        for grid, dim, d, m in GRID:
            for rep in range(SMALL_INPUTS if grid == "small" else 1):
                for op in self.ops(seed, rep, grid, dim, d, m):
                    op.rep = rep
                    op.kernel = self.small_kernel if grid == "small" else "compute"
                    ops.append(op)
        for op in ops:
            if op.grid == "small" and op.rep == 0:
                op.run()  # warm-up: lazy imports, BLAS start-up
        return ops


class OperatorPolys(InProcess):
    """Hereditary-polynomial path: level sums, monomials, multi-indices, beta."""

    @staticmethod
    def ops(seed, rep, grid, dim, d, m) -> list[Op]:
        inst = build.pi_diagonal(seed, dim, d, rep)
        pair = build.inverse_pair(seed, dim, d, rep)
        q = (1,) * d
        mats, s, t = inst.matrices, pair.s, pair.t
        return [
            Op("classify", grid, lambda: ot.classify(ot.make_tuple(mats), m, q),
               lambda r: oracle.classify(r.to_dict(), inst, m)),
            Op("isometry_defect", grid, lambda: ot.isometry_defect(ot.make_tuple(mats), m),
               lambda r: oracle.isometry_defect(_result(r), inst, m)),
            Op("thm2.2", grid, lambda: ot.audit_theorem_2_2(ot.make_tuple(mats), m, q),
               lambda r: oracle.theorem_2_2(_audit(r), inst, m)),
            Op("thm2.3", grid, lambda: ot.audit_theorem_2_3(ot.make_tuple(mats), m, q),
               lambda r: oracle.theorem_2_3(_audit(r), inst, m)),
            Op("prop2.1", grid, lambda: ot.audit_proposition_2_1(ot.make_tuple(mats), m),
               lambda r: oracle.proposition_2_1(_audit(r), inst, m)),
            Op("beta.auto", grid, lambda: ot.beta(ot.make_tuple(s), ot.make_tuple(t), m, "auto"),
               lambda r: oracle.beta(_result(r), dim, m)),
            Op("beta.recurrence", grid,
               lambda: ot.beta(ot.make_tuple(s), ot.make_tuple(t), m, "recurrence"),
               lambda r: oracle.beta(_result(r), dim, m)),
            Op("is_left_m_inverse", grid,
               lambda: ot.is_left_m_inverse(ot.make_tuple(s), ot.make_tuple(t), m),
               oracle.left_inverse),
            Op("prop4.1", grid,
               lambda: ot.audit_proposition_4_1(
                   ot.make_tuple(s), ot.make_tuple(t), n_max=m, inverse_order=m),
               lambda r: oracle.proposition_4_1(_audit(r))),
        ]


class VectorStates(InProcess):
    """Term-by-term vector-state path: scalar_defect and the ascent sums, at m = 4."""

    small_kernel = "compute"

    @staticmethod
    def ops(seed, rep, grid, dim, d, _m) -> list[Op]:
        inst = build.pi_diagonal(seed, dim, d, rep)
        q, m, mats = (1,) * d, VECTOR_STATE_M, inst.matrices
        return [
            Op("thm2.1", grid, lambda: ot.audit_theorem_2_1(ot.make_tuple(mats), m, q),
               lambda r: oracle.theorem_2_1(_audit(r), inst, m)),
            Op("prop2.4", grid, lambda: ot.audit_proposition_2_4(ot.make_tuple(mats), m, q),
               lambda r: oracle.proposition_2_4(_audit(r), inst, m)),
        ]


class JointSpectra(InProcess):
    """Schur factorisation and SVD confirmation; level sums are trivial at m = 1."""

    @staticmethod
    def ops(seed, rep, grid, dim, d, _m) -> list[Op]:
        pi = build.pi_diagonal(seed, dim, d, rep)
        nn = build.non_normal(seed, dim, d, rep)
        pair = build.inverse_pair(seed, dim, d, rep)
        q, m, s, t = (1,) * d, SPECTRA_M, pair.s, pair.t
        return [
            Op("joint_spectrum.normal", grid, lambda: ot.joint_spectrum(ot.make_tuple(pi.matrices)),
               lambda r: oracle.joint_spectrum(r.to_dict(), pi)),
            Op("joint_spectrum.non_normal", grid, lambda: ot.joint_spectrum(ot.make_tuple(nn.matrices)),
               lambda r: oracle.joint_spectrum(r.to_dict(), nn)),
            Op("thm3.1", grid, lambda: ot.audit_theorem_3_1(ot.make_tuple(pi.matrices), m, q),
               lambda r: oracle.theorem_3_1(_audit(r), pi)),
            Op("prop3.2", grid, lambda: ot.audit_proposition_3_2(ot.make_tuple(pi.matrices), m, q),
               lambda r: oracle.proposition_3_2(_audit(r), pi)),
            Op("thm4.1", grid, lambda: ot.audit_theorem_4_1(ot.make_tuple(s), ot.make_tuple(t), m),
               lambda r: oracle.spectral_mapping(_audit(r), dim)),
            Op("thm4.2", grid, lambda: ot.audit_theorem_4_2(ot.make_tuple(s), ot.make_tuple(t), m),
               lambda r: oracle.spectral_mapping(_audit(r), dim)),
        ]


# ---- cold_cli -----------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class ColdCli:
    """Fresh ``python -m opertuple.cli`` processes, one command each.

    The small grid point is the shipped ``data/`` files and the worked
    examples, whose expected answers come from the paper; mid and corner are
    pi-diagonal tuple files written during set-up.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.tracer = None  # set for traced runs: children then start through the shim
        self.env = dict(os.environ)
        self.env.pop("OPERTUPLE_SEED", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.files: list[tuple[str, build.Instance, int, Path]] = []

    def prepare(self, seed: int) -> list[Op]:
        self.files = []
        for grid, dim, d, m in GRID[1:]:
            inst = build.pi_diagonal(seed, dim, d)
            path = self.work / f"{os.getpid()}-{grid}.json"
            self.files.append((grid, inst, m, path))
        self.write_files()
        ops = self._shipped_ops()
        for grid, inst, m, path in self.files:
            for rep in range(COLD_REPEATS):
                ops.append(Op("classify", grid, self._cli("classify", "--input", str(path), "--json"),
                              _cli_check(0, lambda doc, inst=inst, m=m: oracle.classify(doc, inst, m)), rep))
                ops.append(Op("spectrum", grid, self._cli("spectrum", "--input", str(path), "--json"),
                              _cli_check(0, lambda doc, inst=inst: oracle.joint_spectrum(doc, inst)), rep))
        return ops

    def write_files(self) -> None:
        for _grid, inst, m, path in self.files:
            text = ot.serialize_tuple_file(ot.make_tuple(inst.matrices), m=m, q=(1,) * inst.d)
            path.write_text(text, encoding="utf-8")

    def remove_files(self) -> None:
        for _grid, _inst, _m, path in self.files:
            path.unlink(missing_ok=True)

    def _shipped_ops(self) -> list[Op]:
        data = self.root / "data"
        sqrt_phi = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
        cube = [(1j * np.exp(2j * np.pi * k / 3), 1.0 + 0j) for k in range(3)]

        def audit(claim: str, name: str, exit_code: int) -> Op:
            return Op(f"audit.{claim}", "small",
                      self._cli("audit", "--claim", claim, "--input", str(data / name), "--json"),
                      _cli_check(exit_code, lambda doc: _all_hold(doc, exit_code == 0)))

        ops = [
            # Example 2.1: a genuine (1; (1,1))-partial isometry, defect exactly 0.
            Op("classify.example_2_1_d2", "small",
               self._cli("classify", "--input", str(data / "example_2_1_d2.json"), "--json"),
               _cli_check(0, lambda doc: _shipped_classify(doc, True, 0.0, 1e-12))),
            # Example 2.2: each component is a (2;1)-partial isometry, the pair is not; defect sqrt(3).
            Op("classify.example_2_2", "small",
               self._cli("classify", "--input", str(data / "example_2_2.json"), "--json"),
               _cli_check(0, lambda doc: _shipped_classify(doc, False, math.sqrt(3.0), 1e-10))),
            Op("spectrum.golden_ratio_d2", "small",
               self._cli("spectrum", "--input", str(data / "golden_ratio_d2.json"), "--json"),
               _cli_check(0, lambda doc: _shipped_spectrum(doc, [(sqrt_phi, 0j), (0j, 0j)], sqrt_phi))),
            Op("spectrum.example_2_2", "small",
               self._cli("spectrum", "--input", str(data / "example_2_2.json"), "--json"),
               _cli_check(0, lambda doc: _shipped_spectrum(doc, cube, math.sqrt(2.0)))),
            audit("thm2.1", "example_2_1_d1.json", 0),
            audit("thm3.1", "golden_ratio_d2.json", 0),
            # The paper's thm4.1 eigenvalue mapping fails on this scalar pair: an expected finding.
            audit("thm4.1", "scalar_counterexample_thm4_1.json", 1),
            audit("prop4.1", "example_4_1_corrected.json", 0),
        ]
        for example in ("2.1(2)", "2.2", "3.golden(2)", "4.1-as-printed", "4.1-corrected"):
            ops.append(Op(f"reproduce.{example}", "small",
                          self._cli("reproduce", "--example", example, "--json"),
                          _cli_check(0, _all_match)))
        return ops

    def _cli(self, *args: str):
        return lambda: self.launch(list(args))

    def launch(self, args: list[str]) -> CliResult:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "opertuple.cli", *args]
            return _run_child(cmd, self.root, self.env)
        spans_path = self.work / f"{os.getpid()}-child-spans.json"
        shim = Path(__file__).resolve().parent / "cli_shim.py"
        cmd = [sys.executable, str(shim), str(spans_path), *args]
        result = _run_child(cmd, self.root, self.env)
        if spans_path.exists():
            self.tracer.extend(json.loads(spans_path.read_text(encoding="utf-8")), self.tracer.op_id)
            spans_path.unlink()
        return result


def _run_child(cmd: list[str], cwd: Path, env: dict) -> CliResult:
    with subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return CliResult(-9, out, "timed out\n" + err)
    return CliResult(proc.returncode, out, err)


def _cli_check(exit_code: int, check):
    def run(result: CliResult) -> list[Mismatch]:
        if result.returncode not in (0, 1):
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            return [Mismatch("error", "exit status", exit_code, f"{result.returncode}: {tail[0]}")]
        found = []
        if result.returncode != exit_code:
            found.append(Mismatch("verdict", "exit status", exit_code, result.returncode))
        try:
            doc = json.loads(result.stdout)
        except json.JSONDecodeError as exc:
            return found + [Mismatch("value", "JSON output", "a JSON document", str(exc))]
        return found + check(doc)

    return run


def _shipped_classify(doc: dict, partial: bool, norm: float, atol: float) -> list[Mismatch]:
    c = oracle.Checks()
    c.verdict("partial_isometry", partial, doc["partial_isometry"])
    c.value("partial_defect_norm", abs(doc["partial_defect_norm"] - norm) <= atol, norm, doc["partial_defect_norm"])
    return c.found


def _shipped_spectrum(doc: dict, points: list, radius: float) -> list[Mismatch]:
    c = oracle.Checks()
    observed = [oracle.pairs(p["lambda"]) for p in doc["point_spectrum"]]
    c.verdict("joint eigenvalues confirmed", len(points), len(observed))
    for lam in observed:
        nearest = min(oracle.distance(lam, point) for point in points)
        c.value("eigenvalue is one of the paper's", nearest <= 1e-8, "<= 1e-8", nearest)
    c.value("spectral_radius", abs(doc["spectral_radius"] - radius) <= 1e-8, radius, doc["spectral_radius"])
    return c.found


def _all_hold(doc: dict, expected: bool) -> list[Mismatch]:
    c = oracle.Checks()
    c.verdict("all_conclusions_hold", expected, doc["all_conclusions_hold"])
    return c.found


def _all_match(doc: dict) -> list[Mismatch]:
    c = oracle.Checks()
    for row in doc["rows"]:
        c.verdict(f"reproduce row '{row['quantity']}' matches", True, row["match"])
    return c.found
