"""Command-line interface: classify, spectrum, audit, reproduce.

Exit codes: 0 when the requested verdict was computed (and, for audits, every
binding conclusion held), 1 when an audit found counterexamples under
satisfied hypotheses or a reproduction mismatched, 2 on input or usage
errors and on numerical failures, whose diagnostics follow the error line on
stderr. The environment variable OPERTUPLE_SEED supplies the default seed;
the --seed flag overrides it. With --json all output is one JSON document,
byte-stable for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .defects import (
    audit_proposition_2_1,
    audit_proposition_2_4,
    audit_theorem_2_1,
    audit_theorem_2_2,
    audit_theorem_2_3,
    classify,
    partial_isometry_defect,
)
from .generators import GeneratorSpec, paper_example, random_commuting_tuple
from .linalg import NumericalFailureError, ToleranceModel
from .minverse import (
    audit_proposition_4_1,
    audit_theorem_4_1,
    audit_theorem_4_2,
    beta,
    is_left_m_inverse,
)
from .reports import NOTE_EX41_SCALING, report_to_dict
from .spectra import audit_proposition_3_2, audit_theorem_3_1, joint_spectrum
from .tuples import NonCommutingError, make_tuple
from .tuplefile import TupleFileError, parse_partner, parse_tuple_file

AUDIT_CLAIMS = (
    "thm2.1",
    "thm2.2",
    "thm2.3",
    "prop2.1",
    "prop2.4",
    "thm3.1",
    "prop3.2",
    "thm4.1",
    "thm4.2",
    "prop4.1",
)

_ZERO_TOL = 1e-12


class CliError(Exception):
    """Input-level failure; maps to exit status 2."""


def _default_seed() -> int:
    raw = os.environ.get("OPERTUPLE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"OPERTUPLE_SEED must be an integer, got {raw!r}") from None


def _parse_q(text: str, d: int) -> tuple[int, ...]:
    try:
        q = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"--q must be a comma-separated integer list, got {text!r}") from None
    if len(q) != d or any(v < 0 for v in q):
        raise CliError(f"--q needs {d} nonnegative integers, got {text!r}")
    return q


def _load_file(path: str, tol: ToleranceModel):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return parse_tuple_file(text, tol)


def _emit(doc: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _fmt_point(lam) -> str:
    return "(" + ", ".join(_fmt_complex(complex(z)) for z in lam) + ")"


def _cmd_classify(args) -> int:
    tol = (
        ToleranceModel(abs_tol=args.tol, rel_tol=args.tol)
        if args.tol is not None
        else ToleranceModel()
    )
    parsed = _load_file(args.input, tol)
    t = parsed.tuple
    m = args.m if args.m is not None else parsed.m
    if m is None:
        raise CliError("no --m given and the file carries none")
    q = _parse_q(args.q, t.d) if args.q is not None else parsed.q
    if q is None:
        raise CliError("no --q given and the file carries none")
    report = classify(t, m, q, tol)
    lines = [
        f"classification (d={t.d}, dim={t.dim}, m={m}, q={tuple(q)})",
        f"  partial_isometry:      {report.partial_isometry}"
        f"  (defect norm {report.partial_defect_norm:.6e}, scale {report.partial_defect_scale:.6e})",
        f"  isometry (order {m}):   {report.isometry}"
        f"  (defect norm {report.isometry_defect_norm:.6e})",
        f"  quasinormal:           matricial={report.quasinormal_matricial}"
        f" joint={report.quasinormal_joint} spherical={report.quasinormal_spherical}",
        f"  null_reducing:         {report.null_reducing}  (null dim {report.null_dim})",
        f"  entrywise_invertible:  {report.entrywise_invertible}",
    ]
    _emit(report.to_dict(), args.json, lines)
    return 0


def _cmd_spectrum(args) -> int:
    tol = ToleranceModel()
    parsed = _load_file(args.input, tol)
    seed = args.seed if args.seed is not None else _default_seed()
    result = joint_spectrum(parsed.tuple, tol, seed)
    lines = [f"joint spectrum (seed={seed})", "  point spectrum:"]
    for (lam, _x), res in zip(result.point_spectrum, result.residuals):
        lines.append(f"    lambda={_fmt_point(lam)}  residual={res:.3e}")
    lines.append("  taylor diagonal (with multiplicity):")
    for lam in result.taylor_diagonal:
        lines.append(f"    {_fmt_point(lam)}")
    lines.append(f"  spectral radius: {result.spectral_radius!r}")
    _emit(result.to_dict(), args.json, lines)
    return 0


def _audit_from_file(claim: str, args, tol: ToleranceModel, seed: int):
    parsed = _load_file(args.input, tol)
    t = parsed.tuple
    m = parsed.m if parsed.m is not None else 1
    q = parsed.q if parsed.q is not None else (1,) * t.d
    if claim == "thm2.1":
        return [audit_theorem_2_1(t, m, q, tol, seed)]
    if claim == "thm2.2":
        return [audit_theorem_2_2(t, m, q, tol, seed)]
    if claim == "thm2.3":
        return [audit_theorem_2_3(t, m, q, tol, seed)]
    if claim == "prop2.1":
        return [audit_proposition_2_1(t, m, tol, seed)]
    if claim == "prop2.4":
        return [audit_proposition_2_4(t, m, q, tol, seed)]
    if claim == "thm3.1":
        return [audit_theorem_3_1(t, m, q, tol, seed)]
    if claim == "prop3.2":
        return [audit_proposition_3_2(t, m, q, tol, seed)]
    if claim == "thm4.1":
        s = parse_partner(parsed, "left_inverse", tol)
        return [audit_theorem_4_1(s, t, m, tol, seed)]
    if claim == "thm4.2":
        r = parse_partner(parsed, "right_inverse", tol)
        return [audit_theorem_4_2(r, t, m, tol, seed)]
    if claim == "prop4.1":
        s = parse_partner(parsed, "left_inverse", tol)
        return [audit_proposition_4_1(s, t, tol, seed, inverse_order=m)]
    raise CliError(f"unknown claim {claim!r}")


def _shifted_invertible_pair(seed: int, d: int = 2, dim: int = 3):
    """T with every component shifted well away from singularity, and its
    normalized reciprocal S_j = (1/d) T_j^{-1}: a left (and right) 1-inverse."""
    spec = GeneratorSpec(scheme="polynomial_family", seed=seed, dim=dim, d=d, params={"degree": 2})
    base = random_commuting_tuple(spec)
    shifted = [m + 12.0 * np.eye(dim) for m in base]
    t = make_tuple(shifted)
    s = make_tuple([np.linalg.inv(m) / d for m in shifted])
    return s, t


def _unipotent_two_inverse_pair(seed: int):
    """A genuine left 2-inverse pair (beta_1 != 0, beta_2 = 0) built from
    commuting unipotents, conjugated by a random unitary."""
    from .generators import random_unitary

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)

    def coeff():
        return complex(rng.standard_normal(), rng.standard_normal())

    t_mats = [eye + coeff() * n, eye + coeff() * n]
    s_mats = [(eye + coeff() * n) / 2.0, (eye + coeff() * n) / 2.0]
    v = random_unitary(2, rng)
    vh = v.conj().T
    return (
        make_tuple([vh @ m @ v for m in s_mats]),
        make_tuple([vh @ m @ v for m in t_mats]),
    )


def _partial_isometry_instance(seed: int, trial: int):
    """Hypothesis-satisfying or generic instance for the section-2/3 claims."""
    if trial % 2 == 0:
        spec = GeneratorSpec(
            scheme="direct_sum",
            seed=seed,
            dim=5,
            d=2,
            params={
                "blocks": [
                    {"scheme": "scaled_single", "dim": 3, "d": 2, "params": {"base": "unitary"}}
                ],
                "zero_pad": 2,
            },
        )
    else:
        spec = GeneratorSpec(
            scheme="scaled_single",
            seed=seed,
            dim=4,
            d=2,
            params={"base": "partial_isometry", "rank": 3},
        )
    t = random_commuting_tuple(spec)
    return t, 1, (1, 1)


def _random_audits(claim: str, trials: int, seed: int, tol: ToleranceModel):
    reports = []
    child_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(trials)]
    for trial, child in enumerate(child_seeds):
        if claim in ("thm2.1", "thm2.2", "thm2.3", "prop2.4", "thm3.1", "prop3.2"):
            t, m, q = _partial_isometry_instance(child, trial)
            if claim == "thm2.1":
                reports.append(audit_theorem_2_1(t, m, q, tol, child))
            elif claim == "thm2.2":
                reports.append(audit_theorem_2_2(t, m, q, tol, child))
            elif claim == "thm2.3":
                reports.append(audit_theorem_2_3(t, m, q, tol, child))
            elif claim == "prop2.4":
                reports.append(audit_proposition_2_4(t, m, q, tol, child))
            elif claim == "thm3.1":
                reports.append(audit_theorem_3_1(t, m, q, tol, child))
            else:
                reports.append(audit_proposition_3_2(t, m, q, tol, child))
        elif claim == "prop2.1":
            spec = GeneratorSpec(
                scheme="diagonal_conjugate",
                seed=child,
                dim=4,
                d=2,
                params={"unitary": True, "pi_diagonals": True},
            )
            t = random_commuting_tuple(spec)
            reports.append(audit_proposition_2_1(t, 1 + trial % 3, tol, child))
        elif claim in ("thm4.1", "thm4.2"):
            if trial % 2 == 0:
                s, t = _shifted_invertible_pair(child)
                m = 1
            else:
                s, t = _unipotent_two_inverse_pair(child)
                m = 2
            if claim == "thm4.1":
                reports.append(audit_theorem_4_1(s, t, m, tol, child))
            else:
                reports.append(audit_theorem_4_2(s, t, m, tol, child))
        elif claim == "prop4.1":
            s = random_commuting_tuple(
                GeneratorSpec(scheme="polynomial_family", seed=child, dim=3, d=2, params={"degree": 2})
            )
            t = random_commuting_tuple(
                GeneratorSpec(
                    scheme="polynomial_family", seed=child + 1, dim=3, d=2, params={"degree": 2}
                )
            )
            reports.append(audit_proposition_4_1(s, t, tol, child))
        else:
            raise CliError(f"unknown claim {claim!r}")
    return reports


def _cmd_audit(args) -> int:
    tol = ToleranceModel()
    seed = args.seed if args.seed is not None else _default_seed()
    if (args.input is None) == (args.random is None):
        raise CliError("audit needs exactly one of --input FILE or --random TRIALS")
    if args.input is not None:
        reports = _audit_from_file(args.claim, args, tol, seed)
    else:
        if args.random < 1:
            raise CliError("--random needs a positive trial count")
        reports = _random_audits(args.claim, args.random, seed, tol)

    all_ok = all(r.conclusion_holds for r in reports)
    lines = []
    for i, r in enumerate(reports):
        status = "OK" if r.conclusion_holds else "VIOLATED"
        hyp = "hypotheses=met" if r.hypotheses_hold else "hypotheses=FAILED"
        lines.append(f"[{i}] {r.claim_id}: conclusion={status} {hyp} seed={r.seed}")
        for sv in r.sub_verdicts:
            marker = "info" if sv.vacuous else ("pass" if sv.conclusion_holds else "FAIL")
            lines.append(f"      {marker:4s}  {sv.name}")
        for w in r.witnesses:
            lines.append(f"      witness: {w.label} = {_fmt_point(w.value)}")
    lines.append(
        f"{len(reports)} report(s); "
        + ("all binding conclusions hold" if all_ok else "counterexamples found")
    )
    doc = {
        "claim": args.claim,
        "seed": seed,
        "all_conclusions_hold": all_ok,
        "reports": [report_to_dict(r) for r in reports],
    }
    _emit(doc, args.json, lines)
    return 0 if all_ok else 1


def _reproduce_rows(example_id: str, seed: int):
    ex = paper_example(example_id)
    rows = []

    def row(quantity: str, expected, observed, match: bool):
        rows.append(
            {"quantity": quantity, "expected": expected, "observed": observed, "match": bool(match)}
        )

    if ex.id.startswith("2.1"):
        defect = partial_isometry_defect(ex.tuple, ex.m, ex.q)
        row("partial_defect_norm", 0.0, defect.norm, defect.norm <= _ZERO_TOL)
        row(
            f"is (1; {ex.q}) partial isometry",
            True,
            defect.is_zero,
            defect.is_zero is True,
        )
    elif ex.id == "2.2":
        for j, label in ((0, "T1"), (1, "T2")):
            single = make_tuple([ex.tuple[j]])
            d_single = partial_isometry_defect(single, 2, (1,))
            row(f"{label} (2;1) defect norm", 0.0, d_single.norm, d_single.norm <= _ZERO_TOL)
        pair = partial_isometry_defect(ex.tuple, 2, (1, 1))
        expected_norm = math.sqrt(3.0)
        row("pair (2;(1,1)) defect norm", expected_norm, pair.norm, abs(pair.norm - expected_norm) <= 1e-10)
        row("pair is (2;(1,1)) partial isometry", False, pair.is_zero, pair.is_zero is False)
    elif ex.id.startswith("3.golden"):
        defect = partial_isometry_defect(ex.tuple, ex.m, ex.q)
        row("partial_defect_norm", 0.0, defect.norm, defect.norm <= _ZERO_TOL)
        spec_result = joint_spectrum(ex.tuple, seed=seed)
        expected_points = ex.expected["point_spectrum"]
        observed = [lam for lam, _ in spec_result.point_spectrum]
        matched = len(observed) == len(expected_points) and all(
            any(max(abs(a - b) for a, b in zip(lam, mu)) <= 1e-8 for mu in observed)
            for lam in expected_points
        )
        row(
            "joint point spectrum",
            [_fmt_point(p) for p in expected_points],
            [_fmt_point(p) for p in observed],
            matched,
        )
        radius = spec_result.spectral_radius
        row(
            "spectral_radius",
            ex.expected["spectral_radius"],
            radius,
            abs(radius - ex.expected["spectral_radius"]) <= 1e-8,
        )
    elif ex.id in ("4.1-as-printed", "4.1-corrected"):
        expect_zero = ex.expected["left_m_inverse"]
        for m in ex.expected["m_range"]:
            b = beta(ex.partner, ex.tuple, m)
            if expect_zero:
                row(f"beta_{m} norm", 0.0, b.norm, b.norm <= _ZERO_TOL)
            else:
                expected_norm = ex.expected["beta_norm"]
                row(f"beta_{m} norm", expected_norm, b.norm, abs(b.norm - expected_norm) <= 1e-10)
        verdict = is_left_m_inverse(ex.partner, ex.tuple, ex.m)
        row("is left m-inverse", expect_zero, verdict, verdict == expect_zero)
    else:
        raise CliError(f"no reproduction recipe for example {example_id!r}")
    return ex, rows


def _cmd_reproduce(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        ex, rows = _reproduce_rows(args.example, seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    all_match = all(r["match"] for r in rows)
    notes = [NOTE_EX41_SCALING] if ex.id.startswith("4.1") else []
    lines = [f"example {ex.id}: expected vs observed"]
    width = max(len(r["quantity"]) for r in rows) + 2
    for r in rows:
        lines.append(
            f"  {r['quantity']:<{width}} expected={r['expected']!r:<28} "
            f"observed={r['observed']!r:<28} {'ok' if r['match'] else 'MISMATCH'}"
        )
    for note in notes:
        lines.append(f"  note: {note}")
    lines.append("all quantities match" if all_match else "MISMATCHES FOUND")
    doc = {
        "example": ex.id,
        "rows": rows,
        "all_match": all_match,
        "seed": seed,
        "paper_discrepancy_notes": notes,
    }
    _emit(doc, args.json, lines)
    return 0 if all_match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opertuple",
        description="Classify commuting matrix tuples, compute joint spectra, "
        "and audit operator-identity claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="partial-isometry classification of a tuple file")
    p_classify.add_argument("--input", required=True, help="tuple JSON file")
    p_classify.add_argument("--m", type=int, default=None, help="defect order (falls back to the file)")
    p_classify.add_argument("--q", default=None, help="comma-separated exponent vector")
    p_classify.add_argument("--tol", type=float, default=None, help="absolute and relative zero tolerance")
    p_classify.add_argument("--json", action="store_true")

    p_spectrum = sub.add_parser("spectrum", help="joint point spectrum and Taylor diagonal")
    p_spectrum.add_argument("--input", required=True)
    p_spectrum.add_argument("--seed", type=int, default=None)
    p_spectrum.add_argument("--json", action="store_true")

    p_audit = sub.add_parser("audit", help="audit one claim on a file or random instances")
    p_audit.add_argument("--claim", required=True, choices=AUDIT_CLAIMS)
    p_audit.add_argument("--input", default=None, help="tuple JSON file")
    p_audit.add_argument("--random", type=int, default=None, metavar="TRIALS")
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument("--json", action="store_true")

    p_repro = sub.add_parser("reproduce", help="expected-vs-observed table for a worked example")
    p_repro.add_argument("--example", required=True, help="e.g. 2.1(2), 2.2, 3.golden(2), 4.1-corrected")
    p_repro.add_argument("--seed", type=int, default=None)
    p_repro.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "audit": _cmd_audit,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args)
    except (CliError, TupleFileError, NonCommutingError, NumericalFailureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NumericalFailureError):
            print(f"diagnostics: {json.dumps(exc.diagnostics, sort_keys=True, default=str)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
