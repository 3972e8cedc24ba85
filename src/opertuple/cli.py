"""Command-line interface: classify, spectrum, audit, reproduce.

The auditable claims are the registry ``CLAIMS``: one entry per claim id, holding
its audit, the partner tuple a file must carry, and its random-instance builder.
The ``audit`` command and ``scripts/run_paper_audits.py`` both iterate it.
The ``reproduce`` command prints the table of one worked example from the
registry ``opertuple.generators.EXAMPLES`` and names no example itself; an
unknown id lists the valid ones.

Start-up: this module imports at top level only what every command needs
(``linalg``, ``reports``, ``tuples``, ``tuplefile``). The modules that do a
command's work, ``defects``, ``spectra``, ``minverse`` and ``generators``, are
reached through the lazy package namespace (``ot.<module>.<name>``) when a
handler, claim adapter or random-instance builder runs, so ``classify`` never
loads ``spectra`` and ``spectrum`` never loads ``defects``.

Exit codes: 0 when the requested verdict was computed (and, for audits, every binding conclusion
held), 1 when an audit found counterexamples under satisfied hypotheses or a reproduction
mismatched, 2 on input or usage errors and on numerical failures, whose diagnostics follow the
error line on stderr. An order m outside 1..MAX_ORDER (32), from --m or a tuple file, is an input
error, and so are a file's d above MAX_EXAMPLE_D (16), a vector-state walk past
defects.MAX_STATE_NODES (2^19) nodes or defects.MAX_STATE_PRODUCTS (2^32) multiply-adds,
and a --random trial count outside 1..MAX_TRIALS (10,000).
The environment variable OPERTUPLE_SEED supplies the default seed; the --seed flag overrides
it; a negative seed, from either, is an input error. With --json all output is one JSON
document, byte-stable for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

import opertuple as ot  # lazy: ot.<module> imports that module on first use
from .linalg import NumericalFailureError, ToleranceModel
from .reports import dumps, format_point, report_to_dict
from .tuples import NonCommutingError, conjugate_by_unitary, make_tuple
from .tuplefile import MAX_ORDER, TupleFileError, parse_partner, parse_tuple_file


# The most random trials one `audit --random` accepts: every child seed is spawned
# before the first audit runs, and the slowest claim (prop3.2) takes ~1.7 ms a
# trial (2-CPU machine, 1 BLAS thread), so the bound is ~17 s of audits.
MAX_TRIALS = 10_000


class CliError(Exception):
    """Input-level failure; maps to exit status 2."""


def _seed(args) -> int:
    """--seed, else OPERTUPLE_SEED, else 0; a negative seed is an input error."""
    source = "--seed" if args.seed is not None else "OPERTUPLE_SEED"
    try:  # --seed is an int already, so only the variable can fail to parse
        seed = args.seed if args.seed is not None else int(os.environ.get(source, "0"))
    except ValueError:
        raise CliError(f"{source} must be an integer, got {os.environ[source]!r}") from None
    if seed < 0:
        raise CliError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


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
        print(dumps(doc))
    else:
        for line in text_lines:
            print(line)


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
    if not 1 <= m <= MAX_ORDER:
        raise CliError(f"--m must be an integer from 1 to {MAX_ORDER}, got {m}")
    q = _parse_q(args.q, t.d) if args.q is not None else parsed.q
    if q is None:
        raise CliError("no --q given and the file carries none")
    report = ot.defects.classify(t, m, q, tol)
    lines = [
        f"classification (d={t.d}, dim={t.dim}, m={m}, q={tuple(q)})",
        f"  partial_isometry:      {report.partial_isometry}"
        f"  (defect norm {report.partial_defect_norm:.6e}, scale {report.partial_defect_scale:.6e})",
        f"  isometry (order {m}):   {report.isometry}"
        f"  (defect norm {report.isometry_defect_norm:.6e})",
        f"  quasinormal:           matricial={report.quasinormal.matricial}"
        f" joint={report.quasinormal.joint} spherical={report.quasinormal.spherical}",
        f"  null_reducing:         {report.null_reducing}  (null dim {report.null_dim})",
        f"  entrywise_invertible:  {report.entrywise_invertible}",
    ]
    _emit(report.to_dict(), args.json, lines)
    return 0


def _cmd_spectrum(args) -> int:
    tol = ToleranceModel()
    parsed = _load_file(args.input, tol)
    seed = _seed(args)
    result = ot.spectra.joint_spectrum(parsed.tuple, tol, seed)
    lines = [f"joint spectrum (seed={seed})", "  point spectrum:"]
    for (lam, _x), res in zip(result.point_spectrum, result.residuals):
        lines.append(f"    lambda={format_point(lam)}  residual={res:.3e}")
    lines.append("  taylor diagonal (with multiplicity):")
    for lam in result.taylor_diagonal:
        lines.append(f"    {format_point(lam)}")
    lines.append(f"  spectral radius: {result.spectral_radius!r}")
    _emit(result.to_dict(), args.json, lines)
    return 0


def _shifted_invertible_pair(seed: int):
    """T with every component shifted well away from singularity, and its
    normalized reciprocal S_j = (1/2) T_j^{-1}: a left (and right) 1-inverse."""
    base = ot.generators.polynomial_family(np.random.default_rng(seed), 3, 2, 2)
    shifted = [m + 12.0 * np.eye(3) for m in base]
    t = make_tuple(shifted)
    s = make_tuple([np.linalg.inv(m) / 2 for m in shifted])
    return s, t


def _unipotent_two_inverse_pair(seed: int):
    """A genuine left 2-inverse pair (beta_1 != 0, beta_2 = 0) built from
    commuting unipotents, conjugated by a random unitary."""
    rng = np.random.default_rng(seed)
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)

    def coeff():
        return complex(rng.standard_normal(), rng.standard_normal())

    t_mats = [eye + coeff() * n, eye + coeff() * n]
    s_mats = [(eye + coeff() * n) / 2.0, (eye + coeff() * n) / 2.0]
    v = ot.generators.random_unitary(2, rng)
    return conjugate_by_unitary(make_tuple(s_mats), v), conjugate_by_unitary(make_tuple(t_mats), v)


# Random-instance builders: (seed, trial) -> (s, t, m, q), s the partner tuple or None.


def _partial_isometry_instance(seed: int, trial: int):
    """Hypothesis-satisfying or generic instance for the section-2/3 claims: a scaled
    unitary padded with a 2-dimensional zero block, or a scaled rank-3 partial isometry."""
    if trial % 2 == 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        block = ot.generators.scaled_family(rng, 3, 2, 3)
        t = make_tuple([np.pad(m, (0, 2)) for m in block])
    else:
        t = ot.generators.scaled_family(np.random.default_rng(seed), 4, 2, 3)
    return None, t, 1, (1, 1)


def _quasinormal_instance(seed: int, trial: int):
    """Unitarily diagonalizable tuple with pi-diagonals, m cycling through 1..3."""
    t = ot.generators.diagonal_conjugate(np.random.default_rng(seed), 4, 2, True, True)
    return None, t, 1 + trial % 3, None


def _inverse_pair_instance(seed: int, trial: int):
    """A left 1-inverse pair on even trials, a left 2-inverse pair on odd ones."""
    if trial % 2 == 0:
        return (*_shifted_invertible_pair(seed), 1, None)
    return (*_unipotent_two_inverse_pair(seed), 2, None)


def _polynomial_pair_instance(seed: int, trial: int):
    """Two independent polynomial-family tuples; m = None, so no inverse order is assumed."""
    s, t = (
        ot.generators.polynomial_family(np.random.default_rng(sd), 3, 2, 2) for sd in (seed, seed + 1)
    )
    return s, t, None, None


class Claim(NamedTuple):
    audit: Callable  # (s, t, m, q, tol, seed) -> AuditReport
    partner: str | None  # metadata key of the partner tuple S that the file route reads
    random_instance: Callable  # (seed, trial) -> (s, t, m, q)


# The registry: every auditable claim of the paper, in presentation order. The
# adapters name their audits at call time, so a command imports only its claim's
# module and rebinding a module name reaches them.
CLAIMS = {
    "thm2.1": Claim(
        lambda s, t, m, q, tol, seed: ot.defects.audit_theorem_2_1(t, m, q, tol, seed),
        None, _partial_isometry_instance,
    ),
    "thm2.2": Claim(
        lambda s, t, m, q, tol, seed: ot.defects.audit_theorem_2_2(t, m, q, tol, seed),
        None, _partial_isometry_instance,
    ),
    "thm2.3": Claim(
        lambda s, t, m, q, tol, seed: ot.defects.audit_theorem_2_3(t, m, q, tol, seed),
        None, _partial_isometry_instance,
    ),
    "prop2.1": Claim(
        lambda s, t, m, q, tol, seed: ot.defects.audit_proposition_2_1(t, m, tol, seed),
        None, _quasinormal_instance,
    ),
    "prop2.4": Claim(
        lambda s, t, m, q, tol, seed: ot.defects.audit_proposition_2_4(t, m, q, tol, seed),
        None, _partial_isometry_instance,
    ),
    "thm3.1": Claim(
        lambda s, t, m, q, tol, seed: ot.spectra.audit_theorem_3_1(t, m, q, tol, seed),
        None, _partial_isometry_instance,
    ),
    "prop3.2": Claim(
        lambda s, t, m, q, tol, seed: ot.spectra.audit_proposition_3_2(t, m, q, tol, seed),
        None, _partial_isometry_instance,
    ),
    "thm4.1": Claim(
        lambda s, t, m, q, tol, seed: ot.minverse.audit_theorem_4_1(s, t, m, tol, seed),
        "left_inverse", _inverse_pair_instance,
    ),
    "thm4.2": Claim(
        lambda s, t, m, q, tol, seed: ot.minverse.audit_theorem_4_2(s, t, m, tol, seed),
        "right_inverse", _inverse_pair_instance,
    ),
    "prop4.1": Claim(
        lambda s, t, m, q, tol, seed: ot.minverse.audit_proposition_4_1(s, t, tol, seed, inverse_order=m),
        "left_inverse", _polynomial_pair_instance,
    ),
}


def _cmd_audit(args) -> int:
    tol = ToleranceModel()
    seed = _seed(args)
    if (args.input is None) == (args.random is None):
        raise CliError("audit needs exactly one of --input FILE or --random TRIALS")
    claim = CLAIMS[args.claim]
    if args.input is not None:
        parsed = _load_file(args.input, tol)
        s = parse_partner(parsed, claim.partner, tol) if claim.partner else None
        m = parsed.m if parsed.m is not None else 1
        q = parsed.q if parsed.q is not None else (1,) * parsed.tuple.d
        reports = [claim.audit(s, parsed.tuple, m, q, tol, seed)]
    else:
        if not 1 <= args.random <= MAX_TRIALS:
            raise CliError(f"--random must be a trial count from 1 to {MAX_TRIALS}, got {args.random}")
        children = np.random.SeedSequence(seed).spawn(args.random)
        reports = []
        for trial, child in enumerate(int(c.generate_state(1)[0]) for c in children):
            reports.append(claim.audit(*claim.random_instance(child, trial), tol, child))

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
            lines.append(f"      witness: {w.label} = {format_point(w.value)}")
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


def _cmd_reproduce(args) -> int:
    seed = _seed(args)
    ex = ot.generators.paper_example(args.example)
    rows = ex.rows(seed)
    all_match = all(r["match"] for r in rows)
    lines = [f"example {ex.id}: expected vs observed"]
    width = max(len(r["quantity"]) for r in rows) + 2
    for r in rows:
        lines.append(
            f"  {r['quantity']:<{width}} expected={r['expected']!r:<28} "
            f"observed={r['observed']!r:<28} {'ok' if r['match'] else 'MISMATCH'}"
        )
    for note in ex.notes:
        lines.append(f"  note: {note}")
    lines.append("all quantities match" if all_match else "MISMATCHES FOUND")
    doc = {
        "example": ex.id,
        "rows": rows,
        "all_match": all_match,
        "seed": seed,
        "paper_discrepancy_notes": list(ex.notes),
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
    p_audit.add_argument("--claim", required=True, choices=CLAIMS)
    p_audit.add_argument("--input", default=None, help="tuple JSON file")
    p_audit.add_argument("--random", type=int, default=None, metavar="TRIALS")
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument("--json", action="store_true")

    p_repro = sub.add_parser("reproduce", help="expected-vs-observed table for a worked example")
    p_repro.add_argument(
        "--example",
        required=True,
        help="a worked-example id, d a positive integer; an unknown id lists the valid ones",
    )
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
