"""Structured audit verdicts and their JSON serialization.

A report records whether a claim's hypotheses held, whether its conclusion
held wherever the hypotheses did, the witnesses behind any violation, and the
named norms that drove each decision. ``build_report`` derives each report's
verdicts from an audit's hypothesis breakdown and its ``sub_verdict`` specs,
which carry no hypothesis value: every sub-claim binds under the whole
breakdown, except prop4.1's item (1), which binds under the commuting pair.

``to_json`` is the package's one JSON encoding: every report and spectrum
result is encoded through it, a dataclass as the object of its fields and a
complex number as an [re, im] pair.
``dumps`` is the package's one JSON text writer, for the CLI's ``--json``
output and for tuple files. It writes the bytes of
``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``, but a float64
or complex128 array, a list of floats and a list of [float, float] pairs are
written in bulk, one ``float.__repr__`` per number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .linalg import ToleranceModel

# Fixed catalog of discrepancy notes, verbatim-greppable in report output.
NOTE_FINITE_SURROGATE = (
    "finite-dimensional surrogate: sigma_ap = sigma_p and the Taylor spectrum is "
    "the simultaneous-triangularization diagonal"
)
NOTE_THM21_SIGN = (
    "thm2.1: the statement prints (-1)^m inside item (2) while the proof uses "
    "(-1)^k; implemented per the proof"
)
NOTE_PROP21_HYPOTHESIS = (
    "prop2.1: the statement assumes jointly quasinormal but the proof invokes "
    "matricially quasinormal; both hypothesis variants are evaluated"
)
NOTE_REMARK31_EXPONENT = (
    "remark3.1: the spectral-radius norm is printed as (sum |lambda_j|^2)^2; "
    "implemented as the square root"
)
NOTE_COR31_DICHOTOMY = (
    "cor3.1: the ball dichotomy cannot hold verbatim for finite spectra; only "
    "r(T) = 1 is tested under the hypotheses"
)
NOTE_EX41_SCALING = (
    "ex4.1: the pair as printed gives beta_m = I for every m; the scaled variant "
    "S_1/2 satisfies the definition for all m >= 1; S_2 is left undefined"
)
NOTE_PROP41_COEFF = (
    "prop4.1: the printed coefficient n^(k) fails already at n = 2, d = 1; the "
    "binomial coefficient C(n,k) satisfies the identity"
)
NOTE_THM41_SET = (
    "thm4.1(1): printed as [0] not-subset-of sigma_ap(T); the stronger reading "
    "sigma_ap(T) disjoint from [0] fails on T = S = (0, I); both are reported"
)
NOTE_POCHHAMMER_ZERO = (
    "pochhammer: the printed convention 0^(0) = 0 conflicts with the n = 0 power-sum "
    "identity, whose left side is the identity; expansions require n >= 1"
)


@dataclass(frozen=True)
class Witness:
    """A labeled complex vector (an eigenvalue point or a state vector)."""

    label: str
    value: tuple[complex, ...]


@dataclass(frozen=True)
class SubVerdict:
    """One named sub-claim: its hypothesis status and raw conclusion.

    ``vacuous`` marks conclusions that never count against the aggregate
    verdict. ``build_report`` is the one place that sets it and
    ``hypotheses_hold``.
    """

    name: str
    hypotheses_hold: bool
    conclusion_holds: bool
    vacuous: bool
    details: dict = field(default_factory=dict)


def sub_verdict(
    name: str, conclusion_holds: bool, *, informational: bool = False, binds_under=None, **details
):
    """A sub-claim for ``build_report``: its conclusion and ``details`` (in keyword order), no hypothesis.

    ``informational`` marks a sub-claim beyond the claim as printed. ``binds_under`` names the
    breakdown entries that are its hypotheses where these are not all of them (prop4.1's item (1)).
    """
    return name, conclusion_holds, informational, binds_under, details


@dataclass(frozen=True)
class AuditReport:
    claim_id: str
    hypotheses_hold: bool
    hypothesis_breakdown: dict
    conclusion_holds: bool
    sub_verdicts: tuple[SubVerdict, ...]
    witnesses: tuple[Witness, ...]
    norms: dict
    tolerances: ToleranceModel
    seed: int
    paper_discrepancy_notes: tuple[str, ...] = ()


def build_report(
    claim_id: str,
    hypothesis_breakdown: dict,
    sub_verdicts,
    witnesses=(),
    norms=None,
    *,
    tolerances: ToleranceModel,
    seed: int,
    notes=(),
) -> AuditReport:
    """A claim's report from its hypothesis breakdown and its ``sub_verdict`` specs: the one place
    the vacuity rule is written. A sub-claim's hypotheses hold when its breakdown entries all do;
    it is vacuous exactly when it is informational or they fail; the conclusion holds when every
    binding (non-vacuous) sub-claim's does."""
    subs = []
    for name, conclusion, informational, under, details in sub_verdicts:
        hyp = all(hypothesis_breakdown[k] for k in under or hypothesis_breakdown)
        subs.append(SubVerdict(name, hyp, conclusion, informational or not hyp, details))
    return AuditReport(
        claim_id=claim_id,
        hypotheses_hold=all(hypothesis_breakdown.values()),
        hypothesis_breakdown=dict(hypothesis_breakdown),
        conclusion_holds=all(sv.conclusion_holds for sv in subs if not sv.vacuous),
        sub_verdicts=tuple(subs),
        witnesses=tuple(witnesses),
        norms=dict(norms or {}),
        tolerances=tolerances,
        seed=seed,
        paper_discrepancy_notes=tuple(notes),
    )


def format_point(lam) -> str:
    """A joint eigenvalue as text: (re+imj, ...), each part to 10 significant digits."""
    return "(" + ", ".join(f"{z.real:.10g}{z.imag:+.10g}j" for z in map(complex, lam)) + ")"


def to_json(value):
    """The one JSON encoding of the package's values.

    A dataclass becomes an object of its fields in field order, a dict is
    mapped value by value, an array, tuple or list becomes a list, and a
    complex number becomes its [re, im] pair (a run of complex numbers in one
    numpy conversion, which keeps every bit); anything else is returned as is.
    """
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        if all(isinstance(v, complex) for v in value):
            return np.array(value, np.complex128).view(np.float64).reshape(-1, 2).tolist()
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def dumps(value) -> str:
    """``value`` as the text of ``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``.

    A float64 array, a complex128 array (each entry as [re, im]), a list of
    floats and a list of [float, float] pairs are written with one
    ``float.__repr__`` per number; anything else follows json's rules. A
    non-finite float raises ValueError, and a dict key that is not a str
    raises TypeError.
    """
    return _dumps(value, "\n")


def _dumps(value, nl: str) -> str:
    """``value`` as JSON text whose closing bracket, if any, follows ``nl``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)) and value and (  # floats, or [float, float] pairs
        _all_floats(value)
        or {*map(type, value)} <= {list, tuple} and {*map(len, value)} == {2} and _all_floats(chain(*value))
    ):
        value = np.array(value, np.float64)
    if isinstance(value, float) or isinstance(value, np.ndarray) and value.dtype in (np.float64, np.complex128):
        a = np.asarray(value)
        if a.dtype == np.complex128:
            a = np.ascontiguousarray(a).view(np.float64).reshape(a.shape + (2,))
        if not np.isfinite(a).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return _layout(a.shape, nl) % tuple(a.ravel().tolist())
    inner = nl + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())]
        return _bracket("{}", items, nl)
    if isinstance(value, (list, tuple)):
        return _bracket("[]", [_dumps(v, inner) for v in value], nl)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _all_floats(values) -> bool:
    return {*map(type, values)} <= {float, np.float64}


def _layout(shape: tuple, nl: str) -> str:
    """The JSON text of a float array of ``shape`` with "%r" for each number."""
    return _bracket("[]", [_layout(shape[1:], nl + "  ")] * shape[0], nl) if shape else "%r"


def _bracket(ends: str, items: list, nl: str) -> str:
    """``items`` between the two characters of ``ends``, one per line, indented past ``nl``."""
    if not items:
        return ends
    inner = nl + "  "
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{nl}{ends[1]}"


def report_to_dict(report: AuditReport) -> dict:
    return to_json(report)

