"""Structured audit verdicts and their lossless JSON serialization.

A report records whether a claim's hypotheses held, whether its conclusion
held wherever the hypotheses did, the witnesses behind any violation, and the
named norms that drove each decision.

``to_json`` is the package's one JSON encoding: every report, spectrum result
and tuple-file matrix is written through it, a dataclass as the object of its
fields and a complex number as an [re, im] pair.
``from_fields`` reads a dataclass back from the keys that name its fields;
round-tripping a report through JSON is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

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
    verdict; ``sub_verdict`` is the rule that sets it.
    """

    name: str
    hypotheses_hold: bool
    conclusion_holds: bool
    vacuous: bool
    details: dict = field(default_factory=dict)


def sub_verdict(
    name: str, hypotheses_hold: bool, conclusion_holds: bool, *, informational: bool = False, **details
) -> SubVerdict:
    """A sub-claim with its ``details`` in keyword order, vacuous exactly when it is
    informational (beyond the claim as printed) or its hypotheses fail."""
    return SubVerdict(name, hypotheses_hold, conclusion_holds, informational or not hypotheses_hold, details)


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


def aggregate_conclusion(sub_verdicts) -> bool:
    """True iff every binding sub-claim's conclusion holds.

    Sub-verdicts marked vacuous (failed hypotheses, or informational extras
    beyond the claim as printed) are recorded but never count against the
    aggregate.
    """
    return all(sv.conclusion_holds for sv in sub_verdicts if not sv.vacuous)


def build_report(
    claim_id: str,
    hypothesis_breakdown: dict,
    sub_verdicts,
    witnesses=(),
    norms=None,
    tolerances: ToleranceModel = ToleranceModel(),
    seed: int = 0,
    notes=(),
) -> AuditReport:
    subs = tuple(sub_verdicts)
    return AuditReport(
        claim_id=claim_id,
        hypotheses_hold=all(hypothesis_breakdown.values()),
        hypothesis_breakdown=dict(hypothesis_breakdown),
        conclusion_holds=aggregate_conclusion(subs),
        sub_verdicts=subs,
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
    complex number becomes its [re, im] pair; anything else is returned as is.
    """
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def pairs_to_vector(pairs) -> tuple[complex, ...]:
    return tuple(complex(re, im) for re, im in pairs)


def report_to_dict(report: AuditReport) -> dict:
    return to_json(report)


def from_fields(cls, data: dict, **decoders):
    """An instance of the dataclass ``cls`` from the keys of ``data`` that name its fields.

    Each field's value passes through its entry in ``decoders``, if it has one;
    keys that name no field are ignored.
    """
    return cls(**{f.name: decoders.get(f.name, _same)(data[f.name]) for f in fields(cls)})


def _same(value):
    return value


def report_from_dict(data: dict) -> AuditReport:
    return from_fields(
        AuditReport,
        data,
        hypothesis_breakdown=dict,
        sub_verdicts=lambda svs: tuple(from_fields(SubVerdict, sv, details=dict) for sv in svs),
        witnesses=lambda ws: tuple(from_fields(Witness, w, value=pairs_to_vector) for w in ws),
        norms=dict,
        tolerances=lambda tol: from_fields(ToleranceModel, tol),
        paper_discrepancy_notes=tuple,
    )
