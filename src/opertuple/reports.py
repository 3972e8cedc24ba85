"""Structured audit verdicts and their lossless JSON serialization.

A report records whether a claim's hypotheses held, whether its conclusion
held wherever the hypotheses did, the witnesses behind any violation, and the
named norms that drove each decision. Complex numbers serialize as [re, im]
pairs; round-tripping through JSON is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    ``vacuous`` marks conclusions evaluated under failed hypotheses; they are
    informational and never count against the aggregate verdict.
    """

    name: str
    hypotheses_hold: bool
    conclusion_holds: bool
    vacuous: bool = False
    details: dict = field(default_factory=dict)


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


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_to_pairs(values) -> list[list[float]]:
    return [complex_to_pair(complex(z)) for z in values]


def pairs_to_vector(pairs) -> tuple[complex, ...]:
    return tuple(complex(re, im) for re, im in pairs)


def tolerances_to_dict(tol: ToleranceModel) -> dict:
    return {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol, "rank_factor": tol.rank_factor}


def tolerances_from_dict(data: dict) -> ToleranceModel:
    return ToleranceModel(
        abs_tol=data["abs_tol"], rel_tol=data["rel_tol"], rank_factor=data["rank_factor"]
    )


def report_to_dict(report: AuditReport) -> dict:
    return {
        "claim_id": report.claim_id,
        "hypotheses_hold": report.hypotheses_hold,
        "hypothesis_breakdown": dict(report.hypothesis_breakdown),
        "conclusion_holds": report.conclusion_holds,
        "sub_verdicts": [
            {
                "name": sv.name,
                "hypotheses_hold": sv.hypotheses_hold,
                "conclusion_holds": sv.conclusion_holds,
                "vacuous": sv.vacuous,
                "details": dict(sv.details),
            }
            for sv in report.sub_verdicts
        ],
        "witnesses": [
            {"label": w.label, "value": vector_to_pairs(w.value)} for w in report.witnesses
        ],
        "norms": dict(report.norms),
        "tolerances": tolerances_to_dict(report.tolerances),
        "seed": report.seed,
        "paper_discrepancy_notes": list(report.paper_discrepancy_notes),
    }


def report_from_dict(data: dict) -> AuditReport:
    return AuditReport(
        claim_id=data["claim_id"],
        hypotheses_hold=data["hypotheses_hold"],
        hypothesis_breakdown=dict(data["hypothesis_breakdown"]),
        conclusion_holds=data["conclusion_holds"],
        sub_verdicts=tuple(
            SubVerdict(
                name=sv["name"],
                hypotheses_hold=sv["hypotheses_hold"],
                conclusion_holds=sv["conclusion_holds"],
                vacuous=sv["vacuous"],
                details=dict(sv["details"]),
            )
            for sv in data["sub_verdicts"]
        ),
        witnesses=tuple(
            Witness(label=w["label"], value=pairs_to_vector(w["value"]))
            for w in data["witnesses"]
        ),
        norms=dict(data["norms"]),
        tolerances=tolerances_from_dict(data["tolerances"]),
        seed=data["seed"],
        paper_discrepancy_notes=tuple(data["paper_discrepancy_notes"]),
    )
