"""Expected answers, derived from how each input was built.

A check returns the mismatches it found. Each has a kind:

* ``value``: a number the program computed (a defect norm, an eigenvalue, a
  spectral radius) is wrong beyond roundoff. Any value mismatch marks the run
  incorrect.
* ``verdict``: a yes/no decision (a zero test, a rank decision, an audit
  verdict) disagrees with the construction. The op counts as failed, the run
  stays correct: these are the program's findings to fix, and the benchmark
  reports them rather than hiding them.

Roundoff references are the magnitudes of the summands before cancellation,
computed from the construction, so a defect that is exactly zero in exact
arithmetic may read up to VALUE_RTOL times that magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from build import Instance

VALUE_RTOL = 1e-8
SPECTRUM_TOL = 1e-6
SPHERE_TOL = 1e-8  # the program's own sphere tolerance for cor3.1


@dataclass(frozen=True)
class Mismatch:
    kind: str  # "value", "verdict" or "error"
    what: str
    expected: object
    observed: object

    def __str__(self) -> str:
        return f"[{self.kind}] {self.what}: expected {self.expected!r}, observed {self.observed!r}"


class Checks:
    def __init__(self):
        self.found: list[Mismatch] = []

    def value(self, what: str, ok: bool, expected, observed) -> None:
        if not ok:
            self.found.append(Mismatch("value", what, expected, observed))

    def verdict(self, what: str, expected, observed) -> None:
        if expected != observed:
            self.found.append(Mismatch("verdict", what, expected, observed))

    def near_zero(self, what: str, observed: float, reference: float) -> None:
        self.value(what, observed <= VALUE_RTOL * reference, f"<= {VALUE_RTOL * reference:.3e}", observed)


# ---- roundoff references ----------------------------------------------------


def _level_norm(inst: Instance, k: int) -> float:
    """||sum_{|alpha|=k} (k!/alpha!) T*^alpha T^alpha||_F for normal T."""
    norms2 = np.linalg.norm(inst.columns, axis=0) ** 2
    return float(math.sqrt(float(np.sum(norms2 ** (2 * k)))))


def defect_reference(inst: Instance, m: int) -> float:
    """Summand magnitude of the (m; 1...1) defect: sum_k C(m,k) ||T^q|| ||L_k||."""
    front = float(np.prod(np.max(np.abs(inst.columns), axis=1)))
    return max(1.0, front) * sum(math.comb(m, k) * _level_norm(inst, k) for k in range(m + 1))


def isometry_reference(inst: Instance, m: int) -> float:
    return sum(math.comb(m, k) * _level_norm(inst, k) for k in range(m + 1))


def beta_reference(dim: int, m: int) -> float:
    """Every level of beta_m over the inverse pair is the identity, times C(m,k)."""
    return 10.0 * 2.0**m * math.sqrt(dim)


# ---- helpers on the JSON forms the CLI prints -------------------------------


def pairs(vec) -> tuple[complex, ...]:
    return tuple(complex(re, im) for re, im in vec)


def distance(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def match_multiset(expected: list, observed: list) -> float:
    """Largest distance when each expected point takes its nearest unused observed one."""
    if len(expected) != len(observed):
        return math.inf
    unused = list(observed)
    worst = 0.0
    for point in expected:
        j = min(range(len(unused)), key=lambda i: distance(point, unused[i]))
        worst = max(worst, distance(point, unused.pop(j)))
    return worst


def _columns(inst: Instance) -> list[tuple[complex, ...]]:
    return [tuple(complex(z) for z in inst.columns[:, i]) for i in range(inst.dim)]


def _sub_verdicts(c: Checks, doc: dict, expected: list[tuple[bool, bool]]) -> None:
    """expected[i] = (vacuous, conclusion_holds) of sub-verdict i."""
    subs = doc["sub_verdicts"]
    c.verdict("sub-verdict count", len(expected), len(subs))
    for sv, (vacuous, holds) in zip(subs, expected):
        c.verdict(f"'{sv['name']}' vacuous", vacuous, sv["vacuous"])
        c.verdict(f"'{sv['name']}' conclusion", holds, sv["conclusion_holds"])


def _audit(c: Checks, doc: dict, subs: list[tuple[bool, bool]]) -> None:
    c.verdict("hypotheses_hold", True, doc["hypotheses_hold"])
    _sub_verdicts(c, doc, subs)
    binding = all(holds for vacuous, holds in subs if not vacuous)
    c.verdict("conclusion_holds", binding, doc["conclusion_holds"])


# ---- section 2: pi-diagonal tuples, q = (1, ..., 1) -------------------------


def classify(doc: dict, inst: Instance, m: int) -> list[Mismatch]:
    c = Checks()
    c.near_zero("partial_defect_norm", doc["partial_defect_norm"], defect_reference(inst, m))
    c.verdict("partial_isometry", True, doc["partial_isometry"])
    truth = inst.isometry_defect_norm(m)
    c.value(
        "isometry_defect_norm",
        abs(doc["isometry_defect_norm"] - truth) <= VALUE_RTOL * isometry_reference(inst, m),
        truth,
        doc["isometry_defect_norm"],
    )
    c.verdict("isometry", bool(inst.unit.all()), doc["isometry"])
    c.verdict(
        "quasinormal (normal tuple)",
        {"matricial": True, "joint": True, "spherical": True},
        doc["quasinormal"],
    )
    c.verdict("null_reducing", True, doc["null_reducing"])
    c.verdict("null_dim", int(inst.zero_variety.sum()), doc["null_dim"])
    c.verdict("entrywise_invertible", list(inst.component_invertible), list(doc["entrywise_invertible"]))
    return c.found


def isometry_defect(result: dict, inst: Instance, m: int) -> list[Mismatch]:
    c = Checks()
    truth = inst.isometry_defect_norm(m)
    c.value(
        "isometry defect norm",
        abs(result["norm"] - truth) <= VALUE_RTOL * isometry_reference(inst, m),
        truth,
        result["norm"],
    )
    c.verdict("is_zero", bool(inst.unit.all()), result["is_zero"])
    return c.found


def theorem_2_2(doc: dict, inst: Instance, m: int) -> list[Mismatch]:
    c = Checks()
    _audit(c, doc, [(False, True)])
    for key in ("defect_q_norm", "defect_ones_norm"):
        c.near_zero(key, doc["norms"][key], defect_reference(inst, m))
    return c.found


def theorem_2_3(doc: dict, inst: Instance, m: int) -> list[Mismatch]:
    c = Checks()
    _audit(c, doc, [(False, True)])
    for key, order in (("defect_m_norm", m), ("defect_m_plus_1_norm", m + 1), ("defect_m_plus_2_norm", m + 2)):
        c.near_zero(key, doc["norms"][key], defect_reference(inst, order))
    return c.found


def proposition_2_1(doc: dict, inst: Instance, m: int) -> list[Mismatch]:
    c = Checks()
    _audit(c, doc, [(False, True)])
    c.near_zero("defect_m_norm", doc["norms"]["defect_m_norm"], defect_reference(inst, m))
    c.near_zero("defect_1_norm", doc["norms"]["defect_1_norm"], defect_reference(inst, 1))
    return c.found


def theorem_2_1(doc: dict, inst: Instance, m: int) -> list[Mismatch]:
    c = Checks()
    _audit(c, doc, [(False, True)])
    details = doc["sub_verdicts"][0]["details"]
    c.verdict("operator_defect_zero", True, details["operator_defect_zero"])
    c.verdict("scalar_defect_all_zero", True, details["scalar_defect_all_zero"])
    reference = defect_reference(inst, m)
    c.near_zero("partial_defect_norm", doc["norms"]["partial_defect_norm"], reference)
    c.near_zero("max_scalar_defect", doc["norms"]["max_scalar_defect"], reference)
    c.verdict("null_dim", float(inst.zero_variety.sum()), doc["norms"]["null_dim"])
    return c.found


def proposition_2_4(doc: dict, inst: Instance, m: int) -> list[Mismatch]:
    c = Checks()
    _audit(c, doc, [(False, True)])
    details = doc["sub_verdicts"][0]["details"]
    c.verdict("defect_m_plus_1_zero", True, details["defect_m_plus_1_zero"])
    c.verdict("identity_sum_zero", True, details["identity_sum_zero"])
    c.near_zero("defect_m_norm", doc["norms"]["defect_m_norm"], defect_reference(inst, m))
    c.near_zero("defect_m_plus_1_norm", doc["norms"]["defect_m_plus_1_norm"], defect_reference(inst, m + 1))
    c.near_zero("max_identity_sum", doc["norms"]["max_identity_sum"], defect_reference(inst, m + 1))
    return c.found


# ---- section 3: joint spectra -----------------------------------------------


def joint_spectrum(doc: dict, inst: Instance) -> list[Mismatch]:
    c = Checks()
    columns = _columns(inst)
    scale = max(1.0, inst.radius)
    diagonal = [pairs(p) for p in doc["taylor_diagonal"]]
    gap = match_multiset(columns, diagonal)
    c.value("taylor diagonal = construction columns", gap <= SPECTRUM_TOL * scale, "<= tol", gap)
    c.value(
        "spectral_radius",
        abs(doc["spectral_radius"] - inst.radius) <= VALUE_RTOL * scale,
        inst.radius,
        doc["spectral_radius"],
    )
    points = doc["point_spectrum"]
    c.verdict("joint eigenvalues confirmed", inst.dim, len(points))
    for p in points:
        lam = pairs(p["lambda"])
        nearest = min(distance(lam, col) for col in columns)
        c.value("eigenvalue is a construction column", nearest <= SPECTRUM_TOL * scale, "<= tol", nearest)
        c.value("eigenpair residual", p["residual"] <= SPECTRUM_TOL * scale, "<= tol", p["residual"])
    return c.found


def theorem_3_1(doc: dict, inst: Instance) -> list[Mismatch]:
    c = Checks()
    # cor3.1 fails when a zero-variety column has norm above 1: a genuine finding.
    radius_is_one = abs(inst.radius - 1.0) <= SPHERE_TOL
    _audit(c, doc, [(False, True), (False, radius_is_one)])
    c.verdict("points_checked", inst.dim, doc["sub_verdicts"][0]["details"]["points_checked"])
    c.value(
        "spectral_radius",
        abs(doc["norms"]["spectral_radius"] - inst.radius) <= VALUE_RTOL * max(1.0, inst.radius),
        inst.radius,
        doc["norms"]["spectral_radius"],
    )
    c.near_zero("defect_norm", doc["norms"]["defect_norm"], defect_reference(inst, 1))
    return c.found


def proposition_3_2(doc: dict, inst: Instance) -> list[Mismatch]:
    c = Checks()
    _audit(c, doc, [(False, True), (False, True)])
    c.verdict("eigenvalues_checked", int(inst.unit.sum()), doc["sub_verdicts"][0]["details"]["eigenvalues_checked"])
    columns = _columns(inst)
    separated = sum(
        1
        for i in range(len(columns))
        for j in range(i + 1, len(columns))
        if abs(1.0 - sum(a * b.conjugate() for a, b in zip(columns[i], columns[j]))) >= 1e-8
    )
    c.verdict("pairs_checked", separated, doc["sub_verdicts"][1]["details"]["pairs_checked"])
    lower = float(np.min(np.linalg.norm(inst.columns, axis=0)))
    c.value(
        "joint_lower_bound = smallest column norm",
        abs(doc["norms"]["joint_lower_bound"] - lower) <= VALUE_RTOL * max(1.0, inst.radius),
        lower,
        doc["norms"]["joint_lower_bound"],
    )
    c.near_zero("defect_norm", doc["norms"]["defect_norm"], defect_reference(inst, 1))
    return c.found


# ---- section 4: the inverse pair ---------------------------------------------


def beta(result: dict, dim: int, m: int) -> list[Mismatch]:
    c = Checks()
    c.near_zero("beta_m norm (beta_1 = 0)", result["norm"], beta_reference(dim, m))
    return c.found


def left_inverse(verdict: bool) -> list[Mismatch]:
    c = Checks()
    c.verdict("is_left_m_inverse", True, verdict)
    return c.found


def spectral_mapping(doc: dict, dim: int) -> list[Mismatch]:
    c = Checks()
    _audit(c, doc, [(False, True), (True, True), (False, True)])
    c.verdict("eigenvalues_mapped", dim, doc["sub_verdicts"][2]["details"]["eigenvalues_mapped"])
    c.near_zero("beta_norm", doc["norms"]["beta_norm"], beta_reference(dim, 1))
    return c.found


def proposition_4_1(doc: dict) -> list[Mismatch]:
    """With beta_k = 0 for k >= 1 both sides are I, so every expansion holds."""
    c = Checks()
    _audit(c, doc, [(False, True), (True, True), (False, True), (True, True)])
    for key in ("max_pochhammer_deviation", "max_binomial_deviation"):
        c.value(key, doc["norms"][key] <= VALUE_RTOL, f"<= {VALUE_RTOL}", doc["norms"][key])
    return c.found
