"""Joint spectra of commuting tuples via simultaneous triangularization.

In finite dimensions the joint approximate point spectrum coincides with the
joint point spectrum (unit-sphere compactness), and the Taylor spectrum of a
commuting tuple is the diagonal of any simultaneous unitary triangularization.
Both facts replace their infinite-dimensional counterparts throughout; every
report carries a note saying so.

Triangularization itself follows the generic-combination recipe (Corless,
Gianni & Trager, ISSAC 1997): Schur-factor a random complex combination
sum_j c_j T_j and check that the same unitary triangularizes every component.
A draw whose eigenvalues collide is retried; a defective combination, or
retries that all fail, hand over to the deterministic fallback, which deflates
one common eigenvector at a time.

Each call triangularizes once; the point spectrum and the spectral radius
share its diagonal. A candidate at diagonal position i is confirmed inside
that Schur basis: back-substitution in the leading block of a fixed
combination of the triangular factors gives a witness x, and a stacked
residual ||[T_j x - l_j x]_j|| at or below the rank cutoff of a lower bound on
the stack's sigma_max certifies what its SVD would decide. Candidates the
certificate cannot settle fall back to the null space of the stacked system,
the only way a candidate is rejected. Every witness has a fixed phase: its
first entry within a relative 1e-8 of the largest modulus is real and positive.
A point claimed to lie in a partner's spectrum (conj(lambda) in sigma_p(T*)
for prop3.2, 1/(d lambda_j) in sigma_p(S) for thm4.1/4.2) is first put to the
same certificate with the witness of lambda itself; the partner's points are
computed only when some claimed point is left undecided, and prop3.2 then
reads T*'s triangularization off T's factors, in the reversed basis.
Proximity of joint eigenvalues is one L-infinity distance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NumericalFailureError,
    ToleranceModel,
    adjoint,
    frobenius_norm,
    null_space_basis,
    unitary_triangularize,
)
from .reports import (
    NOTE_COR31_DICHOTOMY,
    NOTE_FINITE_SURROGATE,
    NOTE_REMARK31_EXPONENT,
    AuditReport,
    SubVerdict,
    Witness,
    build_report,
    to_json,
)
from .tuples import OperatorTuple, _null_reducing, adjoint_tuple

# Fixed bounds of the spectral decisions; zeros and ranks go through ToleranceModel.
CLUSTER_TOL = 1e-7  # L-inf merge distance; times max(1, ||point||_inf) when matching
TRIANGULAR_MASS = 1e-7  # below-diagonal mass of each U_j, times max(1, max_j ||T_j||_F)
SPHERE_TOL = 1e-8  # thm3.1: | ||lambda||_2 - 1 | within which a point sits on the unit sphere
ORTHO_TOL = 1e-8  # prop3.2: largest |<x, y>| of two witnesses that counts as orthogonal
SEPARATION = 1e-8  # prop3.2: pairs with |1 - <lambda, mu>| below this are not separated
_TRIANGULARIZE_RETRIES = 8


def _component_scale(t: OperatorTuple) -> float:
    with np.errstate(over="ignore"):  # frobenius_norm rescales what overflows
        return max(1.0, max(frobenius_norm(m) for m in t))


def _below_diagonal_mass(u: np.ndarray) -> float:
    return float(np.linalg.norm(np.tril(u, -1), "fro"))


def _random_unit_combination(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _common_eigenvector(mats: list[np.ndarray], tol: ToleranceModel) -> np.ndarray:
    """One approximate common eigenvector of a commuting family, by restriction."""
    n = mats[0].shape[0]
    basis = np.eye(n, dtype=np.complex128)
    for m in mats:
        if basis.shape[1] == 1:
            break
        restricted = adjoint(basis) @ m @ basis
        shifted = restricted - np.linalg.eigvals(restricted)[0] * np.eye(restricted.shape[0])
        space = null_space_basis(shifted, tol)
        if space.shape[1] == 0:
            space = np.linalg.svd(shifted)[2][-1:].conj().T
        basis = basis @ space
    v = basis[:, 0]
    return v / np.linalg.norm(v)


def _deflation_triangularize(
    mats: list[np.ndarray], tol: ToleranceModel
) -> tuple[np.ndarray, list[np.ndarray]]:
    n = mats[0].shape[0]
    if n == 1:
        return np.eye(1, dtype=np.complex128), [m.copy() for m in mats]
    v = _common_eigenvector(mats, tol)
    # Unitary completion of v via QR of [v | I].
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(n, dtype=np.complex128)[:, : n - 1]]), mode="reduced")
    # Align the first column with v (QR may flip phase).
    phase = np.vdot(q[:, 0], v)
    if abs(phase) > 0:
        q[:, 0] *= phase / abs(phase)
    transformed = [adjoint(q) @ m @ q for m in mats]
    tails = [m[1:, 1:] for m in transformed]
    q_sub, _ = _deflation_triangularize(tails, tol)
    full = np.eye(n, dtype=np.complex128)
    full[1:, 1:] = q_sub
    q_total = q @ full
    return q_total, [adjoint(q_total) @ m @ q_total for m in mats]


def simultaneous_triangularize(
    t: OperatorTuple, seed: int = 0, tol: ToleranceModel = DEFAULT_TOL
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One unitary Q with every Q* T_j Q upper triangular (within tolerance).

    Returns (Q, [U_1, ..., U_d]). Below-diagonal mass of each U_j is at most
    TRIANGULAR_MASS times max(1, ||T_j||_F). A combination whose Schur form
    fails is (nearly) defective, and then so is every generic one: deflation,
    of that combination first, runs at once. A component the Schur form leaves
    untriangular is an eigenvalue collision, and a new combination is drawn.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    scale = _component_scale(t)
    best_mass = None
    for attempts in range(1, _TRIANGULARIZE_RETRIES + 1):
        c = _random_unit_combination(rng, t.d)
        combo = sum(cj * m for cj, m in zip(c, t))
        try:
            q, _ = unitary_triangularize(combo)
        except NumericalFailureError:
            break
        us = [adjoint(q) @ m @ q for m in t]
        mass = max(_below_diagonal_mass(u) for u in us)
        if mass <= TRIANGULAR_MASS * scale:
            return q, us
        best_mass = mass if best_mass is None else min(best_mass, mass)
    q, (_, *us) = _deflation_triangularize([combo, *t.matrices], tol)
    mass = max(_below_diagonal_mass(u) for u in us)
    if mass <= TRIANGULAR_MASS * scale:
        return q, us
    raise NumericalFailureError(
        "simultaneous triangularization failed",
        {
            "random_attempts": attempts,
            "best_random_mass": best_mass,
            "deflation_mass": mass,
            "scale": scale,
        },
    )


def _diagonal(us) -> list[tuple[complex, ...]]:
    return list(map(tuple, np.stack([u.diagonal() for u in us], axis=1).tolist()))


def _linf_distances(a, b, d: int) -> np.ndarray:
    """max_j |a_ij - b_kj| for every row i of ``a`` and row k of ``b`` (d-vectors)."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1, d)
    b = np.asarray(b, dtype=np.complex128).reshape(-1, d)
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


def _first_kept(points, d: int, tol: float) -> list[int]:
    """Greedy clustering: a point is kept unless within ``tol`` of a point kept before it.

    A point with no earlier point within ``tol`` is kept outright; only the
    rest walk the greedy rule, in order."""
    close = np.tril(_linf_distances(points, points, d) <= tol, -1)
    kept = ~close.any(axis=1)
    for i in np.flatnonzero(~kept):
        kept[i] = not (close[i, :i] & kept[:i]).any()
    return np.flatnonzero(kept).tolist()


def _near_spectrum(points, spectrum_points, d: int) -> list[bool]:
    """Whether each point lies within CLUSTER_TOL * max(1, ||point||_inf) of a spectrum point."""
    atol = CLUSTER_TOL * np.maximum(1.0, np.abs(np.reshape(points, (-1, d))).max(axis=1))
    return (_linf_distances(points, spectrum_points, d) <= atol[:, None]).any(axis=1).tolist()


def _in_point_spectrum(t: OperatorTuple, points, xs, own_points, tol: ToleranceModel) -> list[bool]:
    """Whether each joint point (k x d) lies in sigma_p(t). Each point is first certified with
    its own unit witness xs[c]; only if some point is not are t's confirmed points computed, by
    ``own_points()``, and a point within CLUSTER_TOL of one of them counts as found."""
    points = np.reshape(points, (-1, t.d))
    found = _certified(t, np.reshape(xs, (-1, t.dim)).T, points.T, tol)
    if not all(found):
        near = _near_spectrum(points, [mu for mu, _ in own_points()], t.d)
        found = [c or n for c, n in zip(found, near)]
    return found


def _fixed_phase(x: np.ndarray) -> np.ndarray:
    """x (a vector, or each column) times the unit scalar that makes its first entry
    within a relative 1e-8 of the largest modulus real and positive."""
    mod = np.abs(x)
    k = np.argmax(mod >= (1.0 - 1e-8) * mod.max(axis=0), axis=0)[None]
    top = np.take_along_axis(mod, k, axis=0)
    out = x * (top / np.take_along_axis(x, k, axis=0))
    np.put_along_axis(out, k, top, axis=0)
    return out


def _certificate_weights(d: int) -> np.ndarray:
    """The fixed weights g of the combination sum_j g_j U_j that the certificate
    back-substitutes in: unit moduli, phases irrational multiples of pi."""
    return np.exp(1j * math.sqrt(2.0) * np.arange(1, d + 1))


def _certified(t: OperatorTuple, x: np.ndarray, lams: np.ndarray, tol: ToleranceModel) -> list[bool]:
    """Whether each unit column x_c proves the column lams[:, c] (d x k) a joint eigenvalue
    of ``t``: its stacked residual ||[T_j x_c - l_j x_c]_j|| is at or below the rank cutoff
    of a lower bound on the stack's sigma_max, so the stack's SVD would find a null space."""
    n, d = t.dim, t.d
    # The (d·n) x n stack has sigma_max >= ||stack||_F / sqrt(n). Each
    # ||T_j - l_j I||_F^2 is summed as its off-diagonal part plus the
    # |t_kk - l_j|^2, so nothing cancels when T_j is close to l_j I.
    # A cutoff that overflows certifies nothing; the stacked SVD decides.
    with np.errstate(over="ignore", invalid="ignore"):
        residual2 = sum(np.linalg.norm(m @ x - x * lj, axis=0) ** 2 for m, lj in zip(t, lams))
        frob2 = sum(
            np.square(frobenius_norm(m - np.diag(np.diag(m))))
            + (np.abs(np.diag(m)[:, None] - lj) ** 2).sum(axis=0)
            for m, lj in zip(t, lams)
        )
    cutoffs = [tol.rank_cutoff(d * n, math.sqrt(f / n)) for f in frob2]
    return [bool(r <= c and math.isfinite(c)) for r, c in zip(np.sqrt(residual2), cutoffs)]


def _schur_witnesses(t: OperatorTuple, factors, diag, kept: list[int], tol: ToleranceModel):
    """Unit witnesses from the triangular factors, one column per kept diagonal
    position, and whether each one's stacked residual certifies it."""
    q, us = factors
    n, d = t.dim, t.d
    combo = sum(gj * u for gj, u in zip(_certificate_weights(d), us))
    shifts = np.diag(combo)[kept]
    pos = np.array(kept)
    # Back-substitution in the leading (i+1) x (i+1) block of combo - c_i I,
    # all kept positions i at once: y_i = 1 and y_k = 0 below it.
    y = np.zeros((n, len(kept)), dtype=np.complex128)
    y[pos, np.arange(len(kept))] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 2, -1, -1):
            above = pos > k
            y[k, above] = -(combo[k, k + 1 :] @ y[k + 1 :, above]) / (combo[k, k] - shifts[above])
        x = q @ y
        x /= np.linalg.norm(x, axis=0)
    return x, _certified(t, x, np.array([diag[i] for i in kept]).T, tol)


def _confirmed_points(
    t: OperatorTuple, diag, tol: ToleranceModel, factors=None
) -> list[tuple[tuple[complex, ...], np.ndarray]]:
    """Candidates, confirmed by a residual certificate or the stacked null space.

    ``factors`` is the (Q, [U_j]) whose diagonal ``diag`` is; with it each
    candidate first tries the certificate of ``_schur_witnesses``. A candidate
    it cannot settle, and every candidate without factors, is decided by the
    SVD of [T_1 - l_1; ...; T_d - l_d] under the same ``rank_cutoff``.
    """
    kept = _first_kept(diag, t.d, CLUSTER_TOL)
    certified = [False] * len(kept)
    if factors is not None:
        x_cert, certified = _schur_witnesses(t, factors, diag, kept, tol)
    xs = []
    eye = np.eye(t.dim)
    for c, i in enumerate(kept):
        if certified[c]:
            xs.append(x_cert[:, c])
        else:
            stacked = np.vstack([m - lj * eye for m, lj in zip(t, diag[i])])
            basis = null_space_basis(stacked, tol)
            if basis.shape[1] > 0:
                xs.append(basis[:, 0])
    x = _fixed_phase(np.reshape(xs, (-1, t.dim)).T)
    lams = list(zip(*((x.conj() * (m @ x)).sum(axis=0).tolist() for m in t)))
    return [(lams[i], x[:, i]) for i in _first_kept(lams, t.d, CLUSTER_TOL)]


def joint_point_spectrum(
    t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> list[tuple[tuple[complex, ...], np.ndarray]]:
    """Joint eigenvalues with one unit witness each.

    Candidates come from the simultaneous-triangularization diagonal. Each is
    confirmed in the Schur basis when the stacked residual of its
    back-substituted witness is at or below the rank cutoff, and otherwise by a
    nonempty numerical null space of the stacked matrix
    [T_1 - l_1; ...; T_d - l_d]; then refined by a Rayleigh quotient. A witness
    is fixed up to roundoff: its first entry within a relative 1e-8 of the
    largest modulus is real and positive.
    """
    return _point_spectrum(t, tol, seed)[1]


def _point_spectrum(t: OperatorTuple, tol: ToleranceModel, seed: int):
    """One triangularization: its diagonal and the points it confirms."""
    return _factor_points(t, simultaneous_triangularize(t, seed, tol), tol)


def _factor_points(t: OperatorTuple, factors, tol: ToleranceModel):
    """The diagonal of a simultaneous triangularization (Q, [U_j]) of ``t`` and
    the points it confirms."""
    diag = _diagonal(factors[1])
    return diag, _confirmed_points(t, diag, tol, factors)


def _adjoint_factors(factors):
    """A simultaneous triangularization of T* read off one of T: with P the
    basis reversal, (QP)* T_j* (QP) = P U_j* P is upper triangular, with the
    below-diagonal mass of U_j."""
    q, us = factors
    return q[:, ::-1], [adjoint(u)[::-1, ::-1] for u in us]


def _point_residual(t: OperatorTuple, lam, x) -> float:
    return max(float(np.linalg.norm(m @ x - lj * x)) for m, lj in zip(t, lam))


def _norm2(lam) -> float:
    """||lambda||_2 of a joint eigenvalue, without squaring its entries."""
    return math.hypot(*map(abs, lam))


def _radius(diag) -> float:
    return max(_norm2(lam) for lam in diag)


def zero_variety_member(lam, tol: ToleranceModel = DEFAULT_TOL) -> bool:
    """True when the coordinate product vanishes: some |lambda_j| is zero at scale 0."""
    return tol.is_zero(min(abs(complex(lj)) for lj in lam))


def joint_lower_bound(t: OperatorTuple) -> float:
    """Smallest singular value of the stacked [T_1; ...; T_d].

    Positive values certify joint boundedness below: no unit vector makes all
    the ||T_j x|| simultaneously small.
    """
    stacked = np.vstack(list(t.matrices))
    return float(np.linalg.svd(stacked, compute_uv=False)[-1])


@dataclass(frozen=True)
class JointSpectrumResult:
    point_spectrum: tuple
    taylor_diagonal: tuple
    spectral_radius: float
    residuals: tuple
    seed: int

    def to_dict(self) -> dict:
        """The fields as JSON, each point as {lambda, witness, residual}."""
        doc = to_json(self)
        residuals = doc.pop("residuals")
        doc["point_spectrum"] = [
            {"lambda": lam, "witness": x, "residual": res}
            for (lam, x), res in zip(doc["point_spectrum"], residuals)
        ]
        return doc


def joint_spectrum(
    t: OperatorTuple, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> JointSpectrumResult:
    diag, points = _point_spectrum(t, tol, seed)
    residuals = tuple(_point_residual(t, lam, x) for lam, x in points)
    return JointSpectrumResult(
        point_spectrum=tuple((lam, tuple(x)) for lam, x in points),
        taylor_diagonal=tuple(diag),
        spectral_radius=_radius(diag),
        residuals=residuals,
        seed=seed,
    )


def audit_theorem_3_1(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Joint spectrum of a reducing (m; q)-partial isometry sits on the unit
    sphere or in the zero variety; the corollary's r(T) = 1 rides along."""
    from .defects import _exponent_and_power, _partial_defects

    q, power = _exponent_and_power(t, q)
    defect = _partial_defects(t, (m,), power, tol)[0]
    reducing, _ = _null_reducing(t, q, power, tol)
    hyp = defect.is_zero and reducing

    diag, points = _point_spectrum(t, tol, seed)
    witnesses = []
    all_located = True
    for lam, _x in points:
        on_sphere = abs(_norm2(lam) - 1.0) <= SPHERE_TOL
        in_zero = zero_variety_member(lam, tol)
        if not (on_sphere or in_zero):
            all_located = False
            witnesses.append(Witness("eigenvalue outside sphere and zero variety", lam))

    radius = _radius(diag)
    radius_is_one = abs(radius - 1.0) <= SPHERE_TOL

    subs = (
        SubVerdict(
            name="sigma_p within sphere or zero variety",
            hypotheses_hold=hyp,
            conclusion_holds=all_located,
            vacuous=not hyp,
            details={"points_checked": len(points)},
        ),
        SubVerdict(
            name="cor3.1: spectral radius equals 1",
            hypotheses_hold=hyp,
            conclusion_holds=radius_is_one,
            vacuous=not hyp,
            details={"spectral_radius": radius},
        ),
    )
    return build_report(
        claim_id="thm3.1",
        hypothesis_breakdown={"partial_isometry": defect.is_zero, "null_space_reducing": reducing},
        sub_verdicts=subs,
        witnesses=witnesses,
        norms={"defect_norm": defect.norm, "spectral_radius": radius},
        tolerances=tol,
        seed=seed,
        notes=(NOTE_FINITE_SURROGATE, NOTE_REMARK31_EXPONENT, NOTE_COR31_DICHOTOMY),
    )


def audit_proposition_3_2(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Adjoint conjugation of eigenvalues off the zero variety, and
    orthogonality of witnesses for suitably separated eigenvalue pairs.

    T is triangularized once. If Q* T_j Q = U_j is upper triangular, then
    Q* T_j* Q = U_j* is lower triangular, and reversing the basis (P) makes
    (QP)* T_j* (QP) = P U_j* P upper triangular: T*'s points are confirmed
    from those factors, each by a witness residual on T* itself. A conjugate
    that T's own witness already certifies on T* needs none of them."""
    from .defects import _exponent_and_power, _partial_defects

    q, power = _exponent_and_power(t, q)
    defect = _partial_defects(t, (m,), power, tol)[0]
    reducing, _ = _null_reducing(t, q, power, tol)
    hyp = defect.is_zero and reducing

    factors = simultaneous_triangularize(t, seed, tol)
    _, points = _factor_points(t, factors, tol)
    adj = adjoint_tuple(t)
    witnesses = []

    off_zero = [(lam, x) for lam, x in points if not zero_variety_member(lam, tol)]
    found = _in_point_spectrum(
        adj, np.conj([lam for lam, _ in off_zero]), [x for _, x in off_zero],
        lambda: _factor_points(adj, _adjoint_factors(factors), tol)[1], tol,
    )
    for (lam, _x), hit in zip(off_zero, found):
        if not hit:
            witnesses.append(Witness("conjugate missing from adjoint spectrum", lam))

    # Pairs i < j, row by row: |1 - <lambda_i, lambda_j>| and |<x_i, x_j>|.
    lams = np.reshape([lam for lam, _ in points], (-1, t.d))
    xs = np.reshape([x for _, x in points], (-1, t.dim)).T
    rows, cols = np.triu_indices(len(points), 1)
    separated = np.abs(1.0 - lams @ lams.conj().T)[rows, cols] >= SEPARATION
    skewed = separated & (np.abs(xs.conj().T @ xs)[rows, cols] > ORTHO_TOL)
    for i, j in zip(rows[skewed].tolist(), cols[skewed].tolist()):
        witnesses.append(Witness("non-orthogonal witness pair (lambda)", points[i][0]))
        witnesses.append(Witness("non-orthogonal witness pair (mu)", points[j][0]))
    orthogonal_ok, checked_pairs = not skewed.any(), int(separated.sum())

    subs = (
        SubVerdict(
            name="conjugates lie in adjoint spectrum",
            hypotheses_hold=hyp,
            conclusion_holds=all(found),
            vacuous=not hyp,
            details={"eigenvalues_checked": len(off_zero)},
        ),
        SubVerdict(
            name="distinct-eigenvalue witnesses orthogonal",
            hypotheses_hold=hyp,
            conclusion_holds=orthogonal_ok,
            vacuous=not hyp,
            details={"pairs_checked": checked_pairs},
        ),
    )
    return build_report(
        claim_id="prop3.2",
        hypothesis_breakdown={"partial_isometry": defect.is_zero, "null_space_reducing": reducing},
        sub_verdicts=subs,
        witnesses=witnesses,
        norms={"defect_norm": defect.norm, "joint_lower_bound": joint_lower_bound(t)},
        tolerances=tol,
        seed=seed,
        notes=(NOTE_FINITE_SURROGATE,),
    )
