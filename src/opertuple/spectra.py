"""Joint spectra of commuting tuples via simultaneous triangularization.

In finite dimensions the joint approximate point spectrum coincides with the
joint point spectrum (unit-sphere compactness), and the Taylor spectrum of a
commuting tuple is the diagonal of any simultaneous unitary triangularization.
Both facts replace their infinite-dimensional counterparts throughout; every
report carries a note saying so.

The joint spectrum is homogeneous (sigma(2^k T) = 2^k sigma(T), same witnesses),
so every decision is taken on T's unit-scaled copy T' (``tuples.unit_copy``), and
only the factors, diagonal, points and residuals are scaled back (``tuples.scaled``),
both exactly: CLUSTER_TOL and TRIANGULAR_MASS are relative to T's scale, and no step
overflows on finite input. The unit sphere (SPHERE_TOL, r(T) = 1, SEPARATION)
and the zero variety stay in T's units.

Triangularization itself follows the generic-combination recipe (Corless,
Gianni & Trager, ISSAC 1997): Schur-factor a random complex combination
C = sum_j c_j T'_j and check that the same unitary triangularizes every
component. One combination is drawn from the seed; every eigen-solve, the
certificate's too, takes its combination at unit magnitude (``unit_scaled``,
exact). A normal tuple, decided component by component (Fuglede: a commuting
tuple of normal matrices is unitarily diagonalizable), takes ``tuples.normal_basis``,
the eigenvectors of C's Hermitian part, accepted there at the rank cutoff the points
are certified at. A non-normal tuple, or a Hermitian basis not accepted (two
eigenvalues of C with one real part), goes to eig + QR. When
that Schur form fails (a defective combination) or leaves some component
untriangular (its eigenvalues collide), the deterministic fallback deflates one
common eigenvector at a time, starting from that same combination.

Each call triangularizes once, and ``_points`` alone turns that into the
joint point set, as arrays: the Taylor diagonal (and so the spectral radius),
the confirmed points, their witnesses and residuals. The audits read the
arrays; ``joint_spectrum`` makes tuples of them.
A candidate at diagonal position i is confirmed inside that Schur basis: its
witness x is Q times LAPACK's eigenvector of a fixed triangular combination
of the factors, and a stacked residual ||[T_j x - l_j x]_j|| at or below the
rank cutoff of a lower bound on the stack's sigma_max certifies what its SVD
would decide. Candidates the certificate cannot settle fall back to the null
space of the stacked system, the only way a candidate is rejected. Points are
Rayleigh quotients; they and their residuals come off the certificate's one
product T_j X per component. Every witness has a fixed phase: its first entry
within a relative 1e-8 of the largest modulus is real and positive.
A point claimed to lie in a partner's spectrum (conj(lambda) in sigma_p(T*)
for prop3.2, 1/(d lambda_j) in sigma_p(S) for thm4.1/4.2) is first put to the
same certificate with the witness of lambda itself; the partner's points are
computed only when some claimed point is left undecided, and prop3.2 then
reads T*'s triangularization off T's factors, in the reversed basis.
Proximity of joint eigenvalues is one L-infinity distance matrix.

The section-3 audits read their hypotheses (an (m; q)-partial isometry with
N(T^q) reducing) and T's triangularization off one ``defects.Facts``.
``joint_spectrum`` and ``spectral_mapping_audit`` (thm4.1/4.2, whose beta
``minverse`` hands it) have no q, and triangularize themselves.
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
    unit_scaled,
    unitary_triangularize,
)
from .reports import (
    NOTE_COR31_DICHOTOMY,
    NOTE_FINITE_SURROGATE,
    NOTE_REMARK31_EXPONENT,
    NOTE_THM41_SET,
    AuditReport,
    Witness,
    build_report,
    sub_verdict,
    to_json,
)
from .tuples import OperatorTuple, adjoint_tuple, combination, conjugated, normal_basis, scaled, unit_copy

# Fixed bounds of the spectral decisions; zeros and ranks go through ToleranceModel.
# CLUSTER_TOL and TRIANGULAR_MASS act on T's unit-scaled copy T' (``unit_copy``).
CLUSTER_TOL = 1e-7  # L-inf merge distance; times max(1, ||point||_inf) when matching
TRIANGULAR_MASS = 1e-7  # below-diagonal mass of each Q* T'_j Q, times max_j ||T'_j||_F
SPHERE_TOL = 1e-8  # thm3.1: | ||lambda||_2 - 1 | within which a point sits on the unit sphere
ORTHO_TOL = 1e-8  # prop3.2: largest |<x, y>| of two witnesses that counts as orthogonal
SEPARATION = 1e-8  # prop3.2: pairs with |1 - <lambda, mu>| below this are not separated


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


def _deflation_triangularize(mats: list[np.ndarray], tol: ToleranceModel) -> np.ndarray:
    """A unitary Q proposed to triangularize every matrix of ``mats``, one common eigenvector per level."""
    n = mats[0].shape[0]
    if n == 1:
        return np.eye(1, dtype=np.complex128)
    v = _common_eigenvector(mats, tol)
    # Unitary completion of v via QR of [v | I].
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(n, dtype=np.complex128)[:, : n - 1]]), mode="reduced")
    full = np.eye(n, dtype=np.complex128)
    full[1:, 1:] = _deflation_triangularize([(adjoint(q) @ m @ q)[1:, 1:] for m in mats], tol)
    return q @ full


def _proposed_bases(copy: OperatorTuple, seed: int, tol: ToleranceModel):
    """(route, Q, [Q* T'_j Q]) for each Schur basis of T's unit copy T' proposed in turn, each only when the one
    before it is turned down: ``normal_basis``'s, accepted there, then eig + QR and deflation from ``combination``."""
    if (normal := normal_basis(copy, seed, tol)) is not None:
        yield "hermitian", *normal
    unit = combination(copy, seed)
    try:
        q = unitary_triangularize(unit)[0]
    except NumericalFailureError:
        pass
    else:
        yield "schur", q, conjugated(q, copy)
    q = _deflation_triangularize([unit, *copy.matrices], tol)
    yield "deflation", q, conjugated(q, copy)


def simultaneous_triangularize(
    t: OperatorTuple, seed: int = 0, tol: ToleranceModel = DEFAULT_TOL
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One unitary Q with every Q* T_j Q upper triangular (within tolerance): (Q, [U_1, ..., U_d]).

    Q is found for T' = T / 2^e (``unit_copy``) and U_j is Q* T'_j Q times 2^e, so 2^k T gets T's Q
    and U_j exactly 2^k times T's. Of the bases ``_proposed_bases`` proposes, ``normal_basis`` (for a tuple
    normal component by component) comes already accepted at the rank cutoff; eig + QR or deflation is
    taken when its Q* T'_j Q have below-diagonal mass at most TRIANGULAR_MASS times max_j ||T'_j||_F,
    and those masses and that scale are a failure's diagnostics.
    """
    copy, e = unit_copy(t)
    scale = max(frobenius_norm(m) for m in copy)
    masses = {}  # the largest below-diagonal mass of the U_j, by route
    for route, q, us in _proposed_bases(copy, seed, tol):
        if route != "hermitian":
            masses[route] = max(frobenius_norm(np.tril(u, -1)) for u in us)
            if masses[route] > TRIANGULAR_MASS * scale:
                continue
        return q, list(scaled(us, e))
    raise NumericalFailureError(
        "simultaneous triangularization failed",
        {"schur_mass": masses.get("schur"), "deflation_mass": masses["deflation"], "scale": scale},
    )


def _rows(a: np.ndarray) -> list[tuple]:  # as tuples of Python numbers
    return list(map(tuple, a.tolist()))


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


def _near_spectrum(points: np.ndarray, spectrum_points: np.ndarray, d: int) -> np.ndarray:
    """Whether each point (a row) lies within CLUSTER_TOL * max(1, ||point||_inf) of a spectrum point."""
    atol = CLUSTER_TOL * np.maximum(1.0, np.abs(points).max(axis=1))
    return (_linf_distances(points, spectrum_points, d) <= atol[:, None]).any(axis=1)


def _in_point_spectrum(t: OperatorTuple, points, xs, own_points, tol: ToleranceModel) -> np.ndarray:
    """Whether each joint point, a row of ``points`` (k x d), lies in sigma_p(t). Each point is
    first certified with its own unit witness, the column of ``xs`` (n x k); only if some point
    is not are t's confirmed points computed, by ``own_points()`` (``_points`` of t), and a
    point within CLUSTER_TOL of one of them counts as found. Both tests are taken in the units
    of t's ``unit_copy`` T' = T / 2^e. A joint eigenvalue l of T' has every |l_j| <= ||T'_j||_2,
    so a point past twice the largest ||T'_j||_F, whose squares could overflow, is in sigma_p(t)
    by no test; it is found outside in T's units (the reach 2^e times that, capped at the largest
    float, 0 for t = 0), so that only the points inside are scaled into T's copy."""
    copy, e = unit_copy(t)
    reach = min(2.0 * max(frobenius_norm(m) for m in copy) * 2.0**e, np.finfo(np.float64).max)
    outside = np.abs(points).max(axis=1) > reach
    points = scaled(np.where(outside[:, None], 0, points), -e)
    found = ~outside & _certified(copy, xs, _images(copy, xs), points.T, tol)
    if not found.all():
        found |= ~outside & _near_spectrum(points, scaled(own_points()[1], -e), t.d)
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


def _images(t: OperatorTuple, x: np.ndarray) -> np.ndarray:
    """The products T_j X, stacked (d x n x k)."""
    return np.stack([m @ x for m in t])


def _certified(
    t: OperatorTuple, x: np.ndarray, tx: np.ndarray, lams: np.ndarray, tol: ToleranceModel
) -> np.ndarray:
    """Whether each unit column x_c proves the column lams[:, c] (d x k) a joint eigenvalue
    of ``t``: its stacked residual ||[T_j x_c - l_j x_c]_j|| (``tx`` holds the T_j X) is at
    or below the rank cutoff of a lower bound on the stack's sigma_max, floored at the stack's
    roundoff scale max_j ||T_j||_F / sqrt(n), so the stack's SVD would find a null space."""
    n, d = t.dim, t.d
    # The (d·n) x n stack has sigma_max >= ||stack||_F / sqrt(n). Each
    # ||T_j - l_j I||_F^2 is summed as its off-diagonal part plus the
    # |t_kk - l_j|^2, so nothing cancels when T_j is close to l_j I.
    diags = np.array([m.diagonal() for m in t])
    offs = np.array([frobenius_norm(m - np.diag(dg)) for m, dg in zip(t, diags)])
    residual2 = sum(np.linalg.norm(mx - x * lj, axis=0) ** 2 for mx, lj in zip(tx, lams))
    gaps = np.abs(diags[:, :, None] - lams[:, None, :])
    frob2 = (np.square(offs)[:, None] + (gaps**2).sum(axis=1)).sum(axis=0)
    floor = max(frobenius_norm(m) for m in t) / math.sqrt(n)  # the stack of l I + E can be E alone
    cutoffs = np.array([tol.rank_cutoff(d * n, max(math.sqrt(f / n), floor)) for f in frob2])
    return np.sqrt(residual2) <= cutoffs


def _schur_witnesses(t: OperatorTuple, factors, diag: np.ndarray, kept: list[int], tol: ToleranceModel):
    """Unit witnesses X, one column per kept diagonal position i, their products
    T_j X, and whether each column's stacked residual certifies it. Column i is Q
    times the eigenvector of C = triu(sum_j g_j U_j) for C[i, i], C taken at unit
    magnitude (``unit_scaled``, exact), where zgeev does not rescale it: zgeev's
    balancing isolates every eigenvalue of a triangular C, so only xTREVC's
    back-substitution runs, vanishing pivots floored. Eigenvalues other than C's
    diagonal in order certify none (and give no X)."""
    q, us = factors
    combo = unit_scaled(np.triu(sum(g * u for g, u in zip(_certificate_weights(t.d), us))))
    values, vectors = np.linalg.eig(combo)
    if not np.array_equal(values, np.diag(combo)):
        return None, None, np.zeros(len(kept), dtype=bool)
    x = q @ vectors[:, kept]
    tx = _images(t, x)
    return x, tx, _certified(t, x, tx, diag[kept].T, tol)


def _stacked_svd_witnesses(t: OperatorTuple, candidates: np.ndarray, x, tx, certified, tol: ToleranceModel):
    """The confirmed columns of (X, T_j X) once each candidate (a row of
    ``candidates``) the certificate left undecided is put to the SVD of
    [T_1 - l_1; ...; T_d - l_d] under ``rank_cutoff``, floored as ``_certified`` floors it: a
    null vector replaces its column, and only those columns are multiplied by the T_j."""
    if x is None:
        x = np.zeros((t.dim, len(candidates)), dtype=np.complex128)
        tx = np.zeros((t.d, t.dim, len(candidates)), dtype=np.complex128)
    found = certified.copy()
    eye = np.eye(t.dim)
    floor = max(frobenius_norm(m) for m in t) / math.sqrt(t.dim)
    for c in np.flatnonzero(~certified):
        basis = null_space_basis(np.vstack([m - lj * eye for m, lj in zip(t, candidates[c])]), tol, floor)
        if basis.shape[1] > 0:
            x[:, c], found[c] = basis[:, 0], True
    fresh = found & ~certified
    tx[..., fresh] = _images(t, x[:, fresh])
    return x[:, found], tx[..., found]


def _points(t: OperatorTuple, factors, tol: ToleranceModel):
    """The one route from a simultaneous triangularization (Q, [U_j]) of ``t`` to its
    joint point spectrum: (diag, lams, x, residuals).

    Every step runs on T' = T / 2^e (``unit_copy``) and U_j / 2^e; ``diag``, ``lams``
    and ``residuals`` are multiplied back by 2^e. ``diag`` is the Taylor diagonal
    (n x d). Each first-kept diagonal candidate tries the certificate of
    ``_schur_witnesses``; one it cannot settle is decided by the SVD of
    [T_1 - l_1; ...; T_d - l_d] under the same ``rank_cutoff``. The confirmed points
    ``lams`` (k x d) are the Rayleigh quotients of the unit witnesses, first-kept once
    more, and ``residuals`` holds each max_j ||T_j x - l_j x||, both read off the
    products T_j X the certificate formed (only stacked-SVD witnesses are multiplied
    again). A unit scalar times x changes neither, so the witnesses, the columns of
    ``x`` (n x k), are phase-fixed last.
    """
    copy, e = unit_copy(t)
    q, us = factors[0], scaled(np.stack(factors[1]), -e)
    diag = np.stack([u.diagonal() for u in us], axis=1)
    kept = _first_kept(diag, t.d, CLUSTER_TOL)
    x, tx, certified = _schur_witnesses(copy, (q, us), diag, kept, tol)
    if not certified.all():
        x, tx = _stacked_svd_witnesses(copy, diag[kept], x, tx, certified, tol)
    lams = (x.conj() * tx).sum(axis=1)
    residuals = np.linalg.norm(tx - x * lams[:, None, :], axis=-2).max(axis=0)
    kept = _first_kept(lams.T, t.d, CLUSTER_TOL)
    return scaled(diag, e), scaled(lams.T[kept], e), _fixed_phase(x[:, kept]), scaled(residuals[kept], e)


def _adjoint_factors(factors):
    """A simultaneous triangularization of T* read off one of T: with P the
    basis reversal, (QP)* T_j* (QP) = P U_j* P is upper triangular, with the
    below-diagonal mass of U_j."""
    q, us = factors
    return q[:, ::-1], [adjoint(u)[::-1, ::-1] for u in us]


def _norm2(lams: np.ndarray) -> np.ndarray:
    """||lambda||_2 of each joint eigenvalue (a row of ``lams``), without squaring its entries."""
    return np.hypot.reduce(np.hypot(lams.real, lams.imag), axis=1)


def _radius(diag: np.ndarray) -> float:
    return float(_norm2(diag).max())


def _in_zero_variety(lams: np.ndarray, tol: ToleranceModel) -> np.ndarray:
    """``zero_variety_member`` of each joint eigenvalue, a row of ``lams``."""
    return np.hypot(lams.real, lams.imag).min(axis=1) <= tol.threshold()


def zero_variety_member(lam, tol: ToleranceModel = DEFAULT_TOL) -> bool:
    """True when the coordinate product vanishes: some |lambda_j| is zero at scale 0."""
    return bool(_in_zero_variety(np.array([lam], dtype=np.complex128), tol)[0])


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
    diag, lams, x, residuals = _points(t, simultaneous_triangularize(t, seed, tol), tol)
    return JointSpectrumResult(
        point_spectrum=tuple(zip(_rows(lams), _rows(x.T))),
        taylor_diagonal=tuple(_rows(diag)),
        spectral_radius=_radius(diag),
        residuals=tuple(residuals.tolist()),
        seed=seed,
    )


def audit_theorem_3_1(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Joint spectrum of a reducing (m; q)-partial isometry sits on the unit
    sphere or in the zero variety; the corollary's r(T) = 1 rides along."""
    from .defects import Facts

    facts = Facts(t, q, tol, seed)
    diag, lams, _, _ = _points(t, facts.triangularization, tol)
    located = (np.abs(_norm2(lams) - 1.0) <= SPHERE_TOL) | _in_zero_variety(lams, tol)
    witnesses = [Witness("eigenvalue outside sphere and zero variety", lam) for lam in _rows(lams[~located])]

    radius = _radius(diag)
    radius_is_one = abs(radius - 1.0) <= SPHERE_TOL

    return build_report(
        "thm3.1", facts.hypotheses(m),
        [
            sub_verdict(
                "sigma_p within sphere or zero variety", bool(located.all()), points_checked=len(lams)
            ),
            sub_verdict("cor3.1: spectral radius equals 1", radius_is_one, spectral_radius=radius),
        ],
        witnesses,
        {"defect_norm": facts.defect(m).norm, "spectral_radius": radius},
        tolerances=tol, seed=seed,
        notes=(NOTE_FINITE_SURROGATE, NOTE_REMARK31_EXPONENT, NOTE_COR31_DICHOTOMY),
    )


def audit_proposition_3_2(
    t: OperatorTuple, m: int, q, tol: ToleranceModel = DEFAULT_TOL, seed: int = 0
) -> AuditReport:
    """Adjoint conjugation of eigenvalues off the zero variety, and
    orthogonality of witnesses for suitably separated eigenvalue pairs.

    T is triangularized once, by ``Facts``. If Q* T_j Q = U_j is upper
    triangular, then Q* T_j* Q = U_j* is lower triangular, and reversing the
    basis (P) makes (QP)* T_j* (QP) = P U_j* P upper triangular: T*'s points
    are confirmed from those factors, each by a witness residual on T* itself.
    A conjugate that T's own witness already certifies on T* needs none of them."""
    from .defects import Facts

    facts = Facts(t, q, tol, seed)
    factors = facts.triangularization
    _, lams, xs, _ = _points(t, factors, tol)
    adj = adjoint_tuple(t)
    points = _rows(lams)

    zero = _in_zero_variety(lams, tol)
    found = _in_point_spectrum(
        adj, lams[~zero].conj(), xs[:, ~zero], lambda: _points(adj, _adjoint_factors(factors), tol), tol
    )
    missing = np.flatnonzero(~zero)[~found]
    witnesses = [Witness("conjugate missing from adjoint spectrum", points[i]) for i in missing]

    # Pairs i < j, row by row: |1 - <lambda_i, lambda_j>| and |<x_i, x_j>|.
    rows, cols = np.triu_indices(len(points), 1)
    separated = np.abs(1.0 - lams @ lams.conj().T)[rows, cols] >= SEPARATION
    skewed = separated & (np.abs(xs.conj().T @ xs)[rows, cols] > ORTHO_TOL)
    for i, j in zip(rows[skewed].tolist(), cols[skewed].tolist()):
        witnesses.append(Witness("non-orthogonal witness pair (lambda)", points[i]))
        witnesses.append(Witness("non-orthogonal witness pair (mu)", points[j]))
    orthogonal_ok, checked_pairs = not skewed.any(), int(separated.sum())

    return build_report(
        "prop3.2", facts.hypotheses(m),
        [
            sub_verdict("conjugates lie in adjoint spectrum", all(found), eigenvalues_checked=len(found)),
            sub_verdict(
                "distinct-eigenvalue witnesses orthogonal", orthogonal_ok, pairs_checked=checked_pairs
            ),
        ],
        witnesses,
        {"defect_norm": facts.defect(m).norm, "joint_lower_bound": joint_lower_bound(t)},
        tolerances=tol, seed=seed, notes=(NOTE_FINITE_SURROGATE,),
    )


def spectral_mapping_audit(
    claim_id: str,
    source: OperatorTuple,
    target: OperatorTuple,
    beta_result,
    tol: ToleranceModel,
    seed: int,
) -> AuditReport:
    """Shared body of the spectral-mapping audits ``minverse.audit_theorem_4_1`` and ``4_2``.

    ``beta_result`` is the ``minverse.BetaResult`` that decides the m-inverse
    hypothesis. ``source`` is the tuple whose spectrum gets mapped by
    lambda_j -> 1/(d l_j) and ``target`` the tuple expected to contain the
    image, which each source point's witness is tried on first: target's
    spectrum is computed only when some image is not certified that way. Claim
    (1), as printed, says the zero variety is not contained in
    sigma_ap(source); the stronger disjointness reading is recorded separately
    and never drives the exit verdict.
    """
    _, lams, xs, _ = _points(source, simultaneous_triangularize(source, seed, tol), tol)
    zero = _in_zero_variety(lams, tol)
    in_zero, off_zero = _rows(lams[zero]), _rows(lams[~zero])
    strict_reading = not in_zero
    # For d > 1, [0] is an infinite variety; a finite spectrum can never contain it.
    literal_reading = strict_reading or source.d > 1

    # Python complex division: numpy's can differ in the last bit.
    images = [tuple(1.0 / (source.d * lj) for lj in lam) for lam in off_zero]
    found = _in_point_spectrum(
        target, np.reshape(images, (-1, source.d)), xs[:, ~zero],
        lambda: _points(target, simultaneous_triangularize(target, seed + 1, tol), tol), tol,
    )
    witnesses = [
        w for lam, image, hit in zip(off_zero, images, found) if not hit
        for w in (Witness("eigenvalue whose image is missing", lam), Witness("missing image point", image))
    ]
    witnesses += [Witness("eigenvalue in zero variety", lam) for lam in in_zero]

    return build_report(
        claim_id, {"m_inverse": tol.is_zero(beta_result.norm, beta_result.scale)},
        [
            sub_verdict(
                "(1) zero variety not contained in sigma_ap (as printed)", literal_reading,
                eigenvalues_in_zero_variety=len(in_zero),
            ),
            sub_verdict(  # not part of the claim as printed
                "(1') strict reading: sigma_p disjoint from zero variety", strict_reading,
                informational=True, eigenvalues_in_zero_variety=len(in_zero),
            ),
            sub_verdict(
                "(2)/(3) eigenvalues map via 1/(d lambda_j)", all(found), eigenvalues_mapped=len(off_zero)
            ),
        ],
        witnesses,
        {"beta_norm": beta_result.norm},
        tolerances=tol, seed=seed, notes=(NOTE_THM41_SET, NOTE_FINITE_SURROGATE),
    )
