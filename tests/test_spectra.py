import itertools
import json
import math
import pathlib
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opertuple import cli, spectra, tuples
from opertuple.defects import Facts
from opertuple.generators import (
    diagonal_conjugate,
    example_2_1_matrix,
    golden_ratio_matrix,
    paper_example,
    polynomial_family,
    random_unitary,
)
from opertuple.linalg import (
    DEFAULT_TOL,
    NumericalFailureError,
    adjoint,
    binary_exponent,
    frobenius_norm,
    null_space_basis,
    unitary_triangularize,
)
from opertuple.spectra import (
    CLUSTER_TOL,
    ORTHO_TOL,
    SEPARATION,
    TRIANGULAR_MASS,
    _adjoint_factors,
    _certificate_weights,
    _first_kept,
    _fixed_phase,
    _linf_distances,
    _near_spectrum,
    _points,
    _schur_witnesses,
    audit_proposition_3_2,
    audit_theorem_3_1,
    joint_lower_bound,
    joint_spectrum,
    simultaneous_triangularize,
    zero_variety_member,
)
from opertuple.minverse import audit_theorem_4_1, audit_theorem_4_2, beta
from opertuple.reports import report_to_dict
from opertuple.tuplefile import parse_partner, parse_tuple_file
from opertuple.tuples import (
    OperatorTuple,
    _commutator_table,
    _normal,
    adjoint_tuple,
    conjugate_by_unitary,
    make_tuple,
    normal_basis,
    permute_tuple,
    unit_copy,
)
from witness_oracle import back_substituted_witnesses

RNG = np.random.default_rng(99)

GOLDEN_A = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def unitary_scaled(d, dim=4, seed=1):
    u = random_unitary(dim, np.random.default_rng(seed))
    return make_tuple([u / math.sqrt(d)] * d)


def points_of(t, **kw):
    return [lam for lam, _ in joint_spectrum(t, **kw).point_spectrum]


def diagonal_of(us):
    """The diagonal of a triangularization [U_j] as an n x d array."""
    return np.stack([u.diagonal() for u in us], axis=1)


def certify_nothing(monkeypatch):
    """Patch the Schur certificate to certify no candidate: the stacked SVD decides them all."""
    monkeypatch.setattr(
        spectra, "_schur_witnesses",
        lambda t, factors, diag, kept, tol: (None, None, np.zeros(len(kept), dtype=bool)),
    )


def assert_point_in(lam, points, tol=1e-8):
    assert any(max(abs(a - b) for a, b in zip(lam, mu)) <= tol for mu in points), (
        f"{lam} not found in {points}"
    )


def test_joint_point_spectrum_diagonal_pair():
    t = make_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    pts = points_of(t)
    assert len(pts) == 2
    assert_point_in((1.0, 3.0), pts)
    assert_point_in((2.0, 4.0), pts)


def test_joint_point_spectrum_golden_pair():
    t = make_tuple([golden_ratio_matrix(), np.zeros((2, 2), dtype=complex)])
    pts = points_of(t)
    assert len(pts) == 2
    assert_point_in((GOLDEN_A, 0.0), pts)
    assert_point_in((0.0, 0.0), pts)
    # witnesses: (a, 1)/norm for a and e2 for 0
    for lam, x in joint_spectrum(t).point_spectrum:
        if abs(lam[0]) > 0.5:
            expected = np.array([GOLDEN_A, 1.0]) / math.hypot(GOLDEN_A, 1.0)
        else:
            expected = np.array([0.0, 1.0])
        assert abs(abs(np.vdot(x, expected)) - 1.0) < 1e-8


def test_joint_point_spectrum_example_2_2():
    t = paper_example("2.2").tuple
    pts = points_of(t)
    assert len(pts) == 3
    for k in range(3):
        omega = np.exp(2j * np.pi * k / 3)
        assert_point_in((1j * omega, 1.0), pts)


def test_witness_residuals_within_contract():
    t = paper_example("2.2").tuple
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    for lam, x in joint_spectrum(t).point_spectrum:
        x = np.asarray(x)
        residual = max(np.linalg.norm(m @ x - lj * x) for m, lj in zip(t, lam))
        assert residual <= 1e-8 * scale


def test_simultaneous_triangularize_triangular_inputs():
    t = make_tuple([np.triu(RNG.standard_normal((4, 4))), np.eye(4)])
    _, us = simultaneous_triangularize(t)
    for u in us:
        assert np.linalg.norm(np.tril(u, -1)) <= 1e-12 * max(1.0, frobenius_norm(u))


def test_simultaneous_triangularize_jordan_pair():
    t = make_tuple([np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[2.0, 3.0], [0.0, 2.0]])])
    diag = joint_spectrum(t).taylor_diagonal
    assert len(diag) == 2
    for lam in diag:
        assert abs(lam[0] - 1.0) < 1e-8 and abs(lam[1] - 2.0) < 1e-8


def test_simultaneous_triangularize_residual_contract():
    for seed in range(4):
        t = polynomial_family(np.random.default_rng(seed), 5, 3, 3)
        q, us = simultaneous_triangularize(t, seed=seed)
        scale = max(1.0, max(frobenius_norm(m) for m in t))
        assert max(np.linalg.norm(np.tril(u, -1)) for u in us) <= 1e-7 * scale
        for m, u in zip(t, us):
            assert frobenius_norm(q @ u @ q.conj().T - m) <= 1e-7 * scale


def test_deflation_fallback_triangularizes():
    # the deterministic fallback behind simultaneous_triangularize, exercised
    # directly on a derogatory commuting family
    from opertuple.linalg import DEFAULT_TOL, adjoint
    from opertuple.spectra import _deflation_triangularize

    j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]], dtype=complex)
    v = random_unitary(3, np.random.default_rng(5))
    mats = [adjoint(v) @ j @ v, adjoint(v) @ (j @ j / 4.0) @ v]
    q = _deflation_triangularize(mats, DEFAULT_TOL)
    assert frobenius_norm(adjoint(q) @ q - np.eye(3)) < 1e-12
    for m in mats:
        u = adjoint(q) @ m @ q
        assert np.linalg.norm(np.tril(u, -1)) < 1e-10
        assert frobenius_norm(q @ u @ adjoint(q) - m) < 1e-10


def test_defective_matrix_points_are_residual_certified():
    # a Jordan block smears its eigenvalue by ~eps^(1/3); each reported point
    # still satisfies the residual contract and sits near the true value
    j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]], dtype=complex)
    t = make_tuple([j, j @ j / 4.0])
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    for lam, x in joint_spectrum(t).point_spectrum:
        x = np.asarray(x)
        assert max(np.linalg.norm(m @ x - lj * x) for m, lj in zip(t, lam)) <= 1e-8 * scale
        assert abs(lam[0] - 2.0) < 1e-4 and abs(lam[1] - 1.0) < 1e-4


def test_taylor_diagonal_seed_independent():
    t = polynomial_family(np.random.default_rng(11), 4, 2, 2)
    d1 = sorted(joint_spectrum(t, seed=0).taylor_diagonal, key=lambda p: (p[0].real, p[0].imag))
    d2 = sorted(joint_spectrum(t, seed=123).taylor_diagonal, key=lambda p: (p[0].real, p[0].imag))
    for a, b in zip(d1, d2):
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-7


def test_spectral_radius_cases():
    assert joint_spectrum(unitary_scaled(3)).spectral_radius == pytest.approx(1.0, abs=1e-10)
    t = make_tuple([golden_ratio_matrix(), np.zeros((2, 2), dtype=complex)])
    assert joint_spectrum(t).spectral_radius == pytest.approx(GOLDEN_A, abs=1e-8)
    assert joint_spectrum(make_tuple([np.zeros((3, 3))])).spectral_radius == 0.0


def test_spectral_radius_unitary_invariant():
    t = polynomial_family(np.random.default_rng(21), 4, 2, 2)
    v = random_unitary(4, RNG)
    assert joint_spectrum(conjugate_by_unitary(t, v)).spectral_radius == pytest.approx(
        joint_spectrum(t).spectral_radius, abs=1e-10
    )


def test_zero_variety_membership():
    assert zero_variety_member((0.0, 5.0))
    assert not zero_variety_member((1.0 / math.sqrt(2), 1.0 / math.sqrt(2)))
    assert zero_variety_member((GOLDEN_A, 0.0))


def test_point_spectrum_invariance_under_unitary_and_permutation():
    t = make_tuple([np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, 2.0])])
    v = random_unitary(3, RNG)
    moved = conjugate_by_unitary(t, v)
    pts, pts_moved = points_of(t), points_of(moved)
    assert len(pts) == len(pts_moved)
    for lam in pts:
        assert_point_in(lam, pts_moved, tol=1e-7)
    swapped = permute_tuple(t, (1, 0))
    for lam in pts:
        assert_point_in((lam[1], lam[0]), points_of(swapped), tol=1e-7)


def test_d1_point_spectrum_matches_eigendecomposition():
    a = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    t = make_tuple([a])
    pts = {round(l[0].real, 6) + 1j * round(l[0].imag, 6) for l in points_of(t)}
    eig = {round(l.real, 6) + 1j * round(l.imag, 6) for l in np.linalg.eigvals(a)}
    assert pts == eig


def test_joint_lower_bound_detects_common_near_kernel():
    t = make_tuple([np.diag([0.0, 1.0]), np.diag([0.0, 2.0])])
    assert joint_lower_bound(t) <= 1e-12
    s = make_tuple([np.diag([1.0, 1.0]), np.diag([0.0, 2.0])])
    assert joint_lower_bound(s) >= 0.9


def test_audit_thm_3_1_unitary_scaled_passes():
    rep = audit_theorem_3_1(unitary_scaled(2), 1, (1, 1))
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert not rep.witnesses


def test_audit_thm_3_1_example_2_1_sharpness_witness():
    base = example_2_1_matrix() / math.sqrt(2.0)
    t = make_tuple([base, base])
    rep = audit_theorem_3_1(t, 1, (1, 1))
    assert not rep.hypotheses_hold  # N(T^q) is not reducing
    assert rep.hypothesis_breakdown["partial_isometry"] is True
    assert rep.hypothesis_breakdown["null_space_reducing"] is False
    assert rep.conclusion_holds  # vacuous
    # the violating eigenvalue has ||lambda||_2 = 2^(-1/4)
    mu = 2.0 ** (-0.25)
    norms = [
        math.sqrt(sum(abs(z) ** 2 for z in w.value))
        for w in rep.witnesses
        if w.label.startswith("eigenvalue outside")
    ]
    assert norms and all(abs(n - mu) <= 1e-8 for n in norms)


def test_audit_thm_3_1_golden_conclusion_true_corollary_false():
    t = make_tuple([golden_ratio_matrix(), np.zeros((2, 2), dtype=complex)])
    rep = audit_theorem_3_1(t, 2, (1, 0))
    assert not rep.hypotheses_hold  # not reducing
    sphere_sub, radius_sub = rep.sub_verdicts
    assert sphere_sub.conclusion_holds  # both eigenvalues lie in [0]
    assert not radius_sub.conclusion_holds  # r(T) = a != 1
    assert rep.norms["spectral_radius"] == pytest.approx(GOLDEN_A, abs=1e-8)
    assert rep.conclusion_holds  # vacuous either way


def test_audit_prop_3_2_unitary_scaled():
    rep = audit_proposition_3_2(unitary_scaled(2, dim=5, seed=3), 1, (1, 1))
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.sub_verdicts[1].details["pairs_checked"] > 0


def test_audit_prop_3_2_diagonal_orthogonality():
    d1 = np.diag([1.0 / math.sqrt(2), 0.0, 0.5])
    d2 = np.diag([1.0 / math.sqrt(2), 1.0, 0.0])
    t = make_tuple([d1, d2])
    rep = audit_proposition_3_2(t, 1, (1, 1))
    assert rep.sub_verdicts[1].conclusion_holds


def test_audit_prop_3_2_records_when_hypotheses_fail():
    t = make_tuple([2.0 * np.eye(2), 3.0 * np.eye(2)])
    rep = audit_proposition_3_2(t, 1, (1, 1))
    assert not rep.hypotheses_hold
    assert all(sv.vacuous for sv in rep.sub_verdicts)
    assert rep.conclusion_holds


def test_joint_spectrum_result_bundle():
    t = paper_example("2.2").tuple
    result = joint_spectrum(t, seed=5)
    assert result.spectral_radius == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert len(result.taylor_diagonal) == 3
    assert len(result.point_spectrum) == 3
    doc = result.to_dict()
    assert doc["seed"] == 5
    assert len(doc["point_spectrum"]) == 3


@pytest.mark.parametrize("name", ["example_2_2", "golden_ratio", "non_normal_d3"])
def test_one_triangularization_matches_standalone_calls(name):
    t = {
        "example_2_2": lambda: paper_example("2.2").tuple,
        "golden_ratio": lambda: parse_tuple_file((DATA / "golden_ratio_d2.json").read_text()).tuple,
        "non_normal_d3": lambda: diagonal_conjugate(np.random.default_rng(4), 6, 3, False, False),
    }[name]()
    seed = 7
    result = joint_spectrum(t, DEFAULT_TOL, seed)
    _, lams, xs, _ = _points(t, simultaneous_triangularize(t, seed), DEFAULT_TOL)
    assert [lam for lam, _ in result.point_spectrum] == list(map(tuple, lams.tolist()))
    assert [x for _, x in result.point_spectrum] == list(map(tuple, xs.T.tolist()))
    diagonal = diagonal_of(simultaneous_triangularize(t, seed)[1])
    assert list(result.taylor_diagonal) == list(map(tuple, diagonal.tolist()))
    assert result.spectral_radius == max(math.hypot(*map(abs, lam)) for lam in result.taylor_diagonal)
    report = audit_theorem_3_1(t, 1, (1,) * t.d)
    assert report.norms["spectral_radius"] == joint_spectrum(t).spectral_radius
    assert report.sub_verdicts[0].details["points_checked"] == len(joint_spectrum(t).point_spectrum)


def test_greedy_clustering_first_kept_wins():
    tol = CLUSTER_TOL
    # 0.6 tol is near both neighbours, 0 and 1.2 tol are not near each other:
    # the relation is not transitive, and the earlier point decides.
    assert _first_kept([(0.0,), (0.6 * tol,), (1.2 * tol,)], 1, tol) == [0, 2]
    assert _first_kept([(0.6 * tol,), (0.0,), (1.2 * tol,)], 1, tol) == [0]
    assert _first_kept([(0.0,), (tol,)], 1, tol) == [0]  # exactly tol merges
    assert _first_kept([(0.0, 0.0), (0.0, 1.2 * tol)], 2, tol) == [0, 1]
    assert _first_kept([], 2, tol) == []
    t = make_tuple([np.diag([1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol])])
    assert points_of(t) == [(1.0,), (1.0 + 1.2 * tol,)]


def test_refined_dedup_follows_the_same_rule(monkeypatch):
    # Next to the eigenvalue 1e6 the rank cutoff (~4e-7) exceeds 2 tol, so the
    # candidate 2 tol is confirmed by e_0, refines to 0 and merges into the
    # first point; the candidate pass alone kept all three apart. The candidates
    # are the diagonal of a made-up triangular factor, decided by the stacked SVD.
    tol = CLUSTER_TOL
    t = make_tuple([np.diag([0.0, 1e6])])
    candidates = [0.0, 2 * tol, 1e6]
    assert _first_kept([(c,) for c in candidates], 1, tol) == [0, 1, 2]
    certify_nothing(monkeypatch)
    _, lams, x, _ = _points(t, (None, [np.diag(candidates)]), DEFAULT_TOL)
    assert lams.tolist() == [[0.0], [1e6]]
    assert abs(x[0, 0]) == pytest.approx(1.0)


# ---- the stacked-SVD reference route ---------------------------------------


def stack_floor(t):
    """max_j ||T_j||_F / sqrt(n), the roundoff scale of a stack [T_1 - l_1; ...; T_d - l_d]:
    no rank cutoff of the stack is taken below it."""
    return max(frobenius_norm(m) for m in t) / math.sqrt(t.dim)


def stacked_svd_points(t, diag, tol=DEFAULT_TOL, cluster_tol=CLUSTER_TOL):
    """Every kept candidate decided by the null space of its stacked system
    [T_1 - l_1; ...; T_d - l_d], at ``stack_floor`` or above, as (refined lambda, witness,
    nullity)."""
    confirmed = []
    floor = stack_floor(t)
    for i in _first_kept(diag, t.d, cluster_tol):
        stacked = np.vstack([m - lj * np.eye(t.dim) for m, lj in zip(t, diag[i])])
        basis = null_space_basis(stacked, tol, floor)
        if basis.shape[1] == 0:
            continue
        x = basis[:, 0]
        confirmed.append((tuple(complex(np.vdot(x, m @ x)) for m in t), x, basis.shape[1]))
    return [confirmed[i] for i in _first_kept([lam for lam, _, _ in confirmed], t.d, cluster_tol)]


def stacked_residual_and_cutoff(t, lam, x):
    stacked = np.vstack([m - lj * np.eye(t.dim) for m, lj in zip(t, lam)])
    sigma_max = float(np.linalg.svd(stacked, compute_uv=False)[0])
    cutoff = DEFAULT_TOL.rank_cutoff(t.d * t.dim, max(sigma_max, stack_floor(t)))
    return float(np.linalg.norm(stacked @ x)), cutoff


@st.composite
def commuting_tuples(draw):
    """d <= 3, dim <= 8: conjugated diagonals (unitary or not), diagonals with
    repeated joint eigenvalues, or polynomials in a matrix with a Jordan block."""
    kind = draw(st.sampled_from(["normal", "non_normal", "repeated", "jordan"]))
    d, dim = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    v = random_unitary(dim, rng)
    if kind == "jordan":
        k = int(rng.integers(1, min(dim, 3) + 1))
        b = np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        b[:k, :k] = rng.standard_normal() * np.eye(k) + np.diag(np.ones(k - 1), 1)
        b = v @ b @ v.conj().T
        coeffs = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        return make_tuple([c[0] * np.eye(dim) + c[1] * b + c[2] * b @ b for c in coeffs])
    values = rng.standard_normal((d, dim)) + 1j * rng.standard_normal((d, dim))
    if kind == "repeated":
        values = values[:, rng.integers(max(1, dim // 2), size=dim)]
    w, w_inv = v, v.conj().T
    if kind == "non_normal":
        w = v @ np.diag(np.exp(rng.uniform(-0.7, 0.7, dim))) @ random_unitary(dim, rng)
        w_inv = np.linalg.inv(w)
    return make_tuple([w @ np.diag(row) @ w_inv for row in values])


@settings(max_examples=80, deadline=None)
@given(commuting_tuples())
def test_schur_certificate_agrees_with_stacked_svd(t):
    diag, lams, xs, _ = _points(t, simultaneous_triangularize(t), DEFAULT_TOL)
    # spectra merges at CLUSTER_TOL in the units of T / 2^e, T's unit-scaled copy
    unit = math.ldexp(1.0, binary_exponent(np.stack(t.matrices)) - 1)
    reference = stacked_svd_points(t, diag, cluster_tol=CLUSTER_TOL * unit)
    assert len(lams) == len(reference)
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    for lam, x, (lam_ref, x_ref, nullity) in zip(lams, xs.T, reference):
        assert max(abs(a - b) for a, b in zip(lam, lam_ref)) <= 1e-12 * scale
        if nullity == 1:
            assert abs(np.vdot(x, x_ref)) >= 1.0 - 1e-12
        else:
            residual, cutoff = stacked_residual_and_cutoff(t, lam, x)
            assert residual <= cutoff


def named_tuple(name):
    if name == "example_2_2":
        return paper_example("2.2").tuple
    if name == "golden_ratio":
        return parse_tuple_file((DATA / "golden_ratio_d2.json").read_text()).tuple
    return diagonal_conjugate(np.random.default_rng(1), 32, 4, True, True)


def counting_null_spaces(monkeypatch):
    """Patch spectra's stacked-SVD route; returns the list of nullities it decided."""
    nullities = []

    def counted(a, tol=DEFAULT_TOL, scale=0.0):
        basis = null_space_basis(a, tol, scale)
        nullities.append(basis.shape[1])
        return basis

    monkeypatch.setattr(spectra, "null_space_basis", counted)
    return nullities


@pytest.mark.parametrize("name", ["example_2_2", "golden_ratio", "pi_diagonal_32_4"])
def test_certificate_confirms_without_a_stacked_svd(monkeypatch, name):
    t = named_tuple(name)
    nullities = counting_null_spaces(monkeypatch)
    result = joint_spectrum(t)
    assert nullities == []
    assert result.point_spectrum


WITNESS_FAMILIES = {
    "pi_diagonal": lambda dim, d, seed: diagonal_conjugate(np.random.default_rng(seed), dim, d, True, True),
    "non_normal": lambda dim, d, seed: diagonal_conjugate(np.random.default_rng(seed), dim, d, False, False),
}


def assert_witnesses_match_back_substitution(t):
    q, us = factors = simultaneous_triangularize(t)
    diag = diagonal_of(us)
    kept = _first_kept(diag, t.d, CLUSTER_TOL)
    x, _, _ = _schur_witnesses(t, factors, diag, kept, DEFAULT_TOL)
    reference = back_substituted_witnesses(q, us, _certificate_weights(t.d), kept)
    assert np.abs(_fixed_phase(x) - _fixed_phase(reference)).max() <= 1e-12


@pytest.mark.parametrize("family", sorted(WITNESS_FAMILIES))
@pytest.mark.parametrize("dim", [2, 5, 16, 32])
def test_lapack_witnesses_match_back_substitution(family, dim):
    for d, seed in [(1, 0), (2, 1), (4, 2)]:
        assert_witnesses_match_back_substitution(WITNESS_FAMILIES[family](dim, d, seed))


@pytest.mark.parametrize("example", ["2.2", "3.golden(1)", "3.golden(3)"])
def test_lapack_witnesses_match_back_substitution_on_paper_examples(example):
    assert_witnesses_match_back_substitution(paper_example(example).tuple)


@pytest.mark.parametrize("family", sorted(WITNESS_FAMILIES))
def test_residuals_match_the_per_point_loop(family):
    for dim, d in [(3, 1), (8, 2), (32, 4)]:
        t = WITNESS_FAMILIES[family](dim, d, dim)
        result = joint_spectrum(t)
        scale = max(frobenius_norm(m) for m in t)
        for (lam, x), res in zip(result.point_spectrum, result.residuals):
            x = np.asarray(x)
            loop = max(np.linalg.norm(m @ x - lj * x) for m, lj in zip(t, lam))
            assert abs(res - loop) <= 1e-15 * scale


def test_witness_guards_leave_every_candidate_to_the_stacked_svd(monkeypatch):
    t = named_tuple("example_2_2")
    q, us = factors = simultaneous_triangularize(t)
    diag = diagonal_of(us)
    kept = _first_kept(diag, t.d, CLUSTER_TOL)
    with monkeypatch.context() as patch:
        certify_nothing(patch)
        reference = _points(t, factors, DEFAULT_TOL)[1]
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: tuple(v[..., ::-1] for v in eig(a)))
    nullities = counting_null_spaces(monkeypatch)
    lams = _points(t, factors, DEFAULT_TOL)[1]
    assert len(nullities) == len(kept)
    assert lams.tolist() == reference.tolist()


def test_certificate_confirms_combination_collision(monkeypatch):
    # (g_2, -g_1) and (0, 0) are distinct joint eigenvalues that the fixed
    # combination sum_j g_j l_j maps to the same value. The triangular
    # eigenvector routine replaces the zero pivot by its small-pivot floor and
    # divides a zero coupling by it, so the witness of (g_2, -g_1) is e_2, exactly.
    # The pair is normal, so its Schur basis orders the points by the real parts
    # of the drawn combination's eigenvalues: the point set is compared, not the order.
    g = _certificate_weights(2)
    t = make_tuple([np.diag([0.0, g[1], 1.0]), np.diag([0.0, -g[0], 1.0])])
    nullities = counting_null_spaces(monkeypatch)
    points = dict(joint_spectrum(t).point_spectrum)
    assert nullities == []
    assert set(points) == {(0j, 0j), (complex(g[1]), complex(-g[0])), (1 + 0j, 1 + 0j)}
    assert np.array_equal(points[(complex(g[1]), complex(-g[0]))], [0, 1, 0])


def test_certificate_fallback_confirms_non_normal_combination_collision(monkeypatch):
    # The same collision through a non-normal similarity S: the second
    # eigenvector S e_2 leans on e_1 by a coupling the combination cancels, so no
    # back-substitution in it can find that vector. The certificate fails and
    # the stacked SVD confirms the point.
    g = _certificate_weights(2)
    s = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    t = make_tuple([s @ np.diag(lam) @ np.linalg.inv(s) for lam in ([0.0, g[1], 1.0], [0.0, -g[0], 1.0])])
    nullities = counting_null_spaces(monkeypatch)
    points = joint_spectrum(t).point_spectrum
    assert nullities == [1]
    expected = [(0, 0), (g[1], -g[0]), (1, 1)]
    assert len(points) == 3
    for (lam, _), lam_ref in zip(points, expected):
        assert max(abs(a - b) for a, b in zip(lam, lam_ref)) <= 1e-14
    assert abs(np.vdot(points[1][1], [1.0, 1.0, 0.0])) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_certificate_fallback_rejects_near_commuting_candidates(monkeypatch):
    # The commutator ~4e-11 passes the commutativity gate, but no vector is a
    # joint eigenvector: both candidates leave a stacked residual ~2e-11, above
    # the rank cutoff ~1e-12, so the certificate fails and the SVD rejects them.
    eps = 3e-11
    t = make_tuple([np.diag([1.0, 2.0]), np.array([[0.0, eps], [eps, 1.0]])])
    nullities = counting_null_spaces(monkeypatch)
    assert joint_spectrum(t).point_spectrum == ()
    assert nullities == [0, 0]
    assert len(joint_spectrum(t).taylor_diagonal) == 2


def witnesses_by_lambda(points):
    return sorted(points, key=lambda p: tuple((round(z.real, 6), round(z.imag, 6)) for z in p[0]))


@pytest.mark.parametrize("name", ["example_2_2", "golden_ratio"])
def test_witnesses_of_simple_eigenvalues_are_fixed(name):
    t = named_tuple(name)
    reference = witnesses_by_lambda(joint_spectrum(t, seed=0).point_spectrum)
    v = random_unitary(t.dim, np.random.default_rng(17))
    moved = conjugate_by_unitary(t, v)
    runs = [joint_spectrum(t, seed=seed).point_spectrum for seed in range(1, 4)]
    for seed in range(4):
        runs.append([(lam, _fixed_phase(v @ x)) for lam, x in joint_spectrum(moved, seed=seed).point_spectrum])
    for points in runs:
        points = witnesses_by_lambda(points)
        assert len(points) == len(reference)
        for (lam, x), (lam_ref, x_ref) in zip(points, reference):
            assert max(abs(a - b) for a, b in zip(lam, lam_ref)) <= 1e-12
            assert np.linalg.norm(np.asarray(x) - x_ref) <= 1e-12


@st.composite
def schur_tuples(draw):
    """d <= 3, dim <= 12, and whether the joint eigenvalues are well separated:
    non-normal (separated), repeated, clustered 1e-6 apart, or polynomials in a
    unitarily similar Jordan block of any size."""
    kind = draw(st.sampled_from(["separated", "repeated", "clustered", "jordan"]))
    d, dim = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    v = random_unitary(dim, rng)
    if kind == "jordan":
        k = int(rng.integers(1, dim + 1))
        b = np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        b[:k, :k] = rng.standard_normal() * np.eye(k) + np.diag(np.ones(k - 1), 1)
        b = v @ b @ v.conj().T
        coeffs = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        return make_tuple([c[0] * np.eye(dim) + c[1] * b + c[2] * b @ b for c in coeffs]), False
    # Each component's eigenvalues at least 0.5 apart, in a random order.
    values = (np.arange(dim) + rng.uniform(0, 0.5, (d, dim))) * np.exp(2j * np.pi * rng.uniform(size=(d, 1)))
    values = np.array([rng.permutation(row) for row in values])
    if kind == "repeated":
        values = values[:, rng.integers(max(1, dim // 2), size=dim)]
    elif kind == "clustered":
        values = values[:, np.arange(dim) // 2] + 1e-6 * (np.arange(dim) % 2)
    w = v @ np.diag(np.exp(rng.uniform(-0.7, 0.7, dim))) @ random_unitary(dim, rng)
    return make_tuple([w @ np.diag(row) @ np.linalg.inv(w) for row in values]), kind == "separated"


@settings(max_examples=80, deadline=None)
@given(schur_tuples())
def test_numpy_schur_form_meets_the_triangularization_contract(case):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    t, separated = case
    q, us = simultaneous_triangularize(t)
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    assert frobenius_norm(q.conj().T @ q - np.eye(t.dim)) <= 1e-10
    assert max(np.linalg.norm(np.tril(u, -1)) for u in us) <= TRIANGULAR_MASS * scale
    for m in t:
        try:
            q, u = unitary_triangularize(m)
        except NumericalFailureError:
            assert not separated  # only a defective or ill-conditioned eigenbasis may fail
            continue
        assert np.array_equal(u, np.triu(u))
        assert frobenius_norm(m - q @ u @ q.conj().T) <= 1e-8 * max(1.0, frobenius_norm(m))
        assert frobenius_norm(q.conj().T @ q - np.eye(t.dim)) <= 1e-10
        if separated:
            reference = list(np.diag(scipy_linalg.schur(m, output="complex")[0]))
            for z in np.diag(u):  # multiset match: the values are 0.5 apart
                k = int(np.argmin([abs(z - r) for r in reference]))
                assert abs(z - reference.pop(k)) <= 1e-10 * scale


def counting_triangularizations(monkeypatch):
    """Count eig + QR attempts and entries into the deflation fallback."""
    counts = {"eig_qr": 0, "deflation": 0}
    eig_qr, deflation = spectra.unitary_triangularize, spectra._deflation_triangularize

    def counted_eig_qr(a):
        counts["eig_qr"] += 1
        return eig_qr(a)

    def counted_deflation(mats, tol):
        counts["deflation"] += 1
        return deflation(mats, tol)

    monkeypatch.setattr(spectra, "unitary_triangularize", counted_eig_qr)
    monkeypatch.setattr(spectra, "_deflation_triangularize", counted_deflation)
    return counts


def jordan_tuple(dim, d, similarity):
    """Polynomials in (1/2) I + N, N the nilpotent shift, moved by ``similarity``."""
    b = 0.5 * np.eye(dim) + np.diag(np.ones(dim - 1), 1)
    mats = [b, 0.3j * np.eye(dim) + 2.0 * b + b @ b][:d]
    return make_tuple([similarity @ m @ np.linalg.inv(similarity) for m in mats])


@pytest.mark.parametrize(
    "dim, d, unitary",
    [(8, 1, False), (64, 1, True), (64, 2, True)],
    ids=["similar-8", "unitary-64-d1", "unitary-64-d2"],
)
def test_defective_combination_goes_straight_to_deflation(monkeypatch, dim, d, unitary):
    # A defective combination has no spanning eigenvectors, so eig + QR breaks
    # its contract; every other combination is defective too, so none is drawn.
    rng = np.random.default_rng(0)
    similarity = random_unitary(dim, rng) if unitary else rng.standard_normal((dim, dim))
    t = jordan_tuple(dim, d, similarity)
    counts = counting_triangularizations(monkeypatch)
    _, us = simultaneous_triangularize(t)
    assert counts["eig_qr"] == 1 and counts["deflation"] >= 1
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    assert max(np.linalg.norm(np.tril(u, -1)) for u in us) <= TRIANGULAR_MASS * scale
    assert joint_spectrum(t).point_spectrum


def test_deflation_starts_from_the_combination(monkeypatch):
    # T_1 = 0.01 N + N^2 is flat along the Jordan chain of N: its pseudo-
    # eigenvectors are poor ones for T_2 = N, so deflating T_1 first leaves
    # below-diagonal mass ~1 in U_2; the random combination has no such flatness.
    v = random_unitary(8, np.random.default_rng(1))
    n = np.diag(np.ones(7), 1)
    t = make_tuple([v @ m @ v.conj().T for m in (0.01 * n + n @ n, n)])
    counts = counting_triangularizations(monkeypatch)
    _, us = simultaneous_triangularize(t)
    assert counts["eig_qr"] == 1
    assert max(np.linalg.norm(np.tril(u, -1)) for u in us) <= TRIANGULAR_MASS


def colliding_pair(monkeypatch):
    """A normal commuting pair whose two Schur routes are patched to factor T_1 in place
    of the drawn combination C: np.linalg.eigh gets T_1 + T_1* for C + C*, and eig + QR
    gets T_1. T_1's double eigenvalue leaves T_2 untriangular in both bases, as a
    collision of C's eigenvalues would. Returns (t, its scale, the eigh calls)."""
    v = random_unitary(3, np.random.default_rng(2))
    t = make_tuple([v @ np.diag(lam) @ adjoint(v) for lam in ([1.0, 1.0, 2.0], [3.0, 4.0, 5.0])])
    eigh, hermitian, eigh_calls = np.linalg.eigh, t.matrices[0] + adjoint(t.matrices[0]), []

    def collided_eigh(a):
        eigh_calls.append(a)
        return eigh(hermitian)

    monkeypatch.setattr(np.linalg, "eigh", collided_eigh)
    monkeypatch.setattr(spectra, "unitary_triangularize", lambda a: unitary_triangularize(t.matrices[0]))
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    for q in (eigh(hermitian)[1], unitary_triangularize(t.matrices[0])[0]):
        assert np.linalg.norm(np.tril(adjoint(q) @ t.matrices[1] @ q, -1)) > TRIANGULAR_MASS * scale
    return t, scale, eigh_calls


def test_collision_deflates_the_drawn_combination(monkeypatch):
    # Schur forms that meet their contracts but leave a component untriangular
    # hand over to deflation at once; no second combination is drawn.
    t, scale, eigh_calls = colliding_pair(monkeypatch)
    counts = counting_triangularizations(monkeypatch)
    sizes, deflation = [], spectra._deflation_triangularize

    def sized(mats, tol):
        sizes.append(mats[0].shape[0])
        return deflation(mats, tol)

    monkeypatch.setattr(spectra, "_deflation_triangularize", sized)
    _, us = simultaneous_triangularize(t)
    assert len(eigh_calls) == 1 and counts["eig_qr"] == 1
    assert sizes == [3, 2, 1]  # one deflation, one common eigenvector per level
    assert max(np.linalg.norm(np.tril(u, -1)) for u in us) <= TRIANGULAR_MASS * scale


@pytest.mark.parametrize("schur", ["collision", "defective"])
def test_triangularization_failure_reports_both_masses(monkeypatch, schur):
    # With deflation failing as well, the diagnostics hold the Schur form's mass
    # (None when eig + QR itself failed), deflation's mass and the scale.
    if schur == "collision":
        t, _, _ = colliding_pair(monkeypatch)
    else:
        t = jordan_tuple(8, 1, np.random.default_rng(0).standard_normal((8, 8)))
    monkeypatch.setattr(spectra, "_deflation_triangularize", lambda mats, tol: np.eye(t.dim))
    with pytest.raises(NumericalFailureError) as info:
        simultaneous_triangularize(t)
    diagnostics = info.value.diagnostics
    assert sorted(diagnostics) == ["deflation_mass", "scale", "schur_mass"]
    if schur == "collision":
        assert isinstance(diagnostics["schur_mass"], float)
        assert diagnostics["schur_mass"] > TRIANGULAR_MASS * diagnostics["scale"]
    else:
        assert diagnostics["schur_mass"] is None
    assert diagnostics["deflation_mass"] > TRIANGULAR_MASS * diagnostics["scale"]


def loop_pair_witnesses(points):
    """The pair loop of prop3.2, one pair at a time: the batched audit's reference."""
    witnesses, checked = [], 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            (lam, x), (mu, y) = points[i], points[j]
            if abs(1.0 - sum(a * b.conjugate() for a, b in zip(lam, mu))) < SEPARATION:
                continue
            checked += 1
            if abs(np.vdot(x, y)) > ORTHO_TOL:
                witnesses += [("non-orthogonal witness pair (lambda)", lam), ("non-orthogonal witness pair (mu)", mu)]
    return witnesses, checked


@pytest.mark.parametrize("family", ["example_2_1_d2", "polynomial_family", "diagonal_conjugate"])
def test_prop_3_2_pairs_match_the_pair_loop(family):
    # non-orthogonal pairs on the first two, orthogonal ones on the normal third
    rng = np.random.default_rng(3)
    t = {
        "example_2_1_d2": lambda: parse_tuple_file((DATA / "example_2_1_d2.json").read_text()).tuple,
        "polynomial_family": lambda: polynomial_family(rng, 5, 2, 3),
        "diagonal_conjugate": lambda: diagonal_conjugate(rng, 5, 2, True, False),
    }[family]()
    report = audit_proposition_3_2(t, 1, (1, 1))
    expected, checked = loop_pair_witnesses(joint_spectrum(t).point_spectrum)
    pairs = [(w.label, w.value) for w in report.witnesses if w.label.startswith("non-orthogonal")]
    assert pairs == expected
    assert report.sub_verdicts[1].details["pairs_checked"] == checked
    assert report.sub_verdicts[1].conclusion_holds == (expected == [])


# ---- clustering: one vectorized pass against the greedy loop ---------------


def greedy_first_kept(points, d, tol):
    """The greedy rule one pair at a time: the vectorized clustering's reference."""
    kept = []
    for i, row in enumerate(_linf_distances(points, points, d).tolist()):
        if not any(row[k] <= tol for k in kept):
            kept.append(i)
    return kept


NON_FINITE = [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(0.0, math.inf)]


@st.composite
def clustered_points(draw):
    """d <= 4, up to 64 rows on an integer grid in units of tol: fresh rows, and
    copies of an earlier row moved 0.6 tol (chains), by nothing (duplicates),
    by exactly tol (ties, exact when tol is 1) or to a non-finite entry."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(0, 64))
    tol = draw(st.sampled_from([1.0, CLUSTER_TOL]))
    grid = st.integers(-2, 2)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "chain", "duplicate", "tie", "non_finite"]))
        if kind == "fresh" or not rows:
            rows.append([complex(draw(grid), draw(grid)) * tol for _ in range(d)])
            continue
        row = list(rows[draw(st.integers(0, len(rows) - 1))])
        k = draw(st.integers(0, d - 1))
        if kind == "chain":
            row[k] += 0.6 * tol
        elif kind == "tie":
            row[k] += tol
        elif kind == "non_finite":
            row[k] = draw(st.sampled_from(NON_FINITE))
        rows.append(row)
    return rows, d, tol


@settings(max_examples=150, deadline=None)
@given(clustered_points())
def test_first_kept_matches_the_greedy_loop(case):
    points, d, tol = case
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance, which never merges
        assert _first_kept(points, d, tol) == greedy_first_kept(points, d, tol)


# ---- prop3.2: the adjoint's factors read off T's ---------------------------


def jordan_pair(seed, dim=6, eigenvalue=0.3):
    """(J, J^2 + 2J) for one Jordan block J, conjugated by the Q of a complex Gaussian."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    j = eigenvalue * np.eye(dim) + np.diag(np.ones(dim - 1), 1)
    return make_tuple([q @ m @ q.conj().T for m in (j, j @ j + 2 * j)])


def adjoint_case(name):
    if name == "jordan":
        return jordan_pair(0)
    if name == "unitary_scaled":
        return unitary_scaled(2, dim=5, seed=3)
    flags = {"normal": (True, False), "non_normal": (False, False), "pi_diagonal": (True, True)}
    if name in flags:
        return diagonal_conjugate(np.random.default_rng(2), 12, 3, *flags[name])
    return polynomial_family(np.random.default_rng(2), 12, 3, 3)


def below_diagonal_mass(u):
    return float(np.linalg.norm(np.tril(u, -1)))


@pytest.mark.parametrize("name", ["normal", "non_normal", "jordan"])
def test_reversed_factors_triangularize_the_adjoint(name):
    t = adjoint_case(name)
    q, us = simultaneous_triangularize(t)
    q_adj, us_adj = _adjoint_factors((q, us))
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    assert np.allclose(adjoint(q_adj) @ q_adj, np.eye(t.dim), rtol=0.0, atol=1e-13)
    for m, u, u_adj in zip(adjoint_tuple(t), us, us_adj):
        assert np.linalg.norm(adjoint(q_adj) @ m @ q_adj - u_adj) <= 1e-13 * scale
        assert below_diagonal_mass(u_adj) == pytest.approx(below_diagonal_mass(u), rel=1e-12, abs=0.0)
        assert below_diagonal_mass(u_adj) <= TRIANGULAR_MASS * scale


@pytest.mark.parametrize("name", ["normal", "non_normal", "jordan"])
def test_prop_3_2_triangularizes_once(monkeypatch, name):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simultaneous_triangularize(*args, **kwargs)

    t = adjoint_case(name)
    monkeypatch.setattr(spectra, "simultaneous_triangularize", counted)
    point_sets = counting(monkeypatch, "_points")
    audit_proposition_3_2(t, 1, (1,) * t.d)
    assert calls == [t]
    # T's witnesses certify every conjugate on a normal T*; otherwise T*'s points
    # are computed too, from T's factors.
    assert len(point_sets) == (1 if name == "normal" else 2)


def two_schur_conjugate_witnesses(t):
    """prop3.2's first sub-verdict from a second, independent triangularization of
    T*: the shared-basis route's reference on non-defective tuples."""
    adj_points = [mu for mu, _ in joint_spectrum(adjoint_tuple(t)).point_spectrum]
    off_zero = [lam for lam, _ in joint_spectrum(t).point_spectrum if not zero_variety_member(lam)]
    found = _near_spectrum(np.conj(np.reshape(off_zero, (-1, t.d))), np.reshape(adj_points, (-1, t.d)), t.d)
    missing = [("conjugate missing from adjoint spectrum", lam) for lam, hit in zip(off_zero, found) if not hit]
    return all(found), len(off_zero), missing


@pytest.mark.parametrize("name", ["unitary_scaled", "normal", "non_normal", "pi_diagonal", "polynomial"])
def test_prop_3_2_matches_the_two_schur_route(name):
    t = adjoint_case(name)
    report = audit_proposition_3_2(t, 1, (1,) * t.d)
    holds, checked, missing = two_schur_conjugate_witnesses(t)
    pairs, pairs_checked = loop_pair_witnesses(joint_spectrum(t).point_spectrum)
    conj_sub, ortho_sub = report.sub_verdicts
    assert (conj_sub.conclusion_holds, conj_sub.details["eigenvalues_checked"]) == (holds, checked)
    assert ortho_sub.details["pairs_checked"] == pairs_checked
    assert [(w.label, w.value) for w in report.witnesses] == missing + pairs


@pytest.mark.parametrize("seed", range(15))
def test_prop_3_2_defective_conjugates_share_one_schur_basis(seed):
    # Two independent Schur forms smear the defective eigenvalue 0.3 into
    # different clusters, so the two-Schur route finds conjugates "missing";
    # T*'s factors read off T's keep every conjugate. The orthogonality
    # sub-verdict still sees the smeared cluster as distinct points.
    t = jordan_pair(seed)
    report = audit_proposition_3_2(t, 1, (1, 1))
    conj_sub, ortho_sub = report.sub_verdicts
    assert not two_schur_conjugate_witnesses(t)[0]
    assert conj_sub.conclusion_holds
    assert not any(w.label.startswith("conjugate") for w in report.witnesses)
    assert not ortho_sub.conclusion_holds
    assert not report.hypotheses_hold and report.conclusion_holds


# Mapped (thm4.1, thm4.2) and conjugate (prop3.2) points are first certified with the
# source point's own witness; the partner's spectrum is computed only when that fails.


def near_only(t, points, xs, own_points, tol):
    """The route before witness certificates: t's whole point spectrum, then ``_near_spectrum``
    alone. Patched over ``spectra._in_point_spectrum``, it is the reference the audits match."""
    return _near_spectrum(points, own_points()[1], t.d)


def shifted_inverse_pair(seed, dim, d):
    """T = W diag W^-1 + 12 I and S_j = T_j^-1 / d: a left (and right) 1-inverse pair."""
    base = diagonal_conjugate(np.random.default_rng(seed), dim, d, False, False)
    t = make_tuple([m + 12.0 * np.eye(dim) for m in base])
    return make_tuple([np.linalg.inv(m) / d for m in t]), t


def unipotent_pair(n, seed, conjugated):
    """T = (I + a_j N), S = ((I + c_j N) / 2) with N the order-n nilpotent Jordan block:
    beta_n(S, T) = 0. Conjugated by one random unitary, the eigenvalue 1 smears."""
    rng = np.random.default_rng(seed)
    nil, eye = np.eye(n, k=1), np.eye(n)
    coeffs = rng.standard_normal((4, 2)) @ np.array([1.0, 1j])
    s, t = make_tuple([(eye + c * nil) / 2 for c in coeffs[2:]]), make_tuple([eye + c * nil for c in coeffs[:2]])
    if conjugated:
        v = random_unitary(n, rng)
        s, t = conjugate_by_unitary(s, v), conjugate_by_unitary(t, v)
    return s, t


def mapping_family(name):
    """The audit calls of one family, as zero-argument callables."""
    if name == "inverse_pairs":
        pairs = [shifted_inverse_pair(seed, dim, d) for seed in (1, 2) for dim, d in ((8, 2), (16, 3))]
        return [partial(a, s, t, 1) for s, t in pairs for a in (audit_theorem_4_1, audit_theorem_4_2)]
    if name == "pi_diagonal":
        tuples = [
            diagonal_conjugate(np.random.default_rng(seed), dim, d, True, True)
            for seed in (1, 2)
            for dim, d in ((8, 2), (16, 3))
        ]
        return [partial(audit_proposition_3_2, t, 1, (1,) * t.d) for t in tuples]
    if name == "claims":
        claims = [cli.CLAIMS[c] for c in ("thm4.1", "thm4.2", "prop3.2")]
        return [partial(c.audit, *c.random_instance(seed, trial), DEFAULT_TOL, seed)
                for c in claims for seed in range(3) for trial in range(4)]
    if name == "unipotent":
        calls = []
        for n, seed, conjugated in itertools.product((2, 3, 4, 6), (0, 1), (False, True)):
            s, t = unipotent_pair(n, seed, conjugated)
            calls += [partial(audit_theorem_4_1, s, t, n), partial(audit_theorem_4_2, t, s, n),
                      partial(audit_proposition_3_2, t, 1, (1, 1))]
        return calls
    j = 0.3 * np.eye(6) + np.eye(6, k=1)
    pairs = [make_tuple([j, j @ j + 2 * j]), jordan_pair(0), jordan_pair(1)]
    return [partial(a, t, t, 1) for t in pairs for a in (audit_theorem_4_1, audit_theorem_4_2)] + [
        partial(audit_proposition_3_2, t, 1, (1, 1)) for t in pairs
    ]


def dumped(calls):
    return [json.dumps(report_to_dict(call()), sort_keys=True) for call in calls]


@pytest.mark.parametrize("family", ["inverse_pairs", "pi_diagonal", "claims", "unipotent", "jordan"])
def test_witness_certificates_leave_every_report_as_the_partner_spectrum_gives_it(monkeypatch, family):
    calls = mapping_family(family)
    reports = dumped(calls)
    monkeypatch.setattr(spectra, "_in_point_spectrum", near_only)
    assert reports == dumped(calls)


def counting(monkeypatch, name):
    """Patch spectra.<name> to count its calls; returns the list it appends to."""
    calls, original = [], getattr(spectra, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectra, name, counted)
    return calls


@pytest.mark.parametrize("audit", [audit_theorem_4_1, audit_theorem_4_2])
def test_mapping_audit_on_an_inverse_pair_triangularizes_once(monkeypatch, audit):
    s, t = shifted_inverse_pair(3, 12, 3)
    triangularizations = counting(monkeypatch, "simultaneous_triangularize")
    point_sets = counting(monkeypatch, "_points")
    report = audit(s, t, 1)
    assert report.hypotheses_hold and report.conclusion_holds
    assert len(triangularizations) == 1
    assert len(point_sets) == 1


@pytest.mark.parametrize("name", ["joint_spectrum", "thm3.1"])
def test_spectrum_and_thm_3_1_triangularize_and_confirm_once(monkeypatch, name):
    t = adjoint_case("normal")
    call = {
        "joint_spectrum": partial(joint_spectrum, t),
        "thm3.1": partial(audit_theorem_3_1, t, 1, (1,) * t.d),
    }[name]
    triangularizations = counting(monkeypatch, "simultaneous_triangularize")
    point_sets = counting(monkeypatch, "_points")
    nullities = counting_null_spaces(monkeypatch)
    call()
    assert len(triangularizations) == 1
    assert len(point_sets) == 1
    assert nullities == []  # every point certified in the Schur basis


@pytest.mark.parametrize("name", ["normal", "pi_diagonal", "unitary_scaled"])
def test_prop_3_2_on_a_normal_tuple_builds_no_adjoint_factors(monkeypatch, name):
    t = adjoint_case(name)
    adjoint_factors = counting(monkeypatch, "_adjoint_factors")
    assert audit_proposition_3_2(t, 1, (1,) * t.d).sub_verdicts[0].conclusion_holds
    assert adjoint_factors == []


def test_facts_hold_the_one_triangularization_at_their_seed():
    t = adjoint_case("non_normal")
    q = (1,) * t.d
    bases = []
    for seed in (0, 7):
        facts = Facts(t, q, DEFAULT_TOL, seed)
        held = facts.triangularization
        assert facts.triangularization is held
        reference = simultaneous_triangularize(t, seed)
        assert np.array_equal(held[0], reference[0])
        assert all(np.array_equal(u, r) for u, r in zip(held[1], reference[1], strict=True))
        assert facts.at((2,) + q[1:]).seed == seed
        bases.append(held[0])
    assert not np.array_equal(*bases)  # the seed reaches the triangularization


def scalar_counterexample():
    parsed = parse_tuple_file((DATA / "scalar_counterexample_thm4_1.json").read_text())
    return parse_partner(parsed, "left_inverse"), parsed.tuple


def diagonal_and_oblique_inverse():
    """T = diag(2, 3) and S = P diag(1/2, 1/3) P^-1, P not orthogonal: the images 1/2, 1/3 are
    in sigma_p(S), but T's witnesses e_1, e_2 are not S's eigenvectors."""
    p = np.array([[1.0, 1.0], [1.0, 2.0]])
    return make_tuple([p @ np.diag([0.5, 1.0 / 3.0]) @ np.linalg.inv(p)]), make_tuple([np.diag([2.0, 3.0])])


@pytest.mark.parametrize(
    "case, found",
    [
        (scalar_counterexample, False),
        (lambda: unipotent_pair(2, 0, True), True),
        (diagonal_and_oblique_inverse, True),
    ],
    ids=["scalar_counterexample", "unipotent_conjugated", "oblique_inverse"],
)
def test_mapping_audit_takes_the_partner_spectrum_when_a_witness_fails(monkeypatch, case, found):
    s, t = case()
    spectra_taken = counting(monkeypatch, "_points")
    mapped = audit_theorem_4_1(s, t, 1).sub_verdicts[2]
    assert mapped.name == "(2)/(3) eigenvalues map via 1/(d lambda_j)"
    assert mapped.conclusion_holds == found
    assert len(spectra_taken) == 2


# ---- the Hermitian route for a normal combination ---------------------------


@st.composite
def normal_tuples(draw):
    """d <= 3, dim <= 12: unitary conjugates of diagonals, some with repeated joint
    eigenvalues, some with zero components."""
    d, dim = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = rng.standard_normal((d, dim)) + 1j * rng.standard_normal((d, dim))
    if draw(st.booleans()):
        values = values[:, rng.integers(max(1, dim // 2), size=dim)]
    values[draw(st.lists(st.booleans(), min_size=d, max_size=d))] = 0.0
    v = random_unitary(dim, rng)
    return make_tuple([v @ np.diag(row) @ v.conj().T for row in values])


def assert_rows_match(a, b, atol):
    """Every row of ``a`` is within ``atol`` (L-inf) of its own row of ``b``: a multiset match."""
    assert len(a) == len(b)
    unused = list(range(len(b)))
    for row in np.asarray(a):
        gaps = _linf_distances(row, np.asarray(b)[unused], len(row))[0]
        k = int(np.argmin(gaps))
        assert gaps[k] <= atol, f"{row} not matched within {atol}"
        unused.pop(k)


@settings(max_examples=80, deadline=None)
@given(normal_tuples())
def test_normal_tuples_take_the_hermitian_route(t):
    with pytest.MonkeyPatch.context() as patch:
        counts = counting_triangularizations(patch)
        _, us = simultaneous_triangularize(t)
        result = joint_spectrum(t)
    assert counts == {"eig_qr": 0, "deflation": 0}
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    assert max(np.linalg.norm(np.tril(u, -1)) for u in us) <= TRIANGULAR_MASS * scale
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tuples, "_normal", lambda table, tol: False)
        reference = joint_spectrum(t)
    points = [lam for lam, _ in result.point_spectrum]
    reference_points = [lam for lam, _ in reference.point_spectrum]
    assert len(points) == len(reference_points)
    for lam in points:
        assert_point_in(lam, reference_points, tol=CLUSTER_TOL * max(1.0, max(map(abs, lam))))
    assert_rows_match(result.taylor_diagonal, reference.taylor_diagonal, 1e-12 * scale)
    assert result.spectral_radius == pytest.approx(reference.spectral_radius, abs=1e-12 * scale)


@st.composite
def similar_tuples(draw):
    """d <= 3, 2 <= dim <= 12: diagonals with distinct entries moved by a non-unitary similarity."""
    d, dim = draw(st.integers(1, 3)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = rng.standard_normal((d, dim)) + 1j * rng.standard_normal((d, dim))
    w = random_unitary(dim, rng) @ np.diag(np.exp(rng.uniform(-0.7, 0.7, dim))) @ random_unitary(dim, rng)
    return make_tuple([w @ np.diag(row) @ np.linalg.inv(w) for row in values])


@settings(max_examples=40, deadline=None)
@given(similar_tuples())
def test_non_normal_tuples_never_reach_the_hermitian_eigensolver(t):
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kw):
        calls.append(a)
        return eigh(a, *args, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", counted)
        assert joint_spectrum(t).point_spectrum
    assert calls == []


def is_normal(t):
    """The package's normality decision on T at the default tolerance."""
    return _normal(_commutator_table(t), DEFAULT_TOL)


@settings(max_examples=60, deadline=None)
@given(normal=st.booleans(), data=st.data(), k=st.integers(-600, 600), seed=st.integers(0, 2**32 - 1))
def test_normality_is_decided_per_component_and_keeps_its_verdict(normal, data, k, seed):
    # every T_j normal on normal_tuples(), not on similar_tuples(); the normal basis leaves each
    # component's below-diagonal mass within the rank cutoff; and the verdict is the same for
    # 2^k T, for V T V* and for the components in another order
    t = data.draw(normal_tuples() if normal else similar_tuples())
    assert is_normal(t) == normal
    if normal:
        q, _ = normal_basis(t)
        copy, _ = unit_copy(t)
        cutoff = DEFAULT_TOL.rank_cutoff(t.dim, max(frobenius_norm(m) for m in copy))
        assert max(frobenius_norm(np.tril(adjoint(q) @ m @ q, -1)) for m in copy) <= cutoff
    else:
        assert normal_basis(t) is None
    rng = np.random.default_rng(seed)
    moved = [
        make_tuple([math.ldexp(1.0, k) * m for m in t]),
        conjugate_by_unitary(t, random_unitary(t.dim, rng)),
        permute_tuple(t, rng.permutation(t.d)),
    ]
    assert [is_normal(m) for m in moved] == [normal] * 3


def test_a_component_far_below_the_largest_is_judged_at_its_own_scale(monkeypatch):
    # T_1 = 1e-100 N is not normal. On one copy of the whole tuple, scaled by 1e100 I's exponent,
    # [T_1, T_1*] squares below the float range and read as 0; at T_1's own exponent it is measured,
    # so the tuple takes the eig + QR route and keeps its one joint eigenvalue (1e100, 0)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = make_tuple([1e100 * np.eye(2), 1e-100 * nilpotent])
    assert not is_normal(t)
    assert normal_basis(t) is None
    counts = counting_triangularizations(monkeypatch)
    [(lam, _)] = joint_spectrum(t).point_spectrum
    assert counts == {"eig_qr": 1, "deflation": 0}
    assert lam == pytest.approx((1e100, 0.0), rel=1e-14, abs=1e-114)


# ---- near-scalar tuples keep their one point --------------------------------


@pytest.mark.parametrize("dim", [2, 8, 64])
@pytest.mark.parametrize("seed", range(5))
def test_a_conjugated_scalar_tuple_keeps_its_point(dim, seed):
    # V (0.6 I, 0.8i I) V* is the scalar tuple up to roundoff, so each stack T_j - l_j I is that
    # roundoff alone: a rank cutoff taken from the stack itself rejects the one point
    v = random_unitary(dim, np.random.default_rng(seed))
    t = make_tuple([v @ (lam * np.eye(dim)) @ adjoint(v) for lam in (0.6, 0.8j)])
    [point] = points_of(t)
    assert max(abs(a - b) for a, b in zip(point, (0.6, 0.8j))) <= 1e-14


@pytest.mark.parametrize("dim", [2, 8, 64])
@pytest.mark.parametrize("eps", [1e-16, 1e-14, 1e-12, 1e-10, 1e-8])
def test_a_scalar_tuple_plus_a_small_perturbation_keeps_one_point(dim, eps):
    # T = (l I + E, m I + 0.5i E), E random with ||E||_F ~ eps: its eigenvalues lie within ~eps
    # of (l, m), one cluster, confirmed as one point
    rng = np.random.default_rng(dim)
    e = eps / math.sqrt(2 * dim) * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    lam = (0.65 * np.exp(0.3j), -0.2 + 0.4j)
    t = make_tuple([lam[0] * np.eye(dim) + e, lam[1] * np.eye(dim) + 0.5j * e])
    [point] = points_of(t)
    assert max(abs(a - b) for a, b in zip(point, lam)) <= 4 * eps + 1e-14


def counting_products(monkeypatch):
    """Count the products T_j X that spectra forms, d per call of ``_images``."""
    products, images = [0], spectra._images

    def counted(t, x):
        products[0] += t.d
        return images(t, x)

    monkeypatch.setattr(spectra, "_images", counted)
    return products


def non_normal_collision():
    """The combination collision of the certificate, moved by the non-normal similarity
    S = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]: the certificate fails one point."""
    g = _certificate_weights(2)
    s = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return make_tuple([s @ np.diag(lam) @ np.linalg.inv(s) for lam in ([0.0, g[1], 1.0], [0.0, -g[0], 1.0])])


@pytest.mark.parametrize(
    "name, stacked_svds",
    [("example_2_2", 0), ("golden_ratio", 0), ("pi_diagonal_32_4", 0), ("non_normal_collision", 1)],
)
def test_points_and_residuals_come_off_the_certificate_products(monkeypatch, name, stacked_svds):
    # The certificate's products T_j X give the points and residuals; only a
    # stacked-SVD witness is multiplied again. Both agree with the Rayleigh
    # quotients and residuals of the phase-fixed witnesses to roundoff.
    t = non_normal_collision() if name == "non_normal_collision" else named_tuple(name)
    products = counting_products(monkeypatch)
    nullities = counting_null_spaces(monkeypatch)
    result = joint_spectrum(t)
    assert len(nullities) == stacked_svds
    assert products == [t.d * (1 + stacked_svds)]
    scale = max(1.0, max(frobenius_norm(m) for m in t))
    for (lam, x), residual in zip(result.point_spectrum, result.residuals):
        x = np.asarray(x)
        quotients = [np.vdot(x, m @ x) for m in t]
        assert max(abs(a - b) for a, b in zip(lam, quotients)) <= 1e-15 * scale
        loop = max(np.linalg.norm(m @ x - lj * x) for m, lj in zip(t, quotients))
        assert abs(residual - loop) <= 1e-15 * scale


# ---- spectra at any power-of-two scale ---------------------------------------


def scaled_pair(kind, e):
    """A 4x4 pair, normal (unitarily conjugated diagonals) or not (similar to them), times 2^e."""
    rng = np.random.default_rng(4)
    v = random_unitary(4, rng)
    values = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    w, w_inv = v, v.conj().T
    if kind == "non_normal":
        w = v @ np.diag(np.exp(rng.uniform(-0.7, 0.7, 4))) @ random_unitary(4, rng)
        w_inv = np.linalg.inv(w)
    mats = [w @ np.diag(row) @ w_inv for row in values]
    return make_tuple([np.ldexp(m.view(np.float64), e).view(np.complex128) for m in mats])


def assert_spectrum_scales(kind, e):
    # sigma(2^e T) = 2^e sigma(T) exactly: every eigen-solve sees the same unit-scaled
    # combination, so the witnesses are bit-identical and the points exact multiples.
    reference = joint_spectrum(scaled_pair(kind, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = joint_spectrum(scaled_pair(kind, e))
    assert len(result.point_spectrum) == len(reference.point_spectrum)
    assert math.ldexp(result.spectral_radius, -e) == pytest.approx(reference.spectral_radius, rel=1e-14)
    assert all(math.isfinite(r) and math.ldexp(r, -e) <= 1e-12 for r in result.residuals)
    (points, witnesses), (ref_points, ref_witnesses) = (
        [np.array(column, dtype=np.complex128) for column in zip(*r.point_spectrum)] for r in (result, reference)
    )
    np.testing.assert_array_equal(witnesses, ref_witnesses)
    np.testing.assert_array_equal(points, np.ldexp(ref_points.view(np.float64), e).view(np.complex128))


@pytest.mark.parametrize("kind", ["normal", "non_normal"])
@pytest.mark.parametrize("e", [0, 458, 470, 520, 600, 900])
def test_joint_spectrum_past_the_square_root_of_the_float_range(kind, e):
    # At 2^600 and 2^900 every squared entry overflows; the below-diagonal mass
    # and the residuals are taken without squaring an unscaled entry. From 2^459
    # up, zgeev would rescale a matrix by a factor that is not a power of two.
    assert_spectrum_scales(kind, e)


@pytest.mark.parametrize("kind", ["normal", "non_normal"])
@pytest.mark.parametrize("e", [500, 600, 900])
def test_certificate_settles_every_point_past_2_to_the_500(monkeypatch, kind, e):
    # The certificate's squared norms would overflow here, and zgeev would rescale
    # the triangular combination inexactly; both are taken at unit magnitude.
    reference = np.array([lam for lam, _ in joint_spectrum(scaled_pair(kind, 0)).point_spectrum])
    nullities = counting_null_spaces(monkeypatch)
    scaled = np.array([lam for lam, _ in joint_spectrum(scaled_pair(kind, e)).point_spectrum])
    assert nullities == []
    assert len(scaled) == len(reference) == 4
    points = np.ldexp(scaled.view(np.float64), -e).view(np.complex128)
    gaps = np.abs(points[:, None, :] - reference[None, :, :]).max(axis=2)
    assert (gaps.min(axis=0) <= 1e-12 * np.abs(reference).max()).all()
    assert sorted(gaps.argmin(axis=0)) == [0, 1, 2, 3]


@pytest.mark.parametrize("kind", ["normal", "non_normal"])
@pytest.mark.parametrize("e", [-530, -24])
def test_joint_spectrum_far_below_unit_scale(kind, e):
    # CLUSTER_TOL merges in the units of T's unit-scaled copy, so no two of the four points merge
    assert_spectrum_scales(kind, e)


def times_two_to(a, k):
    """2^k a, each real and imaginary part scaled exactly: a tuple, or one complex or real array."""
    if isinstance(a, OperatorTuple):
        return make_tuple([times_two_to(m, k) for m in a])
    a = np.asarray(a)
    return np.ldexp(a.view(np.float64), k).view(a.dtype)


SPECTRAL_INPUTS = {
    "normal": lambda: scaled_pair("normal", 0),
    "non_normal": lambda: scaled_pair("non_normal", 0),
    "jordan": lambda: jordan_pair(0),
    "unipotent": lambda: unipotent_pair(4, 0, True)[1],
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_INPUTS))
@pytest.mark.parametrize("k", [-24, -1, 1, 24, 600])
def test_spectral_layer_is_exactly_homogeneous(name, k):
    # Every decision is taken on one unit-scaled copy of T, and 2^k T has the same copy: it gets
    # T's Q and witnesses bit for bit, and factors, points and residuals exactly 2^k times T's.
    t = SPECTRAL_INPUTS[name]()
    (q, us), (q_k, us_k) = simultaneous_triangularize(t), simultaneous_triangularize(times_two_to(t, k))
    np.testing.assert_array_equal(q_k, q)
    np.testing.assert_array_equal(us_k, times_two_to(us, k))
    reference, result = joint_spectrum(t), joint_spectrum(times_two_to(t, k))
    (points, witnesses), (ref_points, ref_witnesses) = (
        [np.array(column) for column in zip(*r.point_spectrum)] for r in (result, reference)
    )
    np.testing.assert_array_equal(witnesses, ref_witnesses)
    np.testing.assert_array_equal(points, times_two_to(ref_points, k))
    np.testing.assert_array_equal(result.residuals, times_two_to(reference.residuals, k))
    np.testing.assert_array_equal(result.taylor_diagonal, times_two_to(reference.taylor_diagonal, k))
    assert result.spectral_radius == math.ldexp(reference.spectral_radius, k)


@pytest.mark.parametrize("name", sorted(SPECTRAL_INPUTS))
@pytest.mark.parametrize("k", [-24, -1, 1, 24])
def test_prop_3_2_conjugates_do_not_depend_on_the_scale(name, k):
    # At 2^600 the audit stops on its hypotheses, whose level sums overflow (exit 2); its
    # orthogonality check is tied to the unit sphere (SEPARATION) and is left out.
    t = SPECTRAL_INPUTS[name]()
    reference, result = (audit_proposition_3_2(a, 1, (1,) * t.d).sub_verdicts[0] for a in (t, times_two_to(t, k)))
    assert (result.conclusion_holds, result.details) == (reference.conclusion_holds, reference.details)


@pytest.mark.parametrize("pair", ["unipotent", "shifted"])
@pytest.mark.parametrize("k", [-24, -1, 1, 24, 600])
def test_mapped_eigenvalues_do_not_depend_on_the_scale(pair, k):
    # (2^-k S, 2^k T) has S's beta with T bit for bit, and 1/(d lambda_j) maps 2^k T's points
    # onto 2^-k S's: the "(2)/(3)" sub-verdict and its count stay as they are.
    s, t = unipotent_pair(4, 0, True) if pair == "unipotent" else shifted_inverse_pair(1, 8, 2)
    s_k, t_k = times_two_to(s, -k), times_two_to(t, k)
    assert beta(s_k, t_k, 4).norm == beta(s, t, 4).norm
    for audit, order in ((audit_theorem_4_1, slice(None)), (audit_theorem_4_2, slice(None, None, -1))):
        reference, result = (audit(*args[order], 4).sub_verdicts[2] for args in ((s, t), (s_k, t_k)))
        assert (result.conclusion_holds, result.details) == (reference.conclusion_holds, reference.details)


def test_images_past_the_partners_reach_are_missing():
    # In the units of S's copy (S / 2^-664) the images 1/lambda of T = diag(1e-9, 2) are 6e199
    # and 1.2e209, far past every ||S'_j||: no certificate is tried on them, whose squares overflow.
    s, t = make_tuple([np.diag([1e-200, 2e-200])]), make_tuple([np.diag([1e-9, 2.0])])
    report = audit_theorem_4_1(s, t, 1)
    assert not report.sub_verdicts[2].conclusion_holds
    assert report.sub_verdicts[2].details == {"eigenvalues_mapped": 2}


@pytest.mark.parametrize(
    "audit, order", [(audit_theorem_4_1, slice(None)), (audit_theorem_4_2, slice(None, None, -1))]
)
def test_images_past_the_float_range_of_the_partners_copy_are_missing(audit, order):
    # S's copy is S * 2^996, where the image 1e9 of T's point 1e-9 would be ~6.7e308: the reach
    # is decided in T's units, before any scaling, so both images are missing, not a failure
    s, t = make_tuple([np.diag([1e-300, 2e-300])]), make_tuple([np.diag([1e-9, 2.0])])
    report = audit(*(s, t)[order], 1)
    assert not report.sub_verdicts[2].conclusion_holds
    assert report.sub_verdicts[2].details == {"eigenvalues_mapped": 2}
    assert [w.label for w in report.witnesses].count("missing image point") == 2


# ---- ROADMAP item 2 on the CLI's own random family -------------------------


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the source's double eigenvalue 1 is smeared into two points ~1e-6 apart, "
    "whose images miss the target's single point by more than CLUSTER_TOL",
)
@pytest.mark.parametrize("claim, trial", [("thm4.1", 159), ("thm4.2", 81)])
def test_cli_random_unipotent_two_inverse_pair_maps_its_eigenvalue(claim, trial):
    # The trial of `audit --claim C --random 200` (seed 0; child seeds 1351462461 and
    # 3649273447): a conjugated unipotent left 2-inverse pair from
    # cli._inverse_pair_instance, on which the claim holds.
    child = int(np.random.SeedSequence(0).spawn(trial + 1)[trial].generate_state(1)[0])
    entry = cli.CLAIMS[claim]
    assert entry.audit(*entry.random_instance(child, trial), DEFAULT_TOL, child).conclusion_holds
