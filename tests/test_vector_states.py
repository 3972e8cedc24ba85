"""The batched vector-state kernels against the term-by-term reference and the operator route.

The reference is the per-state loop: every multi-index separately, with T^alpha
from ``tuple_power``. The operator route is Re<T^q D T*^q x, x>, with D the
binomial combination of the levels L_k from ``power_levels``.
"""

import importlib
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opertuple import defects
from opertuple.defects import (
    _scalar_states,
    _state_sums,
    audit_proposition_2_4,
    audit_theorem_2_1,
    scalar_defect,
)
from opertuple.generators import diagonal_conjugate, paper_example, polynomial_family
from opertuple.linalg import DEFAULT_TOL, NumericalFailureError, ToleranceModel, adjoint
from opertuple.multiindex import multinomial_weight
from opertuple.tuples import make_tuple, power_levels, tuple_power

from multiindex_oracle import enumerate_multiindices

GAP = 1e-12

FAMILIES = {
    "polynomial_family": lambda rng, dim, d: polynomial_family(rng, dim, d, 2),
    "diagonal_conjugate": lambda rng, dim, d: diagonal_conjugate(rng, dim, d, False, False),
}


def termwise_terms(t, m, y):
    """(-1)^k C(m,k) sum_{|alpha|=k} (k!/alpha!) <T^alpha y, T^alpha y>, k = 0..m, alpha by alpha."""
    terms = []
    for k in range(m + 1):
        level = 0.0 + 0.0j
        for alpha in enumerate_multiindices(t.d, k):
            z = tuple_power(t, alpha) @ y
            level += multinomial_weight(alpha) * np.vdot(z, z)
        terms.append((-1) ** k * math.comb(m, k) * level)
    return np.array(terms)


def operator_value(t, m, q, x, ascent):
    """Re<T^q D T*^q x, x>, D = sum_k (-1)^k C(m,k) L_(k + ascent)."""
    levels = power_levels([adjoint(tj) for tj in t], t, m + 1)
    d = sum((-1) ** k * math.comb(m, k) * levels[k + ascent] for k in range(m + 1))
    tq = tuple_power(t, q)
    return float(np.vdot(x, tq @ d @ adjoint(tq) @ x).real)


@st.composite
def instances(draw):
    """(T, m, q, polarize) with d <= 3, dim <= 6, m <= 4, q_j <= 2."""
    d = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 6))
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    t = family(np.random.default_rng(draw(st.integers(0, 2**32))), dim, d)
    m = draw(st.integers(1, 4))
    q = tuple(draw(st.integers(0, 2)) for _ in range(d))
    return t, m, q, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(instances())
def test_theorem_2_1_states_match_reference_and_operator_route(instance):
    t, m, q, polarize = instance
    states = _scalar_states(t.dim, polarize)
    shift = adjoint(tuple_power(t, q))
    values = _state_sums(t, m, shift @ states)
    for c in range(states.shape[1]):
        terms = termwise_terms(t, m, shift @ states[:, c])
        scale = np.abs(terms).max()
        assert abs(values[c] - terms.sum().real) <= GAP * scale
        assert abs(values[c] - operator_value(t, m, q, states[:, c], ascent=0)) <= GAP * scale


@pytest.mark.parametrize("polarize", [False, True], ids=["basis", "polarized"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_theorem_2_1_states_match_reference_at_dim_16(family, polarize):
    # d = 3, m = 4: 35 tree nodes per state, 16 or 496 states through the fused dot.
    t = FAMILIES[family](np.random.default_rng(16), 16, 3)
    m, q = 4, (1, 0, 2)
    states = _scalar_states(t.dim, polarize)
    shift = adjoint(tuple_power(t, q))
    values = _state_sums(t, m, shift @ states)
    assert values.shape == (16 + 4 * 120 * polarize,)
    for c in range(states.shape[1]):
        terms = termwise_terms(t, m, shift @ states[:, c])
        assert abs(values[c] - terms.sum().real) <= GAP * np.abs(terms).max()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_proposition_2_4_sums_match_reference_at_dim_16(family):
    t = FAMILIES[family](np.random.default_rng(16), 16, 3)
    m, q = 4, (1, 0, 2)
    shift = adjoint(tuple_power(t, q))
    values = _state_sums(t, m, shift, ascent=1)
    for i, x in enumerate(np.eye(t.dim, dtype=np.complex128).T):
        terms = sum(termwise_terms(t, m, tj @ shift @ x) for tj in t)
        assert abs(values[i] - terms.sum().real) <= GAP * np.abs(terms).max()


def test_theorem_2_1_all_states_zero_decision_matches_is_zero_at_the_threshold(monkeypatch):
    # Magnitudes at the threshold and one ulp either side, with either sign: the one
    # array comparison decides as the per-state ToleranceModel.is_zero would.
    t, outcomes = polynomial_family(np.random.default_rng(3), 6, 2, 2), set()
    for tol in (DEFAULT_TOL, ToleranceModel(abs_tol=0.0, rel_tol=1e-6), ToleranceModel(abs_tol=1e-3, rel_tol=0.0)):
        scale = audit_theorem_2_1(t, 2, (1, 1), tol).norms["partial_defect_scale"]
        at = tol.threshold(scale)
        above, below = np.nextafter(at, np.inf), np.nextafter(at, 0.0)
        cases = [
            [at] * 6, [below] * 6, [above] * 6, [below] * 5 + [above], [at] * 5 + [-above],
            [-at] * 6, [-below, at, 0.0, below, -at, 0.0], [0.0] * 5 + [np.nextafter(above, np.inf)],
        ]
        for values in cases:
            monkeypatch.setattr(defects, "_state_sums", lambda *args, **kw: np.array(values))
            report = audit_theorem_2_1(t, 2, (1, 1), tol)
            expected = all(tol.is_zero(abs(v), scale) for v in values)
            assert report.sub_verdicts[0].details["scalar_defect_all_zero"] is expected
            outcomes.add(expected)
            monkeypatch.undo()
    assert outcomes == {True, False}


def block_sums(t, m, shift):
    """sum_j sum_k (-1)^k C(m,k) level_k(T_j T*^q e_i): d blocks T_j T*^q, each walked to depth m."""
    return sum(_state_sums(t, m, tj @ shift) for tj in t)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_proposition_2_4_sums_match_reference_and_operator_route(instance):
    t, m, q, _ = instance
    shift = adjoint(tuple_power(t, q))
    values = _state_sums(t, m, shift, ascent=1)
    blocks = block_sums(t, m, shift)
    scales = []
    for i, x in enumerate(np.eye(t.dim, dtype=np.complex128).T):
        terms = sum(termwise_terms(t, m, tj @ shift @ x) for tj in t)
        scales.append(scale := np.abs(terms).max())
        assert abs(values[i] - blocks[i]) <= GAP * scale
        assert abs(values[i] - terms.sum().real) <= GAP * scale
        assert abs(values[i] - operator_value(t, m, q, x, ascent=1)) <= GAP * scale
    worst = audit_proposition_2_4(t, m, q).norms["max_identity_sum"]
    assert abs(worst - np.abs(blocks).max()) <= GAP * max(scales)


def test_proposition_2_4_walks_one_tree_of_depth_m_plus_1(monkeypatch):
    walk, steps = defects.prefix_tree, []

    def counted(d, kmax, root, step):
        def counted_step(j, z):
            steps.append(j)
            return step(j, z)

        return walk(d, kmax, root, counted_step)

    monkeypatch.setattr(defects, "prefix_tree", counted)
    for d, m in ((1, 3), (2, 1), (3, 2), (4, 4)):
        steps.clear()
        audit_proposition_2_4(polynomial_family(np.random.default_rng(d), 5, d, 2), m, (1,) * d)
        assert len(steps) == math.comb(m + 1 + d, d) - 1


def test_polarized_states_are_the_documented_combinations():
    states = _scalar_states(3, True)
    e = np.eye(3)
    expected = [e[0], e[1], e[2]]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        expected += [e[i] + e[j], e[i] - e[j], e[i] + 1j * e[j], e[i] - 1j * e[j]]
    np.testing.assert_array_equal(states, np.array(expected).T)
    np.testing.assert_array_equal(_scalar_states(3, False), e)


def test_overflowing_state_levels_raise():
    with pytest.raises(NumericalFailureError, match="not finite"):
        scalar_defect(make_tuple([[[1e200]]]), 2, (1,), [1.0])


def _verdicts(report):
    sv = report.sub_verdicts[0]
    return (
        report.hypotheses_hold,
        report.conclusion_holds,
        sv.conclusion_holds,
        sv.details["operator_defect_zero"],
        sv.details["scalar_defect_all_zero"],
    )


def test_polarized_example_2_2_keeps_verdicts():
    ex = paper_example("2.2")
    basis = audit_theorem_2_1(ex.tuple, 2, ex.q)
    polarized = audit_theorem_2_1(ex.tuple, 2, ex.q, polarize=True)
    assert _verdicts(polarized) == _verdicts(basis)
    assert polarized.sub_verdicts[0].details["polarized_states"] is True
    assert basis.sub_verdicts[0].details["polarized_states"] is False
    assert polarized.norms["max_scalar_defect"] >= basis.norms["max_scalar_defect"]


def test_polarized_pi_diagonal_at_dim_32():
    t = diagonal_conjugate(np.random.default_rng(1), 32, 4, True, True)
    q = (1,) * 4
    basis = audit_theorem_2_1(t, 4, q)
    polarized = audit_theorem_2_1(t, 4, q, polarize=True)
    assert _scalar_states(32, True).shape[1] == 2016
    assert _verdicts(polarized) == _verdicts(basis)
    assert polarized.conclusion_holds and not polarized.sub_verdicts[0].vacuous


def _benchmark_pi_diagonal_report():
    # prop2.4 at m = 4 on benchmarks/build.pi_diagonal(2901, 32, 4, 0), imported read-only.
    # Every diagonal column is a unit vector or has a zero coordinate, so every
    # (k; 1,...,1) defect vanishes exactly; the order-4 one sits at 0.27x its threshold.
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
        build = importlib.import_module("build")
    t = make_tuple(build.pi_diagonal(2901, 32, 4, 0).matrices)
    return audit_proposition_2_4(t, 4, (1, 1, 1, 1))


def test_prop_2_4_hypotheses_hold_on_the_benchmark_pi_diagonal_at_seed_2901():
    assert _benchmark_pi_diagonal_report().hypotheses_hold


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known false negative (ROADMAP item 1): the order-5 defect of this partial isometry "
    "is 6.66e-10 against a threshold of 2.41e-10, which ignores the input's own roundoff floor",
)
def test_prop_2_4_on_the_benchmark_pi_diagonal_at_seed_2901():
    assert _benchmark_pi_diagonal_report().conclusion_holds
