"""The JSON encoding ``to_json`` and the JSON text writer ``dumps``.

``dumps`` must write exactly the bytes of the stdlib's
``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``; ``to_json``'s
bulk conversion of a run of complex numbers must keep every bit of the
per-entry form, -0.0 and subnormals included.
"""

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from opertuple.cli import CLAIMS
from opertuple.generators import diagonal_conjugate
from opertuple.linalg import ToleranceModel
from opertuple.reports import dumps, report_to_dict, to_json
from opertuple.spectra import joint_spectrum


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def per_entry(value):
    """``to_json`` as it reads with one recursion per entry and no bulk case."""
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [per_entry(v) for v in value]
    if isinstance(value, dict):
        return {k: per_entry(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: per_entry(getattr(value, f.name)) for f in fields(value)}
    return value


def assert_same(a, b, path="") -> None:
    """Equal JSON values, with each float equal in value and in sign (so -0.0 counts)."""
    assert type(a) is type(b), (path, a, b)
    if isinstance(a, float):
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b), (path, a, b)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}/{i}")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            assert_same(a[k], b[k], f"{path}/{k}")
    else:
        assert a == b, (path, a, b)


# ---------------------------------------------------------------------------
# to_json: a run of complex numbers in bulk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("claim_id", CLAIMS)
def test_bulk_complex_runs_match_the_per_entry_form_on_random_reports(claim_id):
    claim = CLAIMS[claim_id]
    for trial in (0, 1):
        report = claim.audit(*claim.random_instance(5, trial), ToleranceModel(), 5)
        assert_same(report_to_dict(report), per_entry(report))


def test_bulk_complex_runs_match_the_per_entry_form_on_a_dim_64_spectrum():
    t = diagonal_conjugate(np.random.default_rng(23), 64, 4, True, False)
    result = joint_spectrum(t, seed=7)
    assert len(result.point_spectrum) > 1
    doc = result.to_dict()
    reference = per_entry(result)
    residuals = reference.pop("residuals")
    reference["point_spectrum"] = [
        {"lambda": lam, "witness": x, "residual": res}
        for (lam, x), res in zip(reference["point_spectrum"], residuals)
    ]
    assert_same(doc, reference)


def test_bulk_complex_runs_keep_signed_zeros_and_subnormals():
    run = (complex(-0.0, 5e-324), np.complex128(complex(1e-310, -0.0)), complex(-5e-324, 1e308))
    assert_same(to_json(run), per_entry(run))
    assert_same(to_json([run, list(run)]), per_entry([run, list(run)]))
    assert to_json(()) == per_entry(()) == []


# ---------------------------------------------------------------------------
# dumps: the bytes of json.dumps(indent=2, sort_keys=True, allow_nan=False)
# ---------------------------------------------------------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, 1e16, 1e-7, 0.1]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | FLOATS
    | st.text()
    | st.sampled_from(["", "café", "∑ \U0001d53c", 'quote " and \\ slash', "tab\tnew\nline\x00"])
    | st.lists(FLOATS, max_size=5)
    | st.lists(st.tuples(FLOATS, FLOATS).map(list), max_size=5)
    | st.lists(st.tuples(FLOATS, FLOATS), max_size=3).map(tuple)
)
DOCS = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_dumps_writes_the_bytes_of_the_stdlib_writer(doc):
    assert dumps(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [], (), {}, [[]], {"a": []}, [{}], [1.0, 2], [1.0, True], [[1.0, 2.0], [3.0]], [[1.0, 2.0], (3.0, 4.0)],
        [[1.0, 2]], [np.float64(0.1), 0.2], {"b": [[-0.0, 5e-324]], "a": {"c": None}}, 2**80, -0.0,
    ],
)
def test_dumps_matches_the_stdlib_writer_at_the_edges_of_the_bulk_cases(doc):
    assert dumps(doc) == stdlib(doc)


ARRAYS = arrays(
    st.sampled_from([np.float64, np.complex128]),
    array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3),
    elements=st.floats(allow_nan=False, allow_infinity=False),
) | arrays(
    np.complex128,
    array_shapes(min_dims=1, max_dims=2),
    elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(ARRAYS)
def test_dumps_writes_arrays_as_the_stdlib_writes_their_encoding(arr):
    assert dumps(arr) == stdlib(to_json(arr))
    assert dumps({"x": [arr, 1]}) == stdlib({"x": [to_json(arr), 1]})
    # a transposed view is not contiguous; its entries and layout are still the array's own
    assert dumps(arr.T) == stdlib(to_json(arr.T))


@pytest.mark.parametrize(
    "value",
    [
        math.nan, math.inf, -math.inf, np.float64(math.nan), [1.0, math.nan], [[1.0, math.inf]],
        {"a": [0, -math.inf]}, np.array([0.0, math.nan]), np.array([[complex(0.0, math.inf)]]),
    ],
    ids=repr,
)
def test_non_finite_floats_are_refused_by_both_writers(value):
    with pytest.raises(ValueError):
        dumps(value)
    with pytest.raises(ValueError):
        stdlib(to_json(value))


@pytest.mark.parametrize(
    "value",
    # repr(object()) holds a memory address, so that case gets a fixed id
    [np.int64(1), np.arange(3), np.float32(1.0), pytest.param(object(), id="object()")],
    ids=repr,
)
def test_values_json_cannot_write_are_refused(value):
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):
        stdlib(value)


def test_dict_keys_must_be_strings():
    """json would write the key 1 as "1"; the package's documents have str keys only."""
    with pytest.raises(TypeError):
        dumps({1: 2.0})
