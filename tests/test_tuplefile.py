import dataclasses
import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opertuple.cli import CLAIMS
from opertuple.defects import ClassificationReport, classify
from opertuple.generators import paper_example
from opertuple.linalg import ToleranceModel
from opertuple.reports import (
    AuditReport,
    SubVerdict,
    Witness,
    report_to_dict,
    to_json,
)
from opertuple.tuplefile import (
    MAX_ORDER,
    TupleFileError,
    parse_partner,
    parse_tuple_file,
    serialize_tuple_file,
)
from opertuple.tuples import NonCommutingError

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_parse_minimal_zero_tuple():
    text = '{"d":1,"dim":2,"matrices":[[[[0,0],[0,0]],[[0,0],[0,0]]]]}'
    parsed = parse_tuple_file(text)
    assert parsed.tuple.d == 1 and parsed.tuple.dim == 2
    np.testing.assert_array_equal(parsed.tuple[0], np.zeros((2, 2)))
    assert parsed.m is None and parsed.q is None


def test_roundtrip_example_2_2_exact():
    ex = paper_example("2.2")
    text = serialize_tuple_file(ex.tuple, m=2, q=(1, 1), metadata={"example": "2.2"})
    parsed = parse_tuple_file(text)
    for a, b in zip(parsed.tuple, ex.tuple):
        np.testing.assert_array_equal(a, b)
    assert parsed.m == 2 and parsed.q == (1, 1)
    assert parsed.metadata == {"example": "2.2"}


def test_roundtrip_irrational_entries_bit_exact():
    ex = paper_example("3.golden(2)")
    parsed = parse_tuple_file(serialize_tuple_file(ex.tuple))
    assert parsed.tuple[0][0, 0] == ex.tuple[0][0, 0]  # exact double round-trip


def test_wrong_matrix_count_names_path():
    doc = {
        "d": 2,
        "dim": 1,
        "matrices": [[[[0, 0]]], [[[0, 0]]], [[[0, 0]]]],
    }
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file(json.dumps(doc))
    assert err.value.path == "/matrices"


def test_bad_entry_names_deep_path():
    doc = {"d": 1, "dim": 1, "matrices": [[["oops"]]]}
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file(json.dumps(doc))
    assert err.value.path.startswith("/matrices/0/0/0")


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.update(d=0), "/d"),
        (lambda d: d.update(q=[1]), "/q"),
        (lambda d: d.update(m=0), "/m"),
        (lambda d: d.update(extra=1), "/extra"),
        (lambda d: d.pop("dim"), "/dim"),
    ],
)
def test_schema_violations(mutate, path):
    doc = {"d": 2, "dim": 1, "matrices": [[[[1, 0]]], [[[2, 0]]]], "q": [1, 1]}
    mutate(doc)
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file(json.dumps(doc))
    assert err.value.path == path


def test_integer_literal_past_the_float_range_rejected():
    text = '{"d": 1, "dim": 1, "matrices": [[[[1' + "0" * 400 + ', 0]]]]}'
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file(text)
    assert err.value.path == "/matrices/0/0/0/0"
    assert "expected a finite number" in str(err.value)


# Malformed "matrices" arrays of a d = 2, dim = 2 file, each fault in the second
# matrix, and the full message each one raises, path included ({root} is the
# array's own path). The parser converts a well-formed array in one numpy call;
# these pin the entry-by-entry walk that names a malformed one.
IDENTITY = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"
BIG_INTEGER = "1" + "0" * 400


def second_row(row: str) -> str:
    """The second matrix with ``row`` as its row 1."""
    return f"[[[1, 0], [0, 0]], {row}]"


MALFORMED = {
    "true": (second_row("[[0.5, true], [1, 0]]"), "{root}/1/1/0/1: expected a number, got True"),
    "string": (second_row('[[0.5, "1.5"], [1, 0]]'), "{root}/1/1/0/1: expected a number, got '1.5'"),
    "null": (second_row("[[0.5, null], [1, 0]]"), "{root}/1/1/0/1: expected a number, got None"),
    "nan": (second_row("[[0.5, NaN], [1, 0]]"), "{root}/1/1/0/1: expected a finite number, got nan"),
    "infinity": (
        second_row("[[0.5, Infinity], [1, 0]]"),
        "{root}/1/1/0/1: expected a finite number, got inf",
    ),
    "minus-infinity": (
        second_row("[[0.5, -Infinity], [1, 0]]"),
        "{root}/1/1/0/1: expected a finite number, got -inf",
    ),
    "400-digit-integer": (
        second_row(f"[[0.5, {BIG_INTEGER}], [1, 0]]"),
        f"{{root}}/1/1/0/1: expected a finite number, got {BIG_INTEGER}",
    ),
    "one-element-pair": (
        second_row("[[0.5], [1, 0]]"),
        "{root}/1/1/0: expected an [re, im] pair, got [0.5]",
    ),
    "three-element-pair": (
        second_row("[[0.5, 0, 0], [1, 0]]"),
        "{root}/1/1/0: expected an [re, im] pair, got [0.5, 0, 0]",
    ),
    "bare-number": (second_row("[0.5, [1, 0]]"), "{root}/1/1/0: expected an [re, im] pair, got 0.5"),
    "object-entry": (
        second_row('[{"im": 0, "re": 0.5}, [1, 0]]'),
        "{root}/1/1/0: expected an [re, im] pair, got {{'im': 0, 're': 0.5}}",
    ),
    "short-row": ("[[[1, 0]], [[0, 0], [1, 0]]]", "{root}/1/0: expected 2 entries"),
    "ragged-matrix": (second_row("[[0, 0], [1, 0], [0, 0]]"), "{root}/1/1: expected 2 entries"),
    "missing-row": ("[[[1, 0], [0, 0]]]", "{root}/1: expected 2 rows"),
    "matrix-count": (None, "{root}: expected 2 matrices"),
}


@pytest.mark.parametrize("root", ["/matrices", "/metadata/left_inverse/matrices"])
@pytest.mark.parametrize("second, message", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_matrices_raise_the_full_message(root, second, message):
    bad = f"[{IDENTITY}, {IDENTITY}, {IDENTITY}]" if second is None else f"[{IDENTITY}, {second}]"
    good = f"[{IDENTITY}, {IDENTITY}]"
    if root == "/matrices":
        text = f'{{"d": 2, "dim": 2, "matrices": {bad}}}'
    else:
        partner = f'{{"left_inverse": {{"matrices": {bad}}}}}'
        text = f'{{"d": 2, "dim": 2, "matrices": {good}, "metadata": {partner}}}'
    with pytest.raises(TupleFileError) as err:
        parse_partner(parse_tuple_file(text), "left_inverse")
    assert str(err.value) == message.format(root=root)
    assert err.value.path == str(err.value).partition(": ")[0]


# Parts of [re, im] pairs: any finite double (-0.0 and subnormals included) or an
# integer literal above 2^53, which a double holds only rounded.
PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
    st.integers(2**53 + 1, 2**1000) | st.integers(-(2**1000), -(2**53) - 1),
)


@st.composite
def tuple_documents(draw):
    """A tuple file with parts drawn from PARTS; d = 2 repeats one matrix, so it commutes."""
    d, dim = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    matrix = draw(st.lists(st.lists(st.lists(PARTS, min_size=2, max_size=2), min_size=dim,
                                     max_size=dim), min_size=dim, max_size=dim))
    return {"d": d, "dim": dim, "matrices": [matrix] * d}


@settings(max_examples=200, deadline=None)
@given(tuple_documents())
# |re + i im| overflows although both parts are finite
@example({"d": 2, "dim": 1, "matrices": [[[[1.2711610061536462e308] * 2]]] * 2})
def test_parse_serialize_roundtrip_is_bit_exact(doc):
    parsed = parse_tuple_file(json.dumps(doc))
    expected = np.array(
        [[[complex(float(re), float(im)) for re, im in row] for row in m] for m in doc["matrices"]]
    )
    assert b"".join(m.tobytes() for m in parsed.tuple) == expected.tobytes()
    again = parse_tuple_file(serialize_tuple_file(parsed.tuple))
    assert b"".join(m.tobytes() for m in again.tuple) == expected.tobytes()


def test_order_above_cap_rejected():
    doc = {"d": 2, "dim": 1, "matrices": [[[[1, 0]]], [[[2, 0]]]], "m": MAX_ORDER + 1}
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file(json.dumps(doc))
    assert err.value.path == "/m"


def test_not_json_at_all():
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file("not json {")
    assert err.value.path == "/"


@pytest.mark.parametrize("where", ["d", "matrices"])
def test_integer_literal_past_the_digit_limit_is_not_valid_json(where):
    literal = "1" + "0" * 5000
    text = (
        f'{{"d": {literal}, "dim": 1, "matrices": [[[[0, 0]]]]}}' if where == "d"
        else f'{{"d": 1, "dim": 1, "matrices": [[[[{literal}, 0]]]]}}'
    )
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file(text)
    assert err.value.path == "/"
    assert str(err.value).startswith("/: not valid JSON (")


def test_non_commuting_file_rejected():
    n = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    nt = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
    doc = {"d": 2, "dim": 2, "matrices": [n, nt]}
    with pytest.raises(NonCommutingError):
        parse_tuple_file(json.dumps(doc))


def test_parse_partner_roundtrip_and_missing():
    ex = paper_example("4.1-corrected")
    text = serialize_tuple_file(
        ex.tuple,
        m=2,
        metadata={"left_inverse": {"matrices": np.stack(ex.partner.matrices)}},
    )
    parsed = parse_tuple_file(text)
    partner = parse_partner(parsed, "left_inverse")
    for a, b in zip(partner, ex.partner):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(TupleFileError) as err:
        parse_partner(parsed, "right_inverse")
    assert err.value.path == "/metadata/right_inverse"


def test_serialization_is_deterministic():
    ex = paper_example("2.1(2)")
    a = serialize_tuple_file(ex.tuple, m=1, q=(1, 1))
    b = serialize_tuple_file(ex.tuple, m=1, q=(1, 1))
    assert a == b


def sample_report() -> AuditReport:
    return AuditReport(
        claim_id="thm3.1",
        hypotheses_hold=False,
        hypothesis_breakdown={"partial_isometry": True, "null_space_reducing": False},
        conclusion_holds=True,
        sub_verdicts=(
            SubVerdict(
                name="sigma_p within sphere or zero variety",
                hypotheses_hold=False,
                conclusion_holds=False,
                vacuous=True,
                details={"points_checked": 3, "note": "informational"},
            ),
        ),
        witnesses=(
            Witness("eigenvalue", (complex(2 ** -0.25 / math.sqrt(2)), complex(0.1, -0.25))),
        ),
        norms={"defect_norm": 1.234e-16, "spectral_radius": 0.8408964152537145},
        tolerances=ToleranceModel(),
        seed=41,
        paper_discrepancy_notes=("a note",),
    )


def _decoded(cls, doc: dict, **decoders):
    """An instance of the dataclass ``cls`` from the keys of ``doc`` that name its fields, each
    value through its entry in ``decoders``; keys that name no field are ignored."""
    return cls(**{f.name: decoders.get(f.name, lambda v: v)(doc[f.name]) for f in dataclasses.fields(cls)})


def report_from_dict(doc: dict) -> AuditReport:
    """The inverse of ``report_to_dict``, kept here as its oracle: a report that comes back
    equal from its JSON lost nothing in the encoding."""
    return _decoded(
        AuditReport, doc,
        hypothesis_breakdown=dict,
        sub_verdicts=lambda svs: tuple(_decoded(SubVerdict, sv, details=dict) for sv in svs),
        witnesses=lambda ws: tuple(
            _decoded(Witness, w, value=lambda pairs: tuple(complex(*p) for p in pairs)) for w in ws
        ),
        norms=dict,
        tolerances=lambda tol: _decoded(ToleranceModel, tol),
        paper_discrepancy_notes=tuple,
    )


def test_report_roundtrip_lossless():
    report = sample_report()
    through_json = json.loads(json.dumps(report_to_dict(report)))
    assert report_from_dict(through_json) == report


@pytest.mark.parametrize("claim_id", CLAIMS)
def test_random_instance_reports_roundtrip(claim_id):
    claim = CLAIMS[claim_id]
    for trial in (0, 1):
        report = claim.audit(*claim.random_instance(5, trial), ToleranceModel(), 5)
        through_json = json.loads(json.dumps(report_to_dict(report)))
        assert report_from_dict(through_json) == report


def _assert_vacuity_rule(report: AuditReport) -> None:
    """Every sub-verdict binds under the report's hypotheses (prop4.1's item (1) under the
    commuting pair alone), is vacuous when they fail, and only binding ones decide the report."""
    for sv in report.sub_verdicts:
        if report.claim_id == "prop4.1" and sv.name.startswith(("(1) ", "(1') ")):
            assert sv.hypotheses_hold
        else:
            assert sv.hypotheses_hold == report.hypotheses_hold
        assert sv.hypotheses_hold or sv.vacuous
        if sv.name.startswith("(1') "):
            assert sv.vacuous
    assert report.conclusion_holds == all(sv.conclusion_holds for sv in report.sub_verdicts if not sv.vacuous)


@pytest.mark.parametrize("claim_id", CLAIMS)
def test_random_instance_sub_verdicts_follow_the_vacuity_rule(claim_id):
    claim = CLAIMS[claim_id]
    for trial in range(4):
        _assert_vacuity_rule(claim.audit(*claim.random_instance(5, trial), ToleranceModel(), 5))


def test_prop41_item_1_binds_when_the_left_inverse_fails():
    ex = paper_example("4.1-as-printed")
    report = CLAIMS["prop4.1"].audit(ex.partner, ex.tuple, 2, None, ToleranceModel(), 0)
    assert report.hypothesis_breakdown == {"commuting_pair": True, "left_m_inverse": False}
    _assert_vacuity_rule(report)
    item1, _, item2, _ = report.sub_verdicts
    assert item1.name.startswith("(1) ") and not item1.vacuous
    assert item2.name.startswith("(2) ") and item2.vacuous


def test_report_decoder_ignores_unknown_keys():
    doc = report_to_dict(sample_report())
    doc["extra"] = 1
    doc["tolerances"]["extra"] = 2
    doc["sub_verdicts"][0]["extra"] = 3
    assert report_from_dict(doc) == sample_report()


def _encodings():
    example = paper_example("2.2")
    report = report_to_dict(sample_report())
    encoded = [
        (AuditReport, report),
        (ClassificationReport, classify(example.tuple, 2, (1, 1)).to_dict()),
        (ToleranceModel, report["tolerances"]),
    ]
    return [pytest.param(cls, doc, id=cls.__name__) for cls, doc in encoded]


@pytest.mark.parametrize("cls, doc", _encodings())
def test_json_keys_are_the_dataclass_fields(cls, doc):
    assert list(doc) == [f.name for f in dataclasses.fields(cls)]


def test_serialized_files_are_the_bytes_of_the_stdlib_writer():
    ex = paper_example("4.1-corrected")
    partner = {"matrices": np.stack(ex.partner.matrices)}
    metadata = {"left_inverse": partner, "note": "é"}
    text = serialize_tuple_file(ex.tuple, m=2, q=(1, 0), metadata=metadata)
    doc = {"d": 2, "dim": 2, "m": 2, "q": [1, 0], "metadata": to_json(metadata)}
    doc["matrices"] = to_json(np.stack(ex.tuple.matrices))
    assert text == json.dumps(doc, indent=2, sort_keys=True)


def test_non_finite_metadata_is_refused():
    ex = paper_example("2.2")
    with pytest.raises(ValueError):
        serialize_tuple_file(ex.tuple, metadata={"scale": math.nan})


def _make_example_files():
    spec = importlib.util.spec_from_file_location("make_example_files", ROOT / "scripts" / "make_example_files.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_example_files_rewrites_the_shipped_data_byte_for_byte(tmp_path, monkeypatch, capsys):
    script = _make_example_files()
    monkeypatch.setattr(script, "DATA", tmp_path)
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in (ROOT / "data").glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name
