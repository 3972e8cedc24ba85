import dataclasses
import json
import math

import numpy as np
import pytest

from opertuple.cli import CLAIMS
from opertuple.defects import ClassificationReport, classify
from opertuple.generators import GeneratorSpec, paper_example
from opertuple.linalg import ToleranceModel
from opertuple.reports import (
    AuditReport,
    SubVerdict,
    Witness,
    report_from_dict,
    report_to_dict,
)
from opertuple.tuplefile import (
    MAX_ORDER,
    TupleFileError,
    matrices_to_json,
    parse_partner,
    parse_tuple_file,
    serialize_tuple_file,
)
from opertuple.tuples import NonCommutingError


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


def test_order_above_cap_rejected():
    doc = {"d": 2, "dim": 1, "matrices": [[[[1, 0]]], [[[2, 0]]]], "m": MAX_ORDER + 1}
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file(json.dumps(doc))
    assert err.value.path == "/m"


def test_not_json_at_all():
    with pytest.raises(TupleFileError) as err:
        parse_tuple_file("not json {")
    assert err.value.path == "/"


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
        metadata={"left_inverse": {"matrices": matrices_to_json(ex.partner.matrices)}},
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


def test_report_decoder_ignores_unknown_keys():
    doc = report_to_dict(sample_report())
    doc["extra"] = 1
    doc["tolerances"]["extra"] = 2
    doc["sub_verdicts"][0]["extra"] = 3
    assert report_from_dict(doc) == sample_report()


def _encodings():
    example = paper_example("2.2")
    spec = GeneratorSpec(scheme="scaled_single", seed=9, dim=3, d=2, params={"base": "unitary"})
    report = report_to_dict(sample_report())
    encoded = [
        (AuditReport, report),
        (ClassificationReport, classify(example.tuple, 2, (1, 1)).to_dict()),
        (GeneratorSpec, spec.to_dict()),
        (ToleranceModel, report["tolerances"]),
    ]
    return [pytest.param(cls, doc, id=cls.__name__) for cls, doc in encoded]


@pytest.mark.parametrize("cls, doc", _encodings())
def test_json_keys_are_the_dataclass_fields(cls, doc):
    assert list(doc) == [f.name for f in dataclasses.fields(cls)]
