"""The tuple-file JSON format: the toolkit's only interchange surface.

A tuple file is a JSON object with integer fields "d" (1 <= d <= MAX_EXAMPLE_D) and "dim", a
"matrices" array of shape d x dim x dim whose innermost entries are [re, im] pairs, and optional
"q" (integer list), "m" (integer, 1 <= m <= MAX_ORDER), and "metadata" (object) fields. For m-inverse
audits the metadata may embed a partner tuple under "left_inverse" or "right_inverse" as
{"matrices": [...]} with the same encoding and shape.

A "matrices" array is converted in one pass: one numpy conversion to float64,
checked for its shape, for numbers as its only leaves and for finiteness, and
read as complex through a complex128 view, so every part keeps its bits. A
malformed array is walked entry by entry only to name the offending path.

Serialization goes through ``reports.dumps``, the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``: the matrices are handed over as
one stacked complex array and every float is written in Python's shortest
round-trip form (at most 17 significant digits), so emit/parse is lossless and
byte-stable. Non-finite metadata is refused with ValueError.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceModel
from .reports import dumps
from .tuples import OperatorTuple, make_tuple


# The largest order m accepted from outside the program. It is four times the
# desk-scale envelope (m <= 8); at d = 4 the vector-state audits walk
# C(m + 4, 4) monomials, ~59k at m = 32, and every C(m, k) stays far inside
# the float range (it leaves it at m = 1030).
MAX_ORDER = 32

# The largest d of a tuple file and of a "(d)" example id, four times the envelope's d <= 4 as
# MAX_ORDER is for m: make_tuple checks d(d-1)/2 commutator pairs and quasinormal_class decides
# d^3 triples, so `classify` on dim-1 tuples takes 0.06 s at d = 32 and 4.5 s at d = 128.
MAX_EXAMPLE_D = 16


class TupleFileError(ValueError):
    """Schema violation, reported with the JSON path of the offending node."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _shown(value) -> str:
    """repr(value) for an error message, cut after 480 characters: a malformed
    node can be any size, and its message echoes only its start."""
    text = repr(value)
    return text if len(text) <= 480 else text[:480] + "..."


def _require_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TupleFileError(path, f"expected an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise TupleFileError(path, f"expected an integer >= {minimum}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise TupleFileError(path, f"expected an integer <= {maximum}, got {_shown(value)}")
    return value


def _require_number(value, path: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TupleFileError(path, f"expected a number, got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer literal past the float range
        finite = False
    if not finite:
        raise TupleFileError(path, f"expected a finite number, got {_shown(value)}")


def _raise_at_first_fault(value, d: int, dim: int, path: str) -> None:
    """Walk a matrices array in document order; raise at its first malformed node."""
    if not isinstance(value, list) or len(value) != d:
        raise TupleFileError(path, f"expected {d} matrices")
    for j, rows in enumerate(value):
        mpath = f"{path}/{j}"
        if not isinstance(rows, list) or len(rows) != dim:
            raise TupleFileError(mpath, f"expected {dim} rows")
        for r, row in enumerate(rows):
            rpath = f"{mpath}/{r}"
            if not isinstance(row, list) or len(row) != dim:
                raise TupleFileError(rpath, f"expected {dim} entries")
            for c, entry in enumerate(row):
                epath = f"{rpath}/{c}"
                if not isinstance(entry, list) or len(entry) != 2:
                    raise TupleFileError(epath, f"expected an [re, im] pair, got {_shown(entry)}")
                _require_number(entry[0], epath + "/0")
                _require_number(entry[1], epath + "/1")


def parse_matrices(value, d: int, dim: int, path: str) -> list[np.ndarray]:
    """The d complex matrices of a decoded d x dim x dim array of [re, im] pairs.

    One numpy conversion to float64 does the work. numpy would also read
    "1.5", true and null as floats, so the leaves must be JSON numbers (int or
    float). The matrices are a complex128 view of the pairs, which keeps a
    -0.0 part. Anything else is walked entry by entry to raise at its path.
    """
    try:
        pairs = np.array(value, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):  # ragged, not numbers, or an int past the float range
        pairs = None
    if pairs is not None and pairs.shape == (d, dim, dim, 2):
        parts = chain.from_iterable(chain.from_iterable(chain.from_iterable(value)))
        if set(map(type, parts)) <= {int, float} and np.isfinite(pairs).all():
            return list(pairs.view(np.complex128).reshape(d, dim, dim))
    _raise_at_first_fault(value, d, dim, path)
    raise AssertionError(path)  # the walk raises on every decoded JSON array the checks above refuse


@dataclass(frozen=True)
class ParsedTupleFile:
    tuple: OperatorTuple
    m: int | None = None
    q: tuple[int, ...] | None = None
    metadata: dict = field(default_factory=dict)


def parse_tuple_file(text: str, tol: ToleranceModel = DEFAULT_TOL) -> ParsedTupleFile:
    """Parse and validate one tuple file; commutativity is enforced."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TupleFileError("/", f"not valid JSON ({exc.msg} at char {exc.pos})") from exc
    except ValueError as exc:  # an integer literal past Python's int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise TupleFileError("/", f"not valid JSON (an integer literal exceeds {limit} digits)") from exc
    except RecursionError:
        raise TupleFileError("/", "not valid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise TupleFileError("/", "top level must be a JSON object")
    for key in ("d", "dim", "matrices"):
        if key not in doc:
            raise TupleFileError(f"/{key}", "missing required field")
    for key in doc:
        if key not in ("d", "dim", "matrices", "q", "m", "metadata"):
            raise TupleFileError(f"/{key}", "unknown field")

    d = _require_int(doc["d"], "/d", minimum=1, maximum=MAX_EXAMPLE_D)
    dim = _require_int(doc["dim"], "/dim", minimum=1)
    mats = parse_matrices(doc["matrices"], d, dim, "/matrices")

    q = None
    if "q" in doc:
        if not isinstance(doc["q"], list) or len(doc["q"]) != d:
            raise TupleFileError("/q", f"expected a list of {d} integers")
        q = tuple(_require_int(v, f"/q/{i}", minimum=0) for i, v in enumerate(doc["q"]))

    m = _require_int(doc["m"], "/m", minimum=1, maximum=MAX_ORDER) if "m" in doc else None

    metadata = {}
    if "metadata" in doc:
        if not isinstance(doc["metadata"], dict):
            raise TupleFileError("/metadata", "expected an object")
        metadata = doc["metadata"]

    return ParsedTupleFile(tuple=make_tuple(mats, tol), m=m, q=q, metadata=metadata)


def parse_partner(
    parsed: ParsedTupleFile, key: str, tol: ToleranceModel = DEFAULT_TOL
) -> OperatorTuple:
    """Extract a partner tuple ("left_inverse" or "right_inverse") from metadata."""
    if key not in parsed.metadata:
        raise TupleFileError(f"/metadata/{key}", "missing partner tuple for this audit")
    node = parsed.metadata[key]
    if not isinstance(node, dict) or "matrices" not in node:
        raise TupleFileError(f"/metadata/{key}", 'expected an object with a "matrices" field')
    mats = parse_matrices(
        node["matrices"], parsed.tuple.d, parsed.tuple.dim, f"/metadata/{key}/matrices"
    )
    return make_tuple(mats, tol)


def serialize_tuple_file(
    t: OperatorTuple,
    m: int | None = None,
    q=None,
    metadata: dict | None = None,
) -> str:
    doc: dict = {"d": t.d, "dim": t.dim, "matrices": np.stack(t.matrices)}
    if q is not None:
        doc["q"] = [int(v) for v in q]
    if m is not None:
        doc["m"] = int(m)
    if metadata:
        doc["metadata"] = metadata
    return dumps(doc)
