#!/usr/bin/env python3
"""Regenerate the shipped tuple files under data/ from the worked examples."""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from opertuple.generators import paper_example
from opertuple.tuplefile import serialize_tuple_file
from opertuple.tuples import make_tuple

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def write(name: str, text: str) -> None:
    path = DATA / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    DATA.mkdir(exist_ok=True)

    for d in (1, 2, 3):
        ex = paper_example(f"2.1({d})")
        write(
            f"example_2_1_d{d}.json",
            serialize_tuple_file(ex.tuple, m=ex.m, q=ex.q, metadata={"example": ex.id}),
        )

    ex22 = paper_example("2.2")
    write(
        "example_2_2.json",
        serialize_tuple_file(ex22.tuple, m=ex22.m, q=ex22.q, metadata={"example": ex22.id}),
    )

    golden = paper_example("3.golden(2)")
    write(
        "golden_ratio_d2.json",
        serialize_tuple_file(golden.tuple, m=golden.m, q=golden.q, metadata={"example": golden.id}),
    )

    for variant in ("4.1-as-printed", "4.1-corrected"):
        ex = paper_example(variant)
        write(
            f"example_{variant.replace('.', '_').replace('-', '_')}.json",
            serialize_tuple_file(
                ex.tuple,
                m=ex.m,
                metadata={
                    "example": ex.id,
                    "left_inverse": {"matrices": np.stack(ex.partner.matrices)},
                },
            ),
        )

    # Scalar pair falsifying the theorem-4.1 spectral mapping: a left 1-inverse
    # whose mapped eigenvalue (3/2, 3/4) is not an eigenvalue of S = (I, I).
    t = make_tuple([np.eye(2) / 3.0, 2.0 * np.eye(2) / 3.0])
    s = make_tuple([np.eye(2), np.eye(2)])
    write(
        "scalar_counterexample_thm4_1.json",
        serialize_tuple_file(
            t,
            m=1,
            metadata={
                "example": "thm4.1-counterexample",
                "left_inverse": {"matrices": np.stack(s.matrices)},
            },
        ),
    )


if __name__ == "__main__":
    main()
