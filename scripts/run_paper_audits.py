#!/usr/bin/env python3
"""Run the full audit battery: the claims on their shipped files, then a random
batch for every claim in the registry ``opertuple.cli.CLAIMS``, printing one
summary line per run. Exit 0 when nothing binding failed beyond the documented
discrepancies (prop4.1's printed coefficients are expected to fail and are
reported but tolerated here).

Usage: python scripts/run_paper_audits.py [--seed N] [--trials N]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from opertuple.cli import CLAIMS, main as cli_main

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

FILE_CLAIMS = [
    ("thm2.1", "example_2_1_d1.json"),
    ("thm2.1", "example_2_1_d2.json"),
    ("thm2.1", "example_2_1_d3.json"),
    ("thm2.1", "example_2_2.json"),
    ("thm2.3", "example_2_1_d2.json"),
    ("thm3.1", "golden_ratio_d2.json"),
    ("prop3.2", "example_2_1_d2.json"),
    ("thm4.1", "example_4_1_corrected.json"),
    ("thm4.1", "scalar_counterexample_thm4_1.json"),
    ("prop4.1", "example_4_1_corrected.json"),
]

# Runs that demonstrate a documented paper discrepancy; their nonzero exit is
# the finding, not a regression.
EXPECTED_FINDINGS = {
    ("thm4.1", "scalar_counterexample_thm4_1.json"),
    ("prop4.1", "random"),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--trials", type=int, default=10)
    args = parser.parse_args()

    runs = [(claim, name, "--input", str(DATA / name)) for claim, name in FILE_CLAIMS]
    runs += [(claim, "random", "--random", str(args.trials)) for claim in CLAIMS]
    failures = []
    for claim, name, flag, source in runs:
        rc = cli_main(["audit", "--claim", claim, flag, source, "--seed", str(args.seed)])
        expected = (claim, name) in EXPECTED_FINDINGS
        tag = "finding (expected)" if (rc == 1 and expected) else ("ok" if rc == 0 else "FAILURE")
        where = f"{args.trials} random instances" if name == "random" else name
        print(f"== {claim} on {where}: exit {rc} [{tag}]\n")
        if rc == 2 or (rc == 1 and not expected):
            failures.append((claim, name, rc))

    if failures:
        print("unexpected failures:", failures)
        return 1
    print("audit battery complete; all results as documented")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
