#!/usr/bin/env python3
"""Snapshot the CLI's output on a fixed command list, one file per command.

Each file holds the command's argv (paths relative to the repository), its
exit code, its stdout and its stderr. The commands run in this process, each
with a fresh warnings state, in a fixed order:

- ``classify`` and ``spectrum --seed 7``, as text and ``--json``, on every
  shipped tuple file in ``data/``;
- ``audit --claim C --seed 7 --json`` for every claim on every shipped file;
- ``audit --claim C --random 5 --seed 3 --json`` and ``--random 3`` as text,
  for every claim;
- ``reproduce --example X --seed 7 --json`` for every worked example.

To compare two versions of the program, run this in a checkout of each and
``diff -r`` the two output directories.

Usage: python scripts/snapshot_cli.py OUT_DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import pathlib
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from opertuple.cli import CLAIMS, main as cli_main

EXAMPLE_IDS = (
    "2.1(1)", "2.1(2)", "2.1(3)", "2.2",
    "3.golden(1)", "3.golden(2)", "3.golden(3)",
    "4.1-as-printed", "4.1-corrected",
)


def commands() -> list[list[str]]:
    files = sorted(f"data/{p.name}" for p in (ROOT / "data").glob("*.json"))
    out = []
    for path in files:
        for fmt in ([], ["--json"]):
            out.append(["classify", "--input", path, *fmt])
            out.append(["spectrum", "--input", path, "--seed", "7", *fmt])
    for claim in CLAIMS:
        for path in files:
            out.append(["audit", "--claim", claim, "--input", path, "--seed", "7", "--json"])
    for claim in CLAIMS:
        out.append(["audit", "--claim", claim, "--random", "5", "--seed", "3", "--json"])
        out.append(["audit", "--claim", claim, "--random", "3", "--seed", "3"])
    for example in EXAMPLE_IDS:
        out.append(["reproduce", "--example", example, "--seed", "7", "--json"])
    return out


def run(argv: list[str]) -> str:
    """One command's record: argv, exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")
        code = cli_main(argv)
    return (
        f"argv: {' '.join(argv)}\nexit: {code}\n"
        f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=pathlib.Path)
    args = parser.parse_args()
    out_dir = args.out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    cmds = commands()
    for i, argv in enumerate(cmds):
        (out_dir / f"{i:03d}.txt").write_text(run(argv), encoding="utf-8")
    print(f"wrote {len(cmds)} snapshots to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
