"""The CLI's observable contract, pinned across versions of the program.

``cli_contract.json`` holds, for each of the ``scripts/snapshot_cli.py``
commands and for the ``scripts/run_paper_audits.py --trials 3`` battery:

- the exit code;
- every ``error:`` line of stderr (a ``diagnostics:`` line may follow it; any
  other stderr line, a leaked warning say, fails the check outright);
- for JSON output, its skeleton: every key path, every bool, string and int
  leaf, every list length, and each float named by a key (a norm, a scale, a
  residual, a radius) to a relative ``REL_TOL`` above an absolute ``ABS_FLOOR``;
  a float inside a list (a coordinate of a point or a witness) is only typed;
- for text output, every line with each number replaced by ``#``.

So roundoff in the last digits of a norm, in the imaginary part of a real
eigenvalue or in a witness passes; a changed verdict, exit code, message,
point count or key fails and names the command. An intended change of
behaviour edits the entries it changes, in the same change as the code.

    python tests/test_cli_contract.py    # record the contract from this checkout
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import runpy
import sys
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONTRACT = pathlib.Path(__file__).with_name("cli_contract.json")
BATTERY_ARGV = ["--trials", "3"]
REL_TOL = 1e-6
ABS_FLOOR = 1e-10  # the default abs_tol: a gap below it is under every zero test's resolution
FLOAT = "~float"
REPORTED = ("error:", "diagnostics:")  # the only stderr lines a command may leave
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?j?")


def _masked(text: str) -> list[str]:
    return [_NUMBER.sub("#", line) for line in text.splitlines()]


def _skeleton(value, named: bool = False):
    """``value`` with each float inside a list replaced by the FLOAT marker and
    each number inside a string by ``#``."""
    if isinstance(value, str):
        return _NUMBER.sub("#", value)
    if isinstance(value, dict):
        return {k: _skeleton(v, named=True) for k, v in value.items()}
    if isinstance(value, list):
        return [_skeleton(v) for v in value]
    if isinstance(value, float) and not named:
        return FLOAT
    return value


def _record(argv: str, code: int, stdout: str, stderr: str) -> dict:
    out = json.loads(stdout) if stdout.startswith("{") else _masked(stdout)
    return {
        "argv": argv,
        "exit": code,
        "errors": [line for line in _masked(stderr) if line.startswith("error:")],
        "stdout": out,
    }


def _mismatches(expected, actual, path: str = ""):
    """Every place where ``actual`` leaves the recorded skeleton ``expected``."""
    if expected == FLOAT:
        if not isinstance(actual, float):
            yield f"{path}: expected a float, got {actual!r}"
    elif isinstance(expected, float):
        if not (isinstance(actual, float) and abs(actual - expected) <= max(
            REL_TOL * max(abs(expected), abs(actual)), ABS_FLOOR
        )):
            yield f"{path}: expected {expected!r}, got {actual!r}"
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            yield f"{path}: keys {sorted(expected)} != {sorted(actual)}"
        for key in expected.keys() & actual.keys():
            yield from _mismatches(expected[key], actual[key], f"{path}/{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{path}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _mismatches(e, a, f"{path}/{i}")
    elif isinstance(expected, str) and isinstance(actual, str):
        if _skeleton(expected) != _skeleton(actual):
            yield f"{path}: expected {expected!r}, got {actual!r}"
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{path}: expected {expected!r}, got {actual!r}"


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    """Print a warning to the current ``sys.stderr``, as Python does outside a test runner."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def observed() -> tuple[list[dict], dict[str, list[str]]]:
    """The entries of this checkout, floats in full: each snapshot command, then the
    battery; and the stderr lines other than ``REPORTED`` ones, by command."""
    snapshot = runpy.run_path(str(ROOT / "scripts" / "snapshot_cli.py"))
    battery = runpy.run_path(str(ROOT / "scripts" / "run_paper_audits.py"))
    entries, stderrs, cwd, saved_argv = [], [], pathlib.Path.cwd(), sys.argv
    with warnings.catch_warnings():
        warnings.showwarning = _show_on_stderr
        try:
            os.chdir(ROOT)
            for argv in snapshot["commands"]():
                record = snapshot["run"](argv)
                head, rest = record.split("\n--- stdout\n", 1)
                stdout, stderr = rest.split("--- stderr\n", 1)
                code = int(head.rsplit("exit: ", 1)[1])
                entries.append(_record(" ".join(argv), code, stdout, stderr))
                stderrs.append(stderr)
            stdout, stderr = io.StringIO(), io.StringIO()
            sys.argv = ["run_paper_audits.py", *BATTERY_ARGV]
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("default")
                code = battery["main"]()
        finally:
            os.chdir(cwd)
            sys.argv = saved_argv
    stderrs.append(stderr.getvalue())
    entries.append(_record("run_paper_audits.py " + " ".join(BATTERY_ARGV), code, stdout.getvalue(), stderrs[-1]))
    stray = {e["argv"]: [line for line in text.splitlines() if not line.startswith(REPORTED)]
             for e, text in zip(entries, stderrs)}
    return entries, {argv: lines for argv, lines in stray.items() if lines}


@pytest.fixture(scope="module")
def observation():
    return observed()


def test_cli_contract_holds(observation):
    expected = json.loads(CONTRACT.read_text(encoding="utf-8"))
    actual, _ = observation
    assert [e["argv"] for e in actual] == [e["argv"] for e in expected]
    failures = []
    for exp, act in zip(expected, actual):
        found = list(_mismatches(exp, act))
        if found:
            failures.append(f"{exp['argv']}:\n    " + "\n    ".join(found[:5]))
    assert not failures, "the CLI contract changed:\n" + "\n".join(failures)


def test_commands_leave_only_error_and_diagnostics_lines_on_stderr(observation):
    _, stray = observation
    assert not stray, "stray stderr lines:\n" + "\n".join(
        f"{argv}:\n    " + "\n    ".join(lines[:5]) for argv, lines in stray.items()
    )


def test_contract_tolerates_roundoff_and_flags_a_verdict():
    expected = _skeleton({"norms": {"defect_norm": 1.5e-16, "spectral_radius": 1.2720196495140689},
                          "lambda": [[0.84, 3.9e-18]], "holds": True, "seed": 7})
    roundoff = {"norms": {"defect_norm": 2.2e-16, "spectral_radius": 1.2720196495140687},
                "lambda": [[0.84, -2.5e-19]], "holds": True, "seed": 7}
    assert list(_mismatches(expected, roundoff)) == []
    flipped = dict(roundoff, holds=False)
    assert list(_mismatches(expected, flipped)) == ["/holds: expected True, got False"]
    moved = dict(roundoff, norms={"defect_norm": 2e-16, "spectral_radius": 1.28})
    assert [m.split(":")[0] for m in _mismatches(expected, moved)] == ["/norms/spectral_radius"]
    assert list(_mismatches(expected, dict(roundoff, lambda_=[]))) != []
    assert list(_mismatches(_skeleton({"observed": "(0+0j)"}), {"observed": "(1e-17-2e-19j)"})) == []
    assert _masked("witness = (0.5946035575+4.399610337e-18j, -9.5e-17-9.3e-18j)") == _masked(
        "witness = (0.5946035575-1.1e-19j, 3e-17+0j)"
    )


if __name__ == "__main__":
    entries = [{**e, "stdout": _skeleton(e["stdout"])} for e in observed()[0]]
    CONTRACT.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {CONTRACT}")
