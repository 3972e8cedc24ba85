"""The test session's own set-up: a failing property test is reported like any other failure."""

import os
import pathlib
import shutil
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent

_TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_after_it():
    pass
"""


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    # with every warning an error, hypothesis's failure report would raise libcst's
    # DeprecationWarning in a pytest hook and stop the session; the conftest pre-loads it
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, env=env,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("FAILED test_two.py::test_a_failing_property") for line in lines)
    assert "test_two.py::test_after_it PASSED" in proc.stdout
    assert "1 failed, 1 passed" in lines[-1]
