import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from opertuple import defects
from opertuple.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_classify_example_2_2(capsys):
    code, out = run(
        capsys, "classify", "--input", str(DATA / "example_2_2.json"), "--m", "2", "--q", "1,1"
    )
    assert code == 0
    assert "partial_isometry:      False" in out


def test_classify_json_mode(capsys):
    code, out = run(
        capsys,
        "classify",
        "--input",
        str(DATA / "example_2_1_d2.json"),
        "--m",
        "1",
        "--q",
        "1,1",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["partial_isometry"] is True


def test_classify_falls_back_to_file_m_q(capsys):
    code, out = run(capsys, "classify", "--input", str(DATA / "example_2_2.json"), "--json")
    assert code == 0
    assert json.loads(out)["m"] == 2


def test_classify_missing_file_exits_2(capsys):
    code, _ = run(capsys, "classify", "--input", "no-such-file.json", "--m", "1", "--q", "1")
    assert code == 2


def test_classify_bad_q_exits_2(capsys):
    code, _ = run(
        capsys, "classify", "--input", str(DATA / "example_2_2.json"), "--m", "2", "--q", "1,x"
    )
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_classify_non_finite_tol_exits_2(capsys, value):
    code, out = run(
        capsys, "classify", "--input", str(DATA / "example_2_1_d2.json"), "--tol", value
    )
    assert code == 2
    assert out == ""


def test_spectrum_golden(capsys):
    code, out = run(capsys, "spectrum", "--input", str(DATA / "golden_ratio_d2.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spectral_radius"] == pytest.approx(1.2720196495140689, abs=1e-8)
    assert len(doc["point_spectrum"]) == 2


def test_numerical_failure_prints_diagnostics(capsys, monkeypatch):
    kernel = defects._state_levels

    def residue_in_column_1(t, y, kmax):
        levels = kernel(t, y, kmax)
        levels[0, 1] += 1j
        return levels

    monkeypatch.setattr(defects, "_state_levels", residue_in_column_1)
    code = main(["audit", "--claim", "thm2.1", "--input", str(DATA / "example_2_2.json"), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error, diagnostics = captured.err.splitlines()
    assert error == "error: scalar defect has a non-negligible imaginary part"
    prefix, _, payload = diagnostics.partition(" ")
    assert prefix == "diagnostics:"
    assert list(json.loads(payload)) == ["column", "imag", "scale"]
    assert json.loads(payload)["column"] == 1


def test_audit_battery_script_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_paper_audits.py"), "--trials", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "audit battery complete; all results as documented" in proc.stdout.splitlines()


def test_audit_file_pass_and_fail(capsys):
    code, _ = run(
        capsys, "audit", "--claim", "thm4.1", "--input", str(DATA / "example_4_1_corrected.json")
    )
    assert code == 0
    code, out = run(
        capsys,
        "audit",
        "--claim",
        "thm4.1",
        "--input",
        str(DATA / "scalar_counterexample_thm4_1.json"),
    )
    assert code == 1
    assert "counterexamples found" in out


def test_audit_thm41_without_partner_exits_2(capsys):
    code, _ = run(
        capsys, "audit", "--claim", "thm4.1", "--input", str(DATA / "example_2_2.json")
    )
    assert code == 2


def test_audit_requires_input_xor_random(capsys):
    code, _ = run(capsys, "audit", "--claim", "thm2.1")
    assert code == 2
    code, _ = run(
        capsys,
        "audit",
        "--claim",
        "thm2.1",
        "--input",
        str(DATA / "example_2_2.json"),
        "--random",
        "3",
    )
    assert code == 2


def test_audit_random_prop41_reports_finding(capsys):
    code, out = run(
        capsys, "audit", "--claim", "prop4.1", "--random", "3", "--seed", "7", "--json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["all_conclusions_hold"] is False
    assert any(
        "binomial" in sv["name"] and sv["conclusion_holds"]
        for rep in doc["reports"]
        for sv in rep["sub_verdicts"]
    )


def test_audit_unknown_claim_exits_2(capsys):
    code, _ = run(capsys, "audit", "--claim", "thm9.9", "--random", "2")
    assert code == 2


def test_json_output_byte_stable(capsys):
    args = ("audit", "--claim", "thm3.1", "--random", "4", "--seed", "11", "--json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_seed_env_var_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("OPERTUPLE_SEED", "1234")
    _, out = run(capsys, "spectrum", "--input", str(DATA / "golden_ratio_d2.json"), "--json")
    assert json.loads(out)["seed"] == 1234
    _, out = run(
        capsys,
        "spectrum",
        "--input",
        str(DATA / "golden_ratio_d2.json"),
        "--seed",
        "9",
        "--json",
    )
    assert json.loads(out)["seed"] == 9
    monkeypatch.setenv("OPERTUPLE_SEED", "not-a-number")
    code, _ = run(capsys, "spectrum", "--input", str(DATA / "golden_ratio_d2.json"))
    assert code == 2


@pytest.mark.parametrize(
    "example", ["2.1(1)", "2.1(2)", "2.1(3)", "2.2", "3.golden(2)", "4.1-as-printed", "4.1-corrected"]
)
def test_reproduce_all_examples_match(capsys, example):
    code, out = run(capsys, "reproduce", "--example", example)
    assert code == 0
    assert "all quantities match" in out


def test_reproduce_2_2_shows_sqrt3(capsys):
    code, out = run(capsys, "reproduce", "--example", "2.2")
    assert code == 0
    assert "1.7320508" in out


def test_reproduce_unknown_example_exits_2(capsys):
    code, _ = run(capsys, "reproduce", "--example", "7.7")
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert main(["bogus-subcommand"]) == 2
    assert main(["classify"]) == 2  # missing --input
    assert main([]) == 2
    out = capsys.readouterr()
    assert out  # argparse wrote usage text somewhere


@settings(max_examples=25, deadline=None)
@given(st.text(max_size=200))
def test_malformed_input_always_exits_2(tmp_path_factory, junk):
    # the exit-status contract over arbitrary (almost surely invalid) files;
    # any junk that fails to parse as a tuple file must exit 2
    path = tmp_path_factory.mktemp("junk") / "file.json"
    path.write_text(junk, encoding="utf-8")
    code = main(["classify", "--input", str(path), "--m", "1", "--q", "1"])
    assert code == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
