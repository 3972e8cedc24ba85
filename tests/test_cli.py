import ast
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opertuple import cli, defects, spectra, tuples
from opertuple.cli import main
from opertuple.linalg import ToleranceModel
from opertuple.minverse import audit_theorem_4_2
from opertuple.reports import report_to_dict
from opertuple.generators import random_unitary
from opertuple.tuplefile import MAX_EXAMPLE_D, MAX_ORDER, parse_partner, parse_tuple_file, serialize_tuple_file
from opertuple.tuples import make_tuple

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


@pytest.mark.parametrize(
    "extra", [["--m", "1100"], ["--m", "500", "--json"], ["--m", str(MAX_ORDER + 1)]]
)
def test_classify_order_above_maximum_exits_2_before_any_level(capsys, monkeypatch, extra):
    def no_levels(*args):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(defects, "power_levels", no_levels)
    code, out = run(
        capsys, "classify", "--input", str(DATA / "example_2_2.json"), "--q", "1,1", *extra
    )
    assert code == 2
    assert out == ""


def test_tuple_file_order_above_maximum_exits_2(capsys, tmp_path):
    doc = json.loads((DATA / "example_2_2.json").read_text())
    doc["m"] = MAX_ORDER + 1
    path = tmp_path / "high_order.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "classify", "--input", str(path), "--json") == (2, "")
    assert run(capsys, "audit", "--claim", "thm2.1", "--input", str(path), "--json") == (2, "")


def test_integer_literal_past_the_float_range_exits_2(capsys, tmp_path):
    path = tmp_path / "huge_literal.json"
    path.write_text('{"d": 1, "dim": 1, "m": 1, "q": [1], "matrices": [[[[1' + "0" * 400 + ', 0]]]]}')
    code = main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: /matrices/0/0/0/0: expected a finite number")


# Tuple files whose malformed node is large: the error line echoes only its start.
LARGE_NODES = {
    "long-entry": '{"d": 1, "dim": 1, "matrices": [[[[' + ", ".join(["0"] * 100000) + "]]]]}",
    "long-d": '{"d": [' + ", ".join(["0"] * 50000) + '], "dim": 1, "matrices": [[[[0, 0]]]]}',
    "long-q": '{"d": 1, "dim": 1, "matrices": [[[[0, 0]]]], "q": [[' + ", ".join(["0"] * 50000) + "]]}",
    "deep-entry": '{"d": 1, "dim": 1, "matrices": [[[' + "[" * 900 + "]" * 900 + "]]]}",
}


@pytest.mark.parametrize("text", LARGE_NODES.values(), ids=list(LARGE_NODES))
def test_large_malformed_node_echoes_a_bounded_value(capsys, tmp_path, text):
    path = tmp_path / "large.json"
    path.write_text(text)
    code = main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: /") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 600


@pytest.mark.parametrize("where", ["d", "matrices"])
def test_integer_literal_past_the_digit_limit_exits_2(capsys, tmp_path, where):
    # json.loads refuses an integer literal past sys.get_int_max_str_digits() (4300) with ValueError
    literal = "1" + "0" * 5000
    path = tmp_path / "long_literal.json"
    path.write_text(
        f'{{"d": {literal}, "dim": 1, "matrices": [[[[0, 0]]]]}}' if where == "d"
        else f'{{"d": 1, "dim": 1, "matrices": [[[[{literal}, 0]]]]}}'
    )
    code = main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: /: not valid JSON")


@pytest.mark.parametrize("where", ["bare array", "matrices"])
@pytest.mark.parametrize("command", [["classify"], ["audit", "--claim", "thm2.1"]], ids=["classify", "audit"])
def test_deeply_nested_tuple_file_exits_2(capsys, tmp_path, where, command):
    # json.loads raises RecursionError past ~1000 levels; the file is malformed input
    nested = "[" * 100000 + "]" * 100000
    path = tmp_path / "nested.json"
    path.write_text(nested if where == "bare array" else '{"d": 1, "dim": 1, "matrices": ' + nested + "}")
    code = main([*command, "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: /: not valid JSON (nested too deeply)\n"


@pytest.mark.parametrize("trials", [0, cli.MAX_TRIALS + 1, 10**23])
def test_random_trial_count_outside_the_bound_exits_2(capsys, trials):
    # checked before any child seed is spawned: 10**23 children overflow SeedSequence.spawn
    code = main(["audit", "--claim", "thm2.1", "--random", str(trials)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: --random must be a trial count from 1 to {cli.MAX_TRIALS}, got {trials}\n"


@pytest.mark.parametrize("d", [1, 2])
def test_spectrum_past_the_square_root_of_the_float_range(capsys, tmp_path, d):
    # T_1 = diag(1e160, 2e160), the other components zero: every squared entry overflows
    big = [[[1e160, 0], [0, 0]], [[0, 0], [2e160, 0]]]
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    path = tmp_path / "huge_diag.json"
    path.write_text(json.dumps({"d": d, "dim": 2, "matrices": [big] + [zero] * (d - 1)}))
    code = main(["spectrum", "--input", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["spectral_radius"] == 2e160
    points = sorted(point["lambda"][0][0] for point in doc["point_spectrum"])
    assert points == pytest.approx([1e160, 2e160], rel=1e-12)
    assert all(point["lambda"][1:] == [[0.0, 0.0]] * (d - 1) for point in doc["point_spectrum"])


def test_spectrum_on_a_commuting_pair_whose_products_overflow(capsys, tmp_path):
    # (T, T) with T = diag(1e160, 2e160): T T overflows, yet the pair commutes
    big = [[[1e160, 0], [0, 0]], [[0, 0], [2e160, 0]]]
    path = tmp_path / "huge_pair.json"
    path.write_text(json.dumps({"d": 2, "dim": 2, "matrices": [big, big]}))
    code = main(["spectrum", "--input", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    points = sorted(point["lambda"][1][0] for point in json.loads(captured.out)["point_spectrum"])
    assert points == pytest.approx([1e160, 2e160], rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_spectrum_of_a_nilpotent_pair_near_the_float_maximum(capsys, tmp_path, seed):
    # (N, N) with N = [[0, 1.5e308], [0, 0]]: finite entries, whose drawn combination and
    # certificate sum sum_j g_j U_j would overflow if formed as written
    big = [[[0, 0], [1.5e308, 0]], [[0, 0], [0, 0]]]
    path = tmp_path / "huge_nilpotent_pair.json"
    path.write_text(json.dumps({"d": 2, "dim": 2, "matrices": [big, big]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["spectrum", "--input", str(path), "--seed", str(seed), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "" and [str(w.message) for w in caught] == []
    doc = json.loads(captured.out)
    assert [point["lambda"] for point in doc["point_spectrum"]] == [[[0.0, 0.0], [0.0, 0.0]]]
    assert doc["spectral_radius"] == 0.0


@pytest.mark.parametrize("command", [["classify"], ["audit", "--claim", "prop2.1"]])
def test_overflowing_defect_on_a_huge_commuting_pair_prints_the_two_lines(capsys, tmp_path, command):
    # (T, T) with T = diag(1e160, 2e160) commutes, but T* T, T^(1,1) and the level sums overflow
    big = [[[1e160, 0], [0, 0]], [[0, 0], [2e160, 0]]]
    path = tmp_path / "huge_pair.json"
    path.write_text(json.dumps({"d": 2, "dim": 2, "m": 1, "q": [1, 1], "matrices": [big, big]}))
    code = main([*command, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: defect is not finite: its level sums overflow",
        'diagnostics: {"m": 1, "norm": "nan", "scale": "nan"}',
    ]


@pytest.mark.parametrize("command", [["spectrum"], ["audit", "--claim", "thm3.1"], ["audit", "--claim", "prop3.2"]])
def test_eigenvalue_past_the_float_range_prints_the_two_lines(capsys, tmp_path, command):
    # T = [[1e308, 1e308], [1e308, 1e308]]: finite entries, but the eigenvalue 2e308 is not;
    # its factors are found at unit magnitude and refused where they are scaled back
    big = [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]
    path = tmp_path / "huge_eigenvalue.json"
    path.write_text(json.dumps({"d": 1, "dim": 2, "m": 1, "q": [1], "matrices": [big]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*command, "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [
        "error: a spectral value passes the float range",
        'diagnostics: {"binary_exponent": 1025}',
    ]
    assert [str(w.message) for w in caught] == []


def test_thm2_1_on_an_overflowing_power_prints_the_two_lines(capsys, tmp_path):
    # T = diag(1e110, 2e110): T^3 overflows, and thm2.1 tests N(T^q) before any defect
    path = tmp_path / "huge_power.json"
    big = [[[1e110, 0], [0, 0]], [[0, 0], [2e110, 0]]]
    path.write_text(json.dumps({"d": 1, "dim": 2, "m": 1, "q": [3], "matrices": [big]}))
    code = main(["audit", "--claim", "thm2.1", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: T^q is not finite: the power overflows",
        'diagnostics: {"q": [3]}',
    ]


def test_spectrum_rejects_a_huge_non_commuting_pair(capsys, tmp_path):
    path = tmp_path / "huge_nilpotent.json"
    big = [[[1e160, 0], [0, 0]], [[0, 0], [0, 0]]]
    nilpotent = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    path.write_text(json.dumps({"d": 2, "dim": 2, "matrices": [big, nilpotent]}))
    code = main(["spectrum", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [error] = captured.err.splitlines()
    assert error == "error: components 0 and 1 do not commute: ||[T_0, T_1]||_F = 1.000e+160 > 1.000e+150"


def test_classify_at_maximum_order_emits_json(capsys):
    code, out = run(
        capsys, "classify", "--input", str(DATA / "example_2_2.json"), "--q", "1,1",
        "--m", str(MAX_ORDER), "--json",
    )
    assert code == 0
    assert json.loads(out)["m"] == MAX_ORDER


def test_thm2_1_at_maximum_order_with_weights_past_int64(capsys, tmp_path):
    # d = 5, m = 32: the weights k!/alpha! reach ~3e19, past the signed 64-bit range;
    # they are float64 multipliers, so the audit runs to its verdict
    path = tmp_path / "d5_m32.json"
    matrices = [[[[0.5, 0.0]]]] * 5
    path.write_text(json.dumps({"d": 5, "dim": 1, "m": MAX_ORDER, "q": [0] * 5, "matrices": matrices}))
    code = main(["audit", "--claim", "thm2.1", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "all binding conclusions hold" in captured.out


def test_tuple_file_d_above_the_bound_exits_2_before_any_commutator(capsys, monkeypatch, tmp_path):
    def no_commutator(*args):
        raise AssertionError("a commutator was formed")

    monkeypatch.setattr(tuples, "_commutator_norm", no_commutator)
    path = tmp_path / "d17.json"
    d = MAX_EXAMPLE_D + 1
    path.write_text(json.dumps({"d": d, "dim": 1, "m": 1, "q": [1] * d, "matrices": [[[[0.5, 0.0]]]] * d}))
    for argv in (["classify"], ["spectrum"], ["audit", "--claim", "thm2.1"]):
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: /d: expected an integer <= 16, got 17\n")


def _m32_file(tmp_path, d, dim=1):
    """A tuple file of d components 0.5 I (dim x dim), m = MAX_ORDER and q = 0."""
    path = tmp_path / f"d{d}_dim{dim}_m32.json"
    half = [[[0.5 * (i == j), 0.0] for j in range(dim)] for i in range(dim)]
    path.write_text(json.dumps({"d": d, "dim": dim, "m": MAX_ORDER, "q": [0] * d, "matrices": [half] * d}))
    return path


@pytest.mark.parametrize("claim, order, nodes", [("thm2.1", 32, 2760681), ("prop2.4", 33, 3262623)])
def test_vector_state_walk_past_the_bound_exits_2_before_any_node(
    capsys, monkeypatch, tmp_path, claim, order, nodes
):
    # d = 6, m = 32: C(m + d, d) nodes, C(m + 1 + d, d) for prop2.4's tree of depth m + 1
    def no_walk(*args):
        raise AssertionError("a prefix-tree node was formed")

    monkeypatch.setattr(defects, "prefix_tree", no_walk)
    assert main(["audit", "--claim", claim, "--input", str(_m32_file(tmp_path, 6))]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: the vector-state walk at d = 6, order {order} has {nodes} nodes, "
        "more than MAX_STATE_NODES = 524288\n",
    )


@pytest.mark.parametrize("claim, order, products", [("thm2.1", 32, 114267783168), ("prop2.4", 33, 131581083648)])
def test_vector_state_walk_past_the_work_bound_exits_2_before_any_node(
    capsys, monkeypatch, tmp_path, claim, order, products
):
    # d = 5, m = 32 at dim 64 on the 64 basis states: the nodes pass MAX_STATE_NODES'
    # test, but C(m + d, d) x 64^2 x 64 multiply-adds are about 2^37
    def no_walk(*args):
        raise AssertionError("a prefix-tree node was formed")

    monkeypatch.setattr(defects, "prefix_tree", no_walk)
    assert main(["audit", "--claim", claim, "--input", str(_m32_file(tmp_path, 5, dim=64))]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: the vector-state walk at d = 5, order {order} on 64 states of dim 64 takes {products} "
        "multiply-adds, more than MAX_STATE_PRODUCTS = 4294967296\n",
    )


def test_vector_state_bound_admits_d5_at_maximum_order(capsys, monkeypatch, tmp_path):
    # prop2.4 at d = 5, m = 32 walks C(38, 5) = 501,942 nodes; thm2.1's 435,897 run in
    # test_thm2_1_at_maximum_order_with_weights_past_int64. Here the walk is left empty.
    monkeypatch.setattr(defects, "prefix_tree", lambda *args: iter(()))
    assert main(["audit", "--claim", "prop2.4", "--input", str(_m32_file(tmp_path, 5))]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_overflowing_defect_is_a_numerical_failure(capsys, tmp_path):
    # ||L_k|| = 1e20^k leaves the float range at k = 16 <= MAX_ORDER; no numpy warning
    # may reach stderr ahead of the two documented lines
    path = tmp_path / "huge.json"
    doc = {"d": 1, "dim": 1, "m": MAX_ORDER, "q": [1], "matrices": [[[[1e10, 0]]]]}
    path.write_text(json.dumps(doc))
    single = [c for c, claim in cli.CLAIMS.items() if claim.partner is None]
    for argv in [["classify"]] + [["audit", "--claim", c] for c in single]:
        code = main([*argv, "--input", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        error, diagnostics = captured.err.splitlines()
        assert error == "error: defect is not finite: its level sums overflow"
        prefix, _, payload = diagnostics.partition(" ")
        assert prefix == "diagnostics:"
        assert json.loads(payload)["m"] == MAX_ORDER


@pytest.mark.parametrize("claim", [c for c, claim in cli.CLAIMS.items() if claim.partner])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_overflowing_beta_is_a_numerical_failure(capsys, tmp_path, claim, fmt):
    # T = S = [[1e10]]: beta_k = (1e20 - 1)^k leaves the float range well before m = 32
    path = tmp_path / "huge_pair.json"
    huge = [[[[1e10, 0]]]]
    partners = {"left_inverse": {"matrices": huge}, "right_inverse": {"matrices": huge}}
    doc = {"d": 1, "dim": 1, "m": MAX_ORDER, "matrices": huge, "metadata": partners}
    path.write_text(json.dumps(doc))
    code = main(["audit", "--claim", claim, "--input", str(path), *fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error, diagnostics = captured.err.splitlines()
    assert error == "error: beta is not finite: its levels overflow"
    prefix, _, payload = diagnostics.partition(" ")
    assert prefix == "diagnostics:"
    assert sorted(json.loads(payload)) == ["m", "norm", "scale"]
    assert json.loads(payload)["m"] == MAX_ORDER


def test_overflowing_power_sum_prints_the_two_lines(capsys, tmp_path):
    # S T = diag(1e400, 6e400): the first level of the power sums overflows
    path = tmp_path / "huge_power_sum.json"
    t = [[[1e200, 0], [0, 0]], [[0, 0], [2e200, 0]]]
    s = [[[1e200, 0], [0, 0]], [[0, 0], [3e200, 0]]]
    doc = {"d": 1, "dim": 2, "m": 1, "matrices": [t], "metadata": {"left_inverse": {"matrices": [s]}}}
    path.write_text(json.dumps(doc))
    code = main(["audit", "--claim", "prop4.1", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: power sum is not finite: its levels overflow",
        'diagnostics: {"k": 1, "n": 6}',
    ]


def test_a_partner_below_the_images_scale_exits_zero(capsys, tmp_path):
    # S = diag(1e-300, 2e-300) beside T = diag(1e-9, 2): in S's unit-scaled copy the image
    # 1e9 of T's point 1e-9 passes the float range; it is reported missing, not a failure
    path = tmp_path / "tiny_partner.json"
    t = [[[1e-9, 0], [0, 0]], [[0, 0], [2, 0]]]
    s = [[[1e-300, 0], [0, 0]], [[0, 0], [2e-300, 0]]]
    doc = {"d": 1, "dim": 2, "m": 1, "matrices": [t], "metadata": {"left_inverse": {"matrices": [s]}}}
    path.write_text(json.dumps(doc))
    code = main(["audit", "--claim", "thm4.1", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "witness: missing image point = (1000000000+0j)" in captured.out


def test_overflowing_commutator_prints_only_the_error_line(capsys, tmp_path):
    path = tmp_path / "huge_pair.json"
    rows = [[[1e200, 0], [1e200, 0]], [[0, 0], [0, 0]]]
    doc = {"d": 2, "dim": 2, "m": 1, "q": [1, 1], "matrices": [rows, rows[::-1]]}
    path.write_text(json.dumps(doc))
    code = main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [error] = captured.err.splitlines()
    assert error.startswith("error: components 0 and 1 do not commute: ||[T_0, T_1]||_F = inf")


def test_non_finite_json_never_reaches_stdout(capsys, monkeypatch):
    result = spectra.joint_spectrum
    monkeypatch.setattr(
        spectra, "joint_spectrum", lambda *a: dataclasses.replace(result(*a), spectral_radius=math.nan)
    )
    code, out = run(capsys, "spectrum", "--input", str(DATA / "golden_ratio_d2.json"), "--json")
    assert code == 2
    assert out == ""


def test_audit_battery_script_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_paper_audits.py"), "--trials", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "audit battery complete; all results as documented" in lines
    random_batches = [line.split()[1] for line in lines if " on 2 random instances: " in line]
    assert random_batches == list(cli.CLAIMS)


# Runs ``python -m opertuple.cli ARGS`` in a fresh interpreter and reports on
# stderr's last two lines the opertuple modules it loaded and whether scipy was
# imported along the way.
_MODULE_RUN_WRAPPER = """
import runpy, sys
sys.argv = ["opertuple"] + sys.argv[1:]
try:
    runpy.run_module("opertuple.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("opertuple modules:", *sorted(m for m in sys.modules if m.startswith("opertuple.")), file=sys.stderr)
print("scipy loaded:", "scipy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _cold_run(*argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", _MODULE_RUN_WRAPPER, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_cold_classify_never_loads_scipy():
    proc = _cold_run("classify", "--input", str(DATA / "example_2_1_d2.json"), "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["partial_isometry"] is True
    assert proc.stderr.splitlines()[-1] == "scipy loaded: False"


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--input", str(DATA / "golden_ratio_d2.json"), "--json"),
        ("audit", "--claim", "thm3.1", "--input", str(DATA / "golden_ratio_d2.json")),
        ("audit", "--claim", "prop3.2", "--input", str(DATA / "example_2_1_d2.json")),
        ("audit", "--claim", "thm4.1", "--input", str(DATA / "example_4_1_corrected.json")),
        ("reproduce", "--example", "3.golden(2)"),
    ],
    ids=["spectrum", "thm3.1", "prop3.2", "thm4.1", "reproduce-3.golden"],
)
def test_cold_command_never_loads_scipy(argv):
    # classify is covered by test_cold_classify_never_loads_scipy
    proc = _cold_run(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "scipy loaded: False"


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("classify", "--input", str(DATA / "example_2_2.json")), ("spectra", "minverse", "generators")),
        (("spectrum", "--input", str(DATA / "golden_ratio_d2.json")), ("defects", "minverse", "generators")),
    ],
    ids=["classify", "spectrum"],
)
def test_cold_command_loads_only_the_modules_it_runs(argv, unused):
    proc = _cold_run(*argv)
    assert proc.returncode == 0, proc.stderr
    label, _, loaded = proc.stderr.splitlines()[-2].partition(": ")
    assert label == "opertuple modules"
    assert "opertuple.tuplefile" in loaded.split()
    assert [m for m in unused if f"opertuple.{m}" in loaded.split()] == []


# An import statement naming scipy, or a dynamic import of it.
_SCIPY_IMPORT = re.compile(
    r"^\s*(from\s+scipy\b|import\b.*\bscipy\b)|import\w*\(\s*[\"']scipy\b", re.MULTILINE
)


def test_package_source_never_imports_scipy():
    sources = sorted((ROOT / "src" / "opertuple").rglob("*.py"))
    assert sources
    assert [path.name for path in sources if _SCIPY_IMPORT.search(path.read_text())] == []
    assert _SCIPY_IMPORT.search("    import scipy.linalg  # lazily")


def test_package_source_calls_frexp_only_in_linalg():
    # every power-of-two scaling reads its exponent off linalg.binary_exponent
    sources = sorted((ROOT / "src" / "opertuple").rglob("*.py"))
    assert sources
    assert [path.name for path in sources if "frexp" in path.read_text()] == ["linalg.py"]


# What scales a spectral quantity by a power of two, or silences the overflow of an unscaled one.
_SCALING = re.compile(r"np\.errstate|math\.ldexp|binary_exponent")


def test_spectra_scales_only_in_its_unit_copy_step():
    # every spectral decision is taken on one unit-scaled copy of T (tuples.unit_copy), whose
    # outputs tuples.scaled multiplies back; spectra imports both and rescales nowhere itself
    def scaling(name):
        source = (ROOT / "src" / "opertuple" / name).read_text()
        return [
            getattr(node, "name", type(node).__name__)
            for node in ast.parse(source).body
            if _SCALING.search(ast.get_source_segment(source, node))
        ]

    assert scaling("spectra.py") == []
    assert {"unit_copy", "scaled"} <= set(scaling("tuples.py"))
    assert (spectra.unit_copy, spectra.scaled) == (tuples.unit_copy, tuples.scaled)
    assert _SCALING.search("    with np.errstate(over='ignore'):")


def test_commutator_norms_are_formed_only_by_the_table_and_the_exact_triple_test():
    # every commutation decision reads one table (tuples._commutator_table); the one other
    # call of tuples._commutator_norm is quasinormal_class's exact test of a triple (and of the ball)
    def calls(node):
        called = [c.func for c in ast.walk(node) if isinstance(c, ast.Call)]
        return sum("_commutator_norm" in (getattr(f, "id", None), getattr(f, "attr", None)) for f in called)

    found = {
        (path.name, getattr(node, "name", type(node).__name__)): count
        for path in sorted((ROOT / "src" / "opertuple").rglob("*.py"))
        for node in ast.parse(path.read_text()).body
        if (count := calls(node))
    }
    assert found == {("tuples.py", "_commutator_table"): 1, ("tuples.py", "quasinormal_class"): 1}


# A string literal that starts with a worked-example id.
_EXAMPLE_ID_LITERAL = re.compile(r"""["'](?:2\.1|2\.2|3\.golden|4\.1)(?!\d)""")


def test_example_ids_are_named_only_in_the_registry():
    sources = sorted((ROOT / "src" / "opertuple").rglob("*.py"))
    assert sources
    named = [path.name for path in sources if _EXAMPLE_ID_LITERAL.search(path.read_text())]
    assert named == ["generators.py"]
    assert _EXAMPLE_ID_LITERAL.search('    elif ex.id in ("4.1-as-printed", "4.1-corrected"):')
    assert not _EXAMPLE_ID_LITERAL.search('"thm2.1", "prop4.1", "ex4.1: ...", "2.10"')


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


@pytest.mark.parametrize("seed", range(10))
def test_audit_thm41_counterexample_fails_under_unitary_conjugation(capsys, tmp_path, seed):
    # V T V* and V S V* for the shipped scalar counterexample (T, S): the pair is the same up to
    # roundoff, its one point maps off the partner's, and the audit still finds the counterexample
    parsed = parse_tuple_file((DATA / "scalar_counterexample_thm4_1.json").read_text())
    v = random_unitary(2, np.random.default_rng(seed))
    moved = [np.stack([v @ m @ v.conj().T for m in t]) for t in (parsed.tuple, parse_partner(parsed, "left_inverse"))]
    path = tmp_path / "conjugated.json"
    path.write_text(
        serialize_tuple_file(make_tuple(moved[0]), m=1, metadata={"left_inverse": {"matrices": moved[1]}})
    )
    code, out = run(capsys, "audit", "--claim", "thm4.1", "--input", str(path))
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


@pytest.mark.parametrize("claim", list(cli.CLAIMS))
def test_registry_runs_each_claims_own_audit(capsys, claim):
    code, out = run(capsys, "audit", "--claim", claim, "--random", "2", "--seed", "5", "--json")
    assert code == (1 if claim == "prop4.1" else 0)  # prop4.1: the Pochhammer finding
    reports = json.loads(out)["reports"]
    assert len(reports) == 2
    assert {r["claim_id"] for r in reports} == {claim}


def test_audit_thm42_reads_right_inverse_from_file(capsys, tmp_path):
    s, t = cli._shifted_invertible_pair(123)
    path = tmp_path / "right_inverse.json"
    partner = {"right_inverse": {"matrices": np.stack(s.matrices)}}
    path.write_text(serialize_tuple_file(t, m=1, metadata=partner))
    code, out = run(capsys, "audit", "--claim", "thm4.2", "--input", str(path), "--seed", "7", "--json")
    assert code == 0
    expected = report_to_dict(audit_theorem_4_2(s, t, 1, ToleranceModel(), 7))
    assert json.loads(out)["reports"] == [json.loads(json.dumps(expected))]


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


def test_cli_snapshots_byte_stable(tmp_path):
    script = ROOT / "scripts" / "snapshot_cli.py"
    for name in ("first", "second"):
        subprocess.run([sys.executable, str(script), str(tmp_path / name)], check=True, capture_output=True)
    first = sorted((tmp_path / "first").iterdir())
    assert len(first) == 141
    for path in first:
        assert path.read_bytes() == (tmp_path / "second" / path.name).read_bytes(), path.name


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


# audit thm2.1 on a file draws nothing; reproduce 3.golden(2) draws its Schur combinations
SEEDED_COMMANDS = {
    "no draw": ("audit", "--claim", "thm2.1", "--input", str(DATA / "example_2_1_d1.json")),
    "draws": ("reproduce", "--example", "3.golden(2)"),
}


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
@pytest.mark.parametrize("source", ["--seed", "OPERTUPLE_SEED"])
def test_negative_seed_is_an_input_error(capsys, monkeypatch, command, source):
    argv = list(SEEDED_COMMANDS[command])
    if source == "--seed":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("OPERTUPLE_SEED", "-1")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {source} must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize(
    "example",
    [
        "2.1(1)", "2.1(2)", "2.1(3)", "2.2", "3.golden(1)", "3.golden(2)", "3.golden(3)",
        "4.1-as-printed", "4.1-corrected",
    ],
)
def test_reproduce_all_examples_match(capsys, example):
    code, out = run(capsys, "reproduce", "--example", example)
    assert code == 0
    assert "all quantities match" in out


def test_reproduce_2_2_shows_sqrt3(capsys):
    code, out = run(capsys, "reproduce", "--example", "2.2")
    assert code == 0
    assert "1.7320508" in out


@pytest.mark.parametrize("example", ["7.7", "2.1", "3.golden"])
def test_reproduce_unknown_example_exits_2(capsys, example):
    code, _ = run(capsys, "reproduce", "--example", example)
    assert code == 2


@pytest.mark.parametrize("example", ["2.1(17)", "3.golden(17)"])
def test_reproduce_refuses_d_past_the_bound(capsys, example):
    from opertuple.generators import MAX_EXAMPLE_D

    assert MAX_EXAMPLE_D == 16
    assert main(["reproduce", "--example", example]) == 2
    assert capsys.readouterr().err == f"error: example id {example!r} needs d <= MAX_EXAMPLE_D = 16\n"


def test_reproduce_runs_at_the_d_bound(capsys):
    code, out = run(capsys, "reproduce", "--example", "2.1(16)")
    assert code == 0
    assert "all quantities match" in out


def test_reproduce_names_every_example_id(capsys):
    from opertuple.generators import EXAMPLES

    assert main(["reproduce", "--help"]) == 0
    shown = capsys.readouterr().out
    assert main(["reproduce", "--example", "7.7"]) == 2
    shown += capsys.readouterr().err
    assert EXAMPLES
    assert [key for key in EXAMPLES if key not in shown] == []


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
