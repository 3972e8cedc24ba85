"""The lazy package namespace: every public name, what `import opertuple` loads, and
that no module reaches into a sibling's private names."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import opertuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Every name the package bound when its __init__ imported all nine submodules.
EXPORTS = {
    "linalg": [
        "DEFAULT_TOL", "NumericalFailureError", "ToleranceModel", "adjoint", "frobenius_norm",
        "null_space_basis", "unitary_triangularize",
    ],
    "multiindex": ["MultiIndex", "multinomial_weight", "pochhammer_descending"],
    "tuples": [
        "NonCommutingError", "OperatorTuple", "QuasinormalFlags", "adjoint_tuple",
        "conjugate_by_unitary", "hereditary_shift", "is_doubly_commuting", "make_tuple",
        "permute_tuple", "power_levels", "quasinormal_class", "tuple_power",
    ],
    "defects": [
        "ClassificationReport", "DefectResult", "audit_proposition_2_1", "audit_proposition_2_4",
        "audit_theorem_2_1", "audit_theorem_2_2", "audit_theorem_2_3", "classify",
        "isometry_defect", "null_reducing_check", "partial_isometry_defect", "scalar_defect",
    ],
    "spectra": [
        "JointSpectrumResult", "audit_proposition_3_2", "audit_theorem_3_1", "joint_lower_bound",
        "joint_spectrum", "simultaneous_triangularize", "zero_variety_member",
    ],
    "minverse": [
        "BetaResult", "audit_proposition_4_1", "audit_theorem_4_1", "audit_theorem_4_2", "beta",
        "expand_power_sum", "is_left_m_inverse",
    ],
    "generators": [
        "PaperExample", "diagonal_conjugate", "paper_example", "polynomial_family",
        "random_partial_isometry", "random_unitary", "scaled_family", "scaled_single",
    ],
    "reports": ["AuditReport", "SubVerdict", "Witness", "report_to_dict"],
    "tuplefile": [
        "ParsedTupleFile", "TupleFileError", "parse_partner", "parse_tuple_file",
        "serialize_tuple_file",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names] + list(EXPORTS)


@pytest.mark.parametrize("module", list(EXPORTS))
def test_every_export_is_its_modules_object(module):
    mod = importlib.import_module(f"opertuple.{module}")
    assert getattr(opertuple, module) is mod
    for name in EXPORTS[module]:
        assert getattr(opertuple, name) is getattr(mod, name), name


def test_dir_and_all_list_every_name():
    assert sorted(opertuple.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(opertuple))
    assert "__version__" in dir(opertuple)
    assert opertuple.__version__ == "0.1.0"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from opertuple import *", namespace)
    assert [name for name in NAMES if namespace.get(name) is not getattr(opertuple, name)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        opertuple.no_such_name
    assert not hasattr(opertuple, "cli_main")


_LOADED_BY_IMPORT = """
import sys
import opertuple
print(sorted(m for m in sys.modules if m.startswith("opertuple.")))
opertuple.spectra
print(sorted(m for m in sys.modules if m.startswith("opertuple.")))
"""


def test_import_loads_no_submodule_and_a_name_loads_its_module():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_IMPORT], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    bare, after = proc.stdout.splitlines()
    assert bare == "[]"
    assert "'opertuple.spectra'" in after
    assert "'opertuple.defects'" not in after


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "opertuple").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("opertuple"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
