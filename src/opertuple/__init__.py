"""Numerical toolkit for commuting tuples of complex matrices.

Evaluates m-isometry and joint (m; q)-partial-isometry defects, joint spectra
of commuting tuples, left/right m-inverse polynomials, and audits the
corresponding operator-theoretic claims on worked examples and seeded random
instances.

The package namespace is lazy (PEP 562): ``import opertuple`` loads no
submodule, and the first use of a name below imports the one module that
defines it, so a cold command pays only for the modules it runs.
"""

import importlib

# The public names, by the submodule that defines them. Each submodule is a
# public name too.
_EXPORTS = {
    "linalg": (
        "DEFAULT_TOL",
        "NumericalFailureError",
        "ToleranceModel",
        "adjoint",
        "frobenius_norm",
        "null_space_basis",
        "unitary_triangularize",
    ),
    "multiindex": (
        "MultiIndex",
        "multinomial_weight",
        "pochhammer_descending",
    ),
    "tuples": (
        "NonCommutingError",
        "OperatorTuple",
        "QuasinormalFlags",
        "adjoint_tuple",
        "conjugate_by_unitary",
        "hereditary_shift",
        "is_doubly_commuting",
        "make_tuple",
        "permute_tuple",
        "power_levels",
        "quasinormal_class",
        "tuple_power",
    ),
    "defects": (
        "ClassificationReport",
        "DefectResult",
        "audit_proposition_2_1",
        "audit_proposition_2_4",
        "audit_theorem_2_1",
        "audit_theorem_2_2",
        "audit_theorem_2_3",
        "classify",
        "isometry_defect",
        "null_reducing_check",
        "partial_isometry_defect",
        "scalar_defect",
    ),
    "spectra": (
        "JointSpectrumResult",
        "audit_proposition_3_2",
        "audit_theorem_3_1",
        "joint_lower_bound",
        "joint_spectrum",
        "simultaneous_triangularize",
        "zero_variety_member",
    ),
    "minverse": (
        "BetaResult",
        "audit_proposition_4_1",
        "audit_theorem_4_1",
        "audit_theorem_4_2",
        "beta",
        "expand_power_sum",
        "is_left_m_inverse",
        "is_right_m_inverse",
    ),
    "generators": (
        "PaperExample",
        "diagonal_conjugate",
        "paper_example",
        "polynomial_family",
        "random_partial_isometry",
        "random_unitary",
        "scaled_family",
        "scaled_single",
    ),
    "reports": ("AuditReport", "SubVerdict", "Witness", "report_from_dict", "report_to_dict"),
    "tuplefile": (
        "ParsedTupleFile",
        "TupleFileError",
        "parse_partner",
        "parse_tuple_file",
        "serialize_tuple_file",
    ),
}

_MODULE_OF = {module: module for module in _EXPORTS}
_MODULE_OF.update((name, module) for module, names in _EXPORTS.items() for name in names)

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines ``name`` and bind ``name`` here for later lookups."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
