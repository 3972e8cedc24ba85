"""Numerical toolkit for commuting tuples of complex matrices.

Evaluates m-isometry and joint (m; q)-partial-isometry defects, joint spectra
of commuting tuples, left/right m-inverse polynomials, and audits the
corresponding operator-theoretic claims on worked examples and seeded random
instances.
"""

from .linalg import (
    DEFAULT_TOL,
    NumericalFailureError,
    ToleranceModel,
    adjoint,
    frobenius_norm,
    null_space_basis,
    eigendecomposition,
    unitary_triangularize,
)
from .multiindex import (
    MultiIndex,
    enumerate_multiindices,
    multinomial_weight,
    pascal_multinomial,
    pochhammer_descending,
)
from .tuples import (
    NonCommutingError,
    OperatorTuple,
    QuasinormalFlags,
    adjoint_tuple,
    conjugate_by_unitary,
    hereditary_shift,
    is_doubly_commuting,
    make_tuple,
    null_reducing_check,
    permute_tuple,
    power_levels,
    quasinormal_class,
    tuple_power,
)
from .defects import (
    ClassificationReport,
    DefectResult,
    audit_proposition_2_1,
    audit_proposition_2_4,
    audit_theorem_2_1,
    audit_theorem_2_2,
    audit_theorem_2_3,
    classify,
    isometry_defect,
    partial_isometry_defect,
    scalar_defect,
)
from .spectra import (
    JointSpectrumResult,
    audit_proposition_3_2,
    audit_theorem_3_1,
    joint_lower_bound,
    joint_point_spectrum,
    joint_spectrum,
    simultaneous_triangularize,
    spectral_radius,
    taylor_diagonal,
    zero_variety_member,
)
from .minverse import (
    BetaResult,
    audit_proposition_4_1,
    audit_theorem_4_1,
    audit_theorem_4_2,
    beta,
    expand_power_sum,
    is_left_m_inverse,
    is_right_m_inverse,
)
from .generators import (
    GeneratorSpec,
    PaperExample,
    paper_example,
    random_commuting_tuple,
    random_partial_isometry,
    random_unitary,
    scaled_single,
)
from .reports import AuditReport, SubVerdict, Witness, report_from_dict, report_to_dict
from .tuplefile import (
    ParsedTupleFile,
    TupleFileError,
    parse_partner,
    parse_tuple_file,
    serialize_tuple_file,
)

__version__ = "0.1.0"
