"""Explicit SU(2,n) computations and the CDS decision procedure for AN.

The package realizes su(2,n) in coordinates adapted to an Iwasawa
decomposition with exact (Gaussian-rational) algebra elements, decides
exactly whether a closed connected subgroup of AN is a Cartan-decomposition
subgroup — reporting the asymptotic shape of its Cartan projection — and
verifies the shape by sampling group elements in floating point and
computing their Cartan projections numerically.
"""

from . import corpus, gallery, lab, linalg, serialize, verify
from .anclassify import (
    AnError,
    AnResult,
    Graph,
    NoCaseMatched,
    NormalizationFailed,
    OneParam,
    Semidirect,
    SpecViolation,
    TorusLine,
    UIsCds,
    UNotNormalized,
    classify_an,
    classify_graph,
    classify_semidirect,
    is_compatible,
    is_compatible_basis,
    normalize_to_compatible,
    one_param_shape,
)
from .config import DEFAULT, Tolerances
from .elements import (
    AlgebraElement,
    GroupElement,
    NotInAN,
    ROOTS,
    ROOT_SLOT,
    bracket,
    delta,
    delta_formula,
    element_from_matrix,
    exp_closed,
    exp_float,
    exp_series,
    form_value,
    gram_matrix,
    kernel_line,
    matrix_of,
    root_project,
)
from .lab import (
    OverflowCeiling,
    SamplingPlan,
    VerificationReport,
    check_dimension_table,
    sample_subgroup,
    verify_shape,
)
from .metrics import (
    CartanPoint,
    InsufficientRange,
    NonFinite,
    SampleCloud,
    SymbolicShape,
    fit_exponents,
    fit_log_power,
    mu,
    rho_norm,
    rho_norm_oracle,
    sample_compact_pair,
    shape_check,
    sup_norm,
)
from .nilclassify import (
    ClassificationError,
    ClassificationResult,
    InconsistentClassification,
    LinearWitness,
    NotCdsMatch,
    NotInN,
    SquareWitness,
    check_linear,
    check_square,
    classify,
    match_notcds,
    normalizer_in_A,
    witness_curve,
)
from .scalars import QQi
from .shapes import MuShape
from .subalgebra import (
    NotClosed,
    NotIndependent,
    Subalgebra,
    SubalgebraError,
    close_under_bracket,
)
from .weyl import conjugate, weyl_matrix, weyl_reflect

__all__ = [name for name in dir() if not name.startswith("_")]
