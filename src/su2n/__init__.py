"""Explicit SU(2,n) computations and the CDS decision procedure for AN.

The package realizes su(2,n) in coordinates adapted to an Iwasawa
decomposition with exact (Gaussian-rational) algebra elements, decides
exactly whether a closed connected subgroup of AN is a Cartan-decomposition
subgroup — reporting the asymptotic shape of its Cartan projection — and
verifies the shape by sampling group elements in floating point and
computing their Cartan projections numerically.

Importing the package loads none of its modules: each name of __all__ is
resolved on first access (a module __getattr__), so the exact classifier
runs without numpy, which only the sampling modules (lab, metrics, verify)
import.
"""

import importlib

# the names each module exports at the package level
_EXPORTS = {
    "anclassify": ("AnError", "AnResult", "Graph", "NoCaseMatched", "OneParam", "Semidirect",
                   "SpecViolation", "TorusLine", "UNotNormalized", "classify_an",
                   "classify_semidirect", "line_compatible", "normalize_to_compatible"),
    "elements": ("AlgebraElement", "GroupElement", "NotInAN", "ROOTS", "ROOT_SLOT", "bracket",
                 "delta", "delta_formula", "element_from_matrix", "exp_closed", "exp_series",
                 "form_value", "gram_matrix", "kernel_line", "matrix_of"),
    "lab": ("OverflowCeiling", "SamplingPlan", "VerificationReport", "check_dimension_table",
            "exp_float", "sample_subgroup", "verify_shape", "witness_curve"),
    "metrics": ("CartanPoint", "InsufficientRange", "NonFinite", "SampleCloud",
                "SymbolicShape", "fit_exponents", "fit_log_power", "mu", "rho_norm",
                "rho_norm_oracle", "sample_compact_pair", "shape_check", "sup_norm"),
    "nilclassify": ("ClassificationError", "ClassificationResult",
                    "InconsistentClassification", "NotCdsMatch", "NotInN", "Witness",
                    "check_linear", "check_square", "classify", "match_notcds",
                    "normalizer_in_A"),
    "scalars": ("QQi",),
    "shapes": ("MuShape",),
    "subalgebra": ("NotClosed", "NotIndependent", "Subalgebra", "SubalgebraError",
                   "close_under_bracket"),
    "weyl": ("conjugate", "weyl_matrix", "weyl_reflect"),
}
_MODULES = ("anclassify", "config", "corpus", "elements", "gallery", "lab", "linalg",
            "metrics", "nilclassify", "scalars", "serialize", "shapes", "subalgebra",
            "verify", "weyl")
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULES, *_OWNER])


def __getattr__(name):
    if name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
