"""Exact-arithmetic toolkit for order-symmetric polynomial spans, nil and
algebraicity certificates, and filtered/graded/Rees algebra checks over
finite-dimensional associative algebras.

Importing the package loads none of its submodules.  Each exported name is
resolved on first use from the submodule listed below (PEP 562), so a
command line check imports only the modules it runs.  A submodule that
re-exports a name gives the same object as the one that defines it:
algebra the core and the power searches of structure, graded the pipeline
of nilbound, io the error classes of errors and read_vector of fields, and
algebra, nilbound and linalg the evaluation route of evaluation, which
they load on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("BoundResult", "ChainResult", "algebraic_degree", "brute_force_nil_index", "evaluate",
                "sym_span_chain", "sym_span_in", "sym_values", "uniform_algebraic_bound", "uniform_nil_index"),
    "catalog": ("builtin_example", "builtin_names"),
    "fields": ("QQ", "Field", "Scalar", "distinct_scalars", "field_make"),
    "freealg": (
        "FreePoly",
        "linear_power",
        "monomial_count",
        "multidegrees",
        "power_span_grid",
        "sym_poly",
        "sym_span",
        "sym_span_upto",
        "word_basis",
    ),
    "graded": ("Filtration", "GradedAlgebra", "associated_graded", "validate_filtration"),
    "io": ("InvalidAlgebraError", "InvalidFiltrationError"),
    "linalg": ("Subspace", "multi_vandermonde_recover", "vandermonde_recover"),
    "nilbound": ("NilVerification", "graded_nil_index_bound", "sym_degree_check", "verify_graded_nil_index"),
    "rees": (
        "IntegralWitness",
        "IsoReport",
        "PowerMembership",
        "ReesElement",
        "ScalarPoly",
        "check_graded_rees_isomorphism",
        "integral_power_in_x_ideal",
        "integral_witness",
    ),
    "structure": ("AlgElement", "StructureAlgebra", "ValidationReport"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, or one of the submodules above, loaded on first use."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
