"""Exact initial and generic initial subspaces of graded pieces of
polynomial ideals over the rationals, with the supporting monomial-ideal
combinatorics and common-factor extraction.

The public names are resolved on first access (a PEP 562 module
`__getattr__`), so `import ginalg` loads no submodule, and a CLI call
loads only the modules its subcommand uses."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "forms": (
        "LEX",
        "MIXED",
        "REVLEX",
        "Form",
        "InvariantError",
        "ParseError",
        "apply_change",
        "format_form",
        "format_monomial",
        "initial_monomial",
        "monomial_key",
        "monomials_of_degree",
        "normalize_form",
        "normalize_order_name",
        "parse_form",
        "restrict",
        "sort_monomials",
    ),
    "subspaces": (
        "CoordinateChange",
        "MonomialIdeal",
        "MonomialSet",
        "Subspace",
        "contains",
        "echelonize",
        "initial_subspace",
        "minimalize",
        "random_form",
        "random_subspace",
        "restrict_subspace",
        "transform_subspace",
    ),
    "gin": (
        "GinIdealReport",
        "GinReport",
        "gin_ideal_truncated",
        "gin_subspace",
        "ideal_graded_piece",
        "initial_after_change",
        "initial_ideal_truncated",
        "random_change",
    ),
    "factors": (
        "FactorCertificate",
        "ProbeReport",
        "TheoremReport",
        "common_factor",
        "detect_gin_shape",
        "divide_subspace",
        "gcd_forms",
        "hyperplane_factor_probe",
        "make_instance",
        "verify_main_theorem",
    ),
    "ideals": (
        "colon_by_last_variable",
        "contains_monomial",
        "enumerate_gin_candidates",
        "hilbert_function",
        "is_borel_fixed",
        "is_saturated_in_last_variable",
        "parse_ideal",
    ),
    "demo": ("J1", "J2", "ci_quadrics_demo", "search_j2_revlex_witness"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
