"""Exact initial and generic initial subspaces of graded pieces of
polynomial ideals over the rationals, with the supporting monomial-ideal
combinatorics and common-factor extraction."""

from .forms import (
    LEX,
    MIXED,
    REVLEX,
    CoordinateChange,
    Form,
    InvariantError,
    ParseError,
    apply_change,
    format_form,
    format_monomial,
    initial_monomial,
    monomial_key,
    monomials_of_degree,
    normalize_form,
    normalize_order_name,
    parse_form,
    restrict,
    sort_monomials,
)
from .subspaces import (
    MonomialSet,
    Subspace,
    contains,
    echelonize,
    initial_after_change,
    initial_subspace,
    random_form,
    random_subspace,
    restrict_subspace,
    transform_subspace,
)
from .gin import (
    GinIdealReport,
    GinReport,
    gin_ideal_truncated,
    gin_subspace,
    ideal_graded_piece,
    initial_ideal_truncated,
    random_change,
)
from .factors import (
    FactorCertificate,
    ProbeReport,
    TheoremReport,
    common_factor,
    detect_gin_shape,
    divide_subspace,
    gcd_forms,
    hyperplane_factor_probe,
    make_instance,
    verify_main_theorem,
)
from .ideals import (
    MonomialIdeal,
    colon_by_last_variable,
    contains_monomial,
    enumerate_gin_candidates,
    hilbert_function,
    is_borel_fixed,
    is_saturated_in_last_variable,
    minimalize,
    parse_ideal,
)
from .demo import J1, J2, ci_quadrics_demo, search_j2_revlex_witness

__version__ = "0.1.0"
