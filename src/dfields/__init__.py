"""Exact computations with free-operator structures on rings and varieties.

The package is organised bottom-up: ``packed`` (the int product of
polynomials and of tensors), ``poly`` (exact polynomials, Groebner bases,
and the ideal toolkit, with ``zfactor`` factoring univariate polynomials
over Z for it), ``algebra`` (finite-dimensional Q-algebras and their local
decomposition, which also solves zero-dimensional systems through Q[x]/I),
``dring`` (operator structures on finitely presented rings),
``prolongation`` (the prolongation of a variety and its projections),
``dvariety`` (sections, sharp points, and descent along finite extensions),
``ucd`` (instance checking for the geometric axiom scheme), and ``cli``
(the input language and commands).
"""

from .algebra import (
    AlgebraElement,
    AlgebraError,
    FiniteDimAlgebra,
    LocalComponent,
    check_algebra,
    check_assumption_res_field_k,
    from_presentation,
    local_decompose,
    mul,
    product_algebra,
    rational_field_algebra,
    residue_projection,
    solve_zero_dim,
)
from .dring import (
    DOperator,
    DRingError,
    SectionPropertyError,
    TensorElement,
    WellDefinednessError,
    associated_hom,
    is_d_ideal,
    localize_dstructure,
    make_doperator,
    product_rule_check,
    tensor_mul,
)
from .dvariety import (
    DVariety,
    DVarietyError,
    dideal_fixture_check,
    make_dvariety,
    open_dsubvariety,
    rational_sharp_points,
    sharp_locus,
    weil_descent,
    zero_section,
)
from .poly import (
    GREVLEX,
    LEX,
    BudgetExceededError,
    EmptyVarietyError,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    MultiPoly,
    NotOnVarietyError,
    PolyParseError,
    decide_irreducibility,
    elimination_ideal,
    factor_univariate,
    format_poly,
    groebner_basis,
    ideal_membership,
    is_smooth_point,
    jacobian_rank_at,
    krull_dimension,
    parse_polynomial,
    radical_membership,
)
from .prolongation import (
    BaseDStructure,
    ProlongationError,
    ProlongedVariety,
    alpha_hat,
    extend_by_point,
    nabla,
    pi_hat,
    prolong,
)
from .ucd import (
    HypothesisReport,
    UcdError,
    UcdInstance,
    check_difference_large_instance,
    check_instance,
    find_nabla_point,
    ucd_instance,
)

__version__ = "0.1.0"
