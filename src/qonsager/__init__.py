"""Exact computer algebra for the q-Onsager algebra's higher-order relations.

Coefficient tables by three independent routes (generating polynomial,
closed-form sum, inductive recursion), noncommutative reduction modulo the
defining relation, and exact-rational matrix realizations as a soundness
oracle.
"""

from .exactring import (
    ExactDivisionError,
    LaurentPoly,
    Rational,
    RHO0,
    RHO1,
    RingElement,
)
from .qnumbers import (
    EigenvalueData,
    TridiagonalParams,
    beta_s,
    qbinomial,
    qfactorial,
    qint,
    reduced_tridiagonal_params,
    tridiagonal_parameters,
)
from .freealg import A, ASTAR, NcPoly, ParseError, Word, parse_expression, word_string
from .rewrite import (
    ETA,
    EtaTable,
    ReductionTrace,
    measure,
    normal_form,
    normal_form_with_stats,
    power_astar_expansion,
    reduce_once,
    trace_reduction,
)
from .coefficients import (
    ROUTES,
    CoeffTable,
    closedform_table,
    coeff_table,
    coeff_tables,
    lusztig_coeffs,
    qbinomial_theorem_check,
    recursion_coeffs,
    reduced_genfun_coeffs,
)
from .verify import (
    CrossCheckReport,
    VerificationReport,
    build_relation_lhs,
    cross_check_routes,
    verify_relation,
)
from .matrixrep import (
    CoidealParams,
    CoidealRealization,
    ExactMatrix,
    check_qdg,
    check_realization,
    coideal_generators,
    eval_ncpoly,
    evaluation_rep,
    tensor_rep,
)

__version__ = "0.1.0"

__all__ = [
    "A",
    "ASTAR",
    "CoeffTable",
    "CoidealParams",
    "CoidealRealization",
    "CrossCheckReport",
    "ETA",
    "EigenvalueData",
    "EtaTable",
    "ExactDivisionError",
    "ExactMatrix",
    "LaurentPoly",
    "NcPoly",
    "ParseError",
    "RHO0",
    "RHO1",
    "ROUTES",
    "Rational",
    "ReductionTrace",
    "RingElement",
    "TridiagonalParams",
    "VerificationReport",
    "Word",
    "beta_s",
    "build_relation_lhs",
    "check_qdg",
    "check_realization",
    "closedform_table",
    "coeff_table",
    "coeff_tables",
    "coideal_generators",
    "cross_check_routes",
    "eval_ncpoly",
    "evaluation_rep",
    "lusztig_coeffs",
    "measure",
    "normal_form",
    "normal_form_with_stats",
    "parse_expression",
    "power_astar_expansion",
    "qbinomial",
    "qbinomial_theorem_check",
    "qfactorial",
    "qint",
    "recursion_coeffs",
    "reduce_once",
    "reduced_genfun_coeffs",
    "reduced_tridiagonal_params",
    "tensor_rep",
    "trace_reduction",
    "tridiagonal_parameters",
    "verify_relation",
    "word_string",
]
