"""The package's public surface, ``qonsager.__all__``, pinned name by name:
a name added to or dropped from it shows in the diff of this file.  Also no
``assert`` statement in the package: ``python -O`` strips them, and every
integrity check must survive it."""

import ast
import types
from pathlib import Path

import qonsager

PUBLIC = [
    "A", "ASTAR", "CoeffTable", "CoidealParams", "CoidealRealization", "CrossCheckReport",
    "ETA", "EigenvalueData", "EtaTable", "ExactDivisionError", "ExactMatrix", "LaurentPoly",
    "NcPoly", "ParseError", "RHO0", "RHO1", "ROUTES", "Rational",
    "ReductionTrace", "RingElement", "TridiagonalParams", "VerificationReport",
    "Word", "beta_s", "build_relation_lhs", "check_qdg", "check_realization", "closedform_table",
    "coeff_table", "coeff_tables", "coideal_generators", "cross_check_routes", "eval_ncpoly",
    "evaluation_rep", "lusztig_coeffs", "measure", "normal_form", "normal_form_with_stats",
    "parse_expression", "power_astar_expansion", "qbinomial", "qbinomial_theorem_check",
    "qfactorial", "qint", "recursion_coeffs", "reduce_once", "reduced_genfun_coeffs",
    "reduced_tridiagonal_params", "tensor_rep", "trace_reduction", "tridiagonal_parameters",
    "verify_relation", "word_string",
]


def test_all_is_pinned_sorted_and_resolves():
    names = qonsager.__all__
    assert names == PUBLIC
    assert names == sorted(set(names))
    assert all(hasattr(qonsager, name) for name in names)


def test_the_package_exports_nothing_outside_all():
    # a name deleted from __all__ must leave the package's imports too
    exported = {name for name, value in vars(qonsager).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set(PUBLIC)


def test_no_module_has_an_assert_statement():
    modules = sorted(Path(qonsager.__file__).parent.rglob("*.py"))
    assert modules
    asserts = [f"{path.name}:{node.lineno}" for path in modules
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
