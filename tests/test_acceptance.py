"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Budgets are wall-clock guards for the stated workloads.
"""

import random
import time
from fractions import Fraction

from qonsager import (
    CoeffTable,
    CoidealParams,
    ExactMatrix,
    LaurentPoly,
    NcPoly,
    build_relation_lhs,
    check_qdg,
    check_realization,
    coeff_table,
    coideal_generators,
    cross_check_routes,
    eval_ncpoly,
    lusztig_coeffs,
    measure,
    normal_form,
    parse_expression,
    qbinomial,
    qbinomial_theorem_check,
    qint,
    reduced_genfun_coeffs,
    verify_relation,
)
from qonsager.rewrite import _apply_rule_at
from conftest import rand_ncpoly, rand_word


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


def test_criterion_1_golden_tables():
    from test_coefficients import golden_r2, golden_r3

    start = time.perf_counter()
    golden = {2: golden_r2(), 3: golden_r3()}
    # headline cells, frozen independently of the golden builders
    assert golden[2][(1, 0)] == parse_expression("q^4+3+q^-4")
    assert golden[2][(1, 1)] == qint(5) * qint(3)
    assert golden[2][(2, 0)] == (LaurentPoly.q_power(2) + LaurentPoly.q_power(-2)) ** 2
    assert golden[3][(1, 0)] == parse_expression("q^8+3*q^4+6+3*q^-4+q^-8")
    assert golden[3][(3, 0)] == qint(2, base=2) ** 2 * qint(3, base=2) ** 2
    ok = True
    for r, cells in golden.items():
        for route in ("genfun", "recursion", "closed"):
            table = coeff_table(r, route)
            for p in range(r + 1):
                width = table.row_width(p)
                for j in range(width + 1):
                    expected = cells.get((p, j), cells.get((p, width - j)))
                    if expected is None and p == 0:
                        expected = qbinomial(2 * r + 1, min(j, width - j))
                    if table.entry(p, j) != expected:
                        ok = False
    elapsed = time.perf_counter() - start
    _report(1, "golden tables r=2,3 entry-for-entry, every route",
            ok and elapsed < 1.0, f" ({elapsed:.2f}s)")


def test_criterion_2_relation_verification():
    start = time.perf_counter()
    ok = all(verify_relation(r).ok() for r in range(1, 6))
    small = time.perf_counter() - start
    start = time.perf_counter()
    ok = ok and verify_relation(6).ok() and verify_relation(7).ok() and verify_relation(8).ok()
    large = time.perf_counter() - start
    _report(2, "verify_relation zero for r=1..8",
            ok and small < 10.0 and large < 300.0,
            f" (r<=5: {small:.2f}s, r=6..8: {large:.1f}s)")


def test_criterion_3_route_agreement():
    start = time.perf_counter()
    report = cross_check_routes(8)
    elapsed = time.perf_counter() - start
    _report(3, "genfun = recursion = corrected closed form, r<=8",
            report.equal and elapsed < 60.0, f" ({elapsed:.2f}s)")


def test_criterion_4_documented_discrepancy():
    report = cross_check_routes(8, include_literal=True)
    mm = report.first_mismatch
    literal_diverges_at_303 = (not report.equal and (mm.r, mm.p, mm.j) == (3, 0, 3)
                               and mm.route_b == "closed-literal")
    corrected_fine = cross_check_routes(8).equal
    _report(4, "literal closed-form weight first diverges at (3,0,3)",
            literal_diverges_at_303 and corrected_fine)


def test_criterion_5_lusztig_limit():
    start = time.perf_counter()
    ok = True
    for r in range(1, 11):
        relation = build_relation_lhs(reduced_genfun_coeffs(r), family=1)
        undeformed = relation.specialize_rho_zero()
        expected = build_relation_lhs(lusztig_coeffs(r), family=1)
        if undeformed != expected or undeformed.term_count() != 2 * r + 2:
            ok = False
            break
        for word, coeff in undeformed.sorted_terms():
            j = len(word) - 1 - word.rfind("s")
            value = coeff.specialize_rho_zero()
            sign = 1 if j % 2 == 0 else -1
            if value != sign * qbinomial(2 * r + 1, j):
                ok = False
    elapsed = time.perf_counter() - start
    _report(5, "rho=0 specialization is the higher q-Serre relation, r<=10",
            ok and elapsed < 10.0, f" ({elapsed:.2f}s)")


def test_criterion_6_qbinomial_theorem():
    start = time.perf_counter()
    ok = all(qbinomial_theorem_check(r) for r in range(1, 11))
    elapsed = time.perf_counter() - start
    _report(6, "q-binomial theorem identity, r<=10", ok and elapsed < 1.0,
            f" ({elapsed:.2f}s)")


def test_criterion_7_matrix_soundness():
    start = time.perf_counter()
    ok = True
    for sites in (1, 2, 3):
        params = CoidealParams(t=Fraction(3, 2),
                               v=tuple(Fraction(i) for i in range(1, sites + 1)))
        real = coideal_generators(params)
        if not check_realization(real):
            ok = False
            break
        for r in (1, 2, 3):
            table = reduced_genfun_coeffs(r)
            for family in (1, 2):
                lhs = build_relation_lhs(table, family=family)
                image = eval_ncpoly(lhs, real.A, real.Astar,
                                    real.q, real.rho0, real.rho1)
                ok = ok and image.is_zero()
    elapsed = time.perf_counter() - start
    _report(7, "qDG gate and zero relation images, L=1..3 at t=3/2",
            ok and elapsed < 30.0, f" ({elapsed:.2f}s)")


def test_criterion_8_property_suites():
    ok = True

    # termination measure strictly decreases on every rewrite step
    rng = random.Random(81)
    for _ in range(200):
        w = rand_word(rng, 12)
        pos = w.find("aaas")
        if pos < 0:
            continue
        m = measure(w)
        ok = ok and all(measure(nw) < m for nw, _ in _apply_rule_at(w, pos))

    # normal-form idempotence
    for _ in range(50):
        x = rand_ncpoly(rng, max_terms=3, max_len=9)
        nf = normal_form(x)
        ok = ok and normal_form(nf) == nf

    # dagger involution and automorphism
    for _ in range(50):
        x = rand_ncpoly(rng)
        y = rand_ncpoly(rng)
        ok = ok and x.dagger().dagger() == x
        ok = ok and (x * y).dagger() == x.dagger() * y.dagger()

    # reduction soundness under matrix evaluation, 100 random words
    real = coideal_generators(CoidealParams(t=Fraction(3, 2), v=(Fraction(1), Fraction(2))))
    ok = ok and check_realization(real)
    point = (real.q, real.rho0, real.rho1)
    for _ in range(100):
        word = rand_word(rng, 10)
        x = NcPoly.from_word(word)
        direct = eval_ncpoly(x, real.A, real.Astar, *point)
        via_nf = eval_ncpoly(normal_form(x), real.A, real.Astar, *point)
        ok = ok and direct == via_nf

    # negative control: perturbed coefficient -> nonzero residual
    table = reduced_genfun_coeffs(2)
    entries = dict(table.entries)
    entries[(0, 1)] = entries[(0, 1)] + 1
    perturbed = CoeffTable(r=2, route="genfun+perturbed", entries=entries)
    ok = ok and not verify_relation(2, table=perturbed).ok()

    # negative control: perturbed matrix -> gate failure
    rows = [list(row) for row in real.A.rows]
    rows[0][0] += 1
    ok = ok and not check_qdg(ExactMatrix(rows), real.Astar,
                              real.rho0, real.rho1, real.q)

    _report(8, "property suites and negative controls", ok)
