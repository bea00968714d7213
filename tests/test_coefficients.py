import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import qonsager
from qonsager import (
    A,
    ASTAR,
    ExactDivisionError,
    LaurentPoly,
    RHO0,
    RingElement,
    TridiagonalParams,
    closedform_table,
    coeff_table,
    coeff_tables,
    lusztig_coeffs,
    normal_form,
    parse_expression,
    qbinomial,
    qbinomial_theorem_check,
    qint,
    recursion_coeffs,
    reduced_genfun_coeffs,
    reduced_tridiagonal_params,
)
from qonsager.cli import table_to_json
from qonsager.coefficients import (
    ROUTES,
    _recursion_arrays,
    _reduced_expansions,
    advance_table,
    genfun_polynomial,
    qbinom_product_coeffs,
    qbinom_theorem_coeffs,
    seed_table,
)
from qonsager.exactring import PackedRing

# one machine word per slot proves every M and N entry for r <= 5;
# unpacking raises WidthTooNarrow where it does not
WORD_RING = PackedRing(64, 2)

I2 = lambda s: qint(s, base=2)
B = lambda s: qint(2 * s, base=2).divexact(qint(s, base=2))


def golden_r2():
    one = LaurentPoly.one()
    return {
        (0, 0): one,
        (0, 1): qbinomial(5, 1),
        (0, 2): qbinomial(5, 2),
        (1, 0): parse_expression("q^4+3+q^-4"),
        (1, 1): qint(5) * qint(3),
        (2, 0): (LaurentPoly.q_power(2) + LaurentPoly.q_power(-2)) ** 2,
    }


def golden_r3():
    one = LaurentPoly.one()
    table = {(0, j): qbinomial(7, j) for j in range(4)}
    table[(1, 0)] = one + I2(2) ** 2 + I2(3) ** 2
    table[(1, 1)] = (one + I2(2) ** 2 + I2(3) ** 2 + (one + I2(3) ** 2) * B(2)
                     + (I2(2) ** 2 + I2(3) ** 2) * I2(2) + (one + I2(2) ** 2) * B(3))
    table[(1, 2)] = (2 * (one + I2(2) ** 2 + I2(3) ** 2) + (one + I2(3) ** 2) * B(2)
                     + (I2(2) ** 2 + I2(3) ** 2) * I2(2) + (one + I2(2) ** 2) * B(3)
                     + B(2) * B(3) + I2(2) ** 3 * B(3) + I2(3) ** 2 * I2(4))
    table[(2, 0)] = I2(2) ** 2 + I2(3) ** 2 + I2(2) ** 2 * I2(3) ** 2
    table[(2, 1)] = (I2(2) ** 2 + I2(3) ** 2 + I2(2) ** 2 * I2(3) ** 2
                     + I2(2) ** 2 * B(3) + I2(3) ** 2 * B(2) + I2(2) ** 3 * I2(3) ** 2)
    table[(3, 0)] = I2(2) ** 2 * I2(3) ** 2
    return table


ALL_ROUTES = ("genfun", "closed", "recursion")


@pytest.mark.parametrize("route", ALL_ROUTES)
def test_r2_table_matches_the_golden_values(route):
    table = coeff_table(2, route)
    for (p, j), expected in golden_r2().items():
        assert table.entry(p, j) == expected, (route, p, j)


@pytest.mark.parametrize("route", ALL_ROUTES)
def test_r3_table_matches_the_golden_values(route):
    table = coeff_table(3, route)
    for (p, j), expected in golden_r3().items():
        assert table.entry(p, j) == expected, (route, p, j)


def test_r1_reduced_generating_polynomial_coefficients():
    params = [reduced_tridiagonal_params(1)]
    general = genfun_polynomial(1, params)
    three = RingElement.from_laurent(qint(3))
    assert general.get((3, 0), 0) == RingElement.one()
    assert general.get((2, 1), 0) == -three
    assert general.get((1, 2), 0) == three
    assert general.get((0, 3), 0) == -RingElement.one()
    assert general.get((1, 0), 0) == -RHO0
    assert general.get((0, 1), 0) == RHO0
    assert general.get((2, 0), 0) == 0
    # reconstruction: sum a_ij x^i y^j has total degree 2r+1
    assert all(i + j <= 3 for (i, j) in general)


def test_genfun_with_delta_zero_gives_alternating_qserre():
    params = [TridiagonalParams(s=1, beta=RingElement.from_laurent(B(1)),
                                gamma=RingElement.zero(), delta=RingElement.zero())]
    general = genfun_polynomial(1, params)
    assert all(i + j <= 3 for (i, j) in general)
    for j in range(4):
        expected = RingElement.from_laurent(qbinomial(3, j))
        if j % 2:
            expected = -expected
        assert general.get((3 - j, j), 0) == expected


def test_genfun_numeric_params_reproduce_polynomial():
    # Fraction-valued parameter steps exercise the generic expansion path
    from qonsager import EigenvalueData, tridiagonal_parameters
    data = EigenvalueData(alpha=1, b=2, c=3, d=4, q_val=Fraction(5, 2))
    params = [tridiagonal_parameters(s, data) for s in (1, 2)]
    general = genfun_polynomial(2, params)
    assert all(i + j <= 5 for (i, j) in general)
    x, y = Fraction(2, 7), Fraction(-3, 5)
    direct = (x - y)
    for step in params:
        direct *= (x * x - step.beta * x * y + y * y
                   - step.gamma * (x + y) - step.delta)
    total = sum(v * x ** i * y ** j for (i, j), v in general.items())
    assert total == direct


def closedform_coeff(r, p, j, literal=False):
    return closedform_table(r, literal).entry(p, j)


def test_closedform_golden_examples():
    # c^{[2,0]}_1 = 1 + [2]_{q^2} + [4]_{q^2}/[2]_{q^2}, both weights agree
    expected = LaurentPoly.one() + I2(2) + B(2)
    assert closedform_coeff(2, 0, 1) == expected == qbinomial(5, 1)
    assert closedform_coeff(2, 0, 1, literal=True) == expected
    # j = 0 rows collapse to sums over delta-subsets
    assert closedform_coeff(3, 3, 0) == I2(2) ** 2 * I2(3) ** 2
    assert closedform_coeff(3, 2, 0) == (I2(2) ** 2 + I2(3) ** 2
                                         + I2(2) ** 2 * I2(3) ** 2)


def test_closedform_literal_diverges_exactly_at_r3_j3():
    assert closedform_coeff(3, 0, 3) == qbinomial(7, 3)
    literal = closedform_coeff(3, 0, 3, literal=True)
    assert literal != qbinomial(7, 3)
    diff = literal - qbinomial(7, 3)
    # the literal weight overcounts by one beta-sum
    assert diff == B(1) + B(2) + B(3)
    for r in (1, 2):
        assert closedform_table(r, literal=True).first_mismatch(reduced_genfun_coeffs(r)) is None
    literal3 = closedform_table(3, literal=True)
    assert literal3.first_mismatch(reduced_genfun_coeffs(3))[0:2] == (0, 3)


def closedform_by_enumeration(r, p, j, literal):
    """Brute-force oracle: the double sum over k and over every pair of
    disjoint families, a p-subset of squared q^2-integers and a k-subset of
    beta factors, with the same binomial weights as the closed route."""
    total = LaurentPoly.zero()
    for k in range(j + 1):
        weight = comb((r - p) if literal else (r - p - k), (j - k) // 2)
        for delta_set in combinations(range(1, r + 1), p):
            rest = [s for s in range(1, r + 1) if s not in delta_set]
            for beta_set in combinations(rest, k):
                prod = LaurentPoly.one()
                for s in delta_set:
                    prod = prod * I2(s) ** 2
                for s in beta_set:
                    prod = prod * B(s)
                total = total + weight * prod
    return total


@pytest.mark.parametrize("literal", (False, True))
def test_closedform_matches_the_subset_enumeration(literal):
    for r in range(1, 7):
        table = closedform_table(r, literal)
        for p in range(r + 1):
            for j in range(r - p + 1):
                assert table.entry(p, j) == closedform_by_enumeration(
                    r, p, j, literal), (r, p, j, literal)


def test_closedform_range_errors():
    with pytest.raises(ValueError):
        closedform_table(0)
    table = closedform_table(3)
    # j > r-p is the mirror half of the row; past the row or p > r is outside
    assert table.entry(0, 4) == table.entry(0, 3)
    with pytest.raises(KeyError):
        table.entry(0, 8)
    with pytest.raises(KeyError):
        table.entry(4, 0)


def test_recursion_seed_and_first_step():
    t1 = seed_table()
    assert t1.entry(0, 1) == qint(3)
    assert t1.entry(1, 0) == LaurentPoly.one()
    t2 = advance_table(t1)
    assert t2.entry(1, 0) == parse_expression("q^4+3+q^-4")
    assert t2.entry(0, 2) == qbinomial(5, 2)


def test_a_step_reruns_at_the_width_its_bounds_prove(monkeypatch):
    # from a first width of 8 bits every step past r = 2 finds a bound it
    # cannot prove, before it packs or unpacks that value, and reruns wider
    expected = list(coeff_tables(9, "recursion"))
    widths = []
    ring = qonsager.coefficients.PackedRing
    monkeypatch.setattr(qonsager.coefficients, "_first_width", lambda table: 8)
    monkeypatch.setattr(qonsager.coefficients, "PackedRing",
                        lambda width, stride: widths.append(width) or ring(width, stride))
    for table, other in zip(coeff_tables(9, "recursion"), expected):
        assert table.first_mismatch(other) is None, table.r
    assert widths.count(8) == 8 and len(widths) > 16
    assert widths[-1] == 64


def test_recursion_pzero_row_is_qbinomial():
    for table in recursion_coeffs(5):
        n = 2 * table.r + 1
        for j in range(n + 1):
            assert table.entry(0, j) == qbinomial(n, j)


def test_route_agreement_to_r5():
    recursion = recursion_coeffs(5)
    for r in range(1, 6):
        g = reduced_genfun_coeffs(r)
        assert recursion[r - 1].first_mismatch(g) is None, r
        assert closedform_table(r).first_mismatch(g) is None, r


@pytest.mark.parametrize("route", ROUTES)
def test_coeff_tables_yield_the_tables_of_each_r_in_order(route):
    tables = list(coeff_tables(6, route))
    assert [t.r for t in tables] == [1, 2, 3, 4, 5, 6]
    for table in tables:
        assert table.route == route
        assert table.first_mismatch(coeff_table(table.r, route)) is None, table.r
    assert list(coeff_tables(0, route)) == []


@pytest.mark.parametrize("route", ("closed", "closed-literal"))
def test_closed_tables_share_one_running_product(route, monkeypatch):
    made = []
    factor = qonsager.coefficients._family_factor
    monkeypatch.setattr(qonsager.coefficients, "_family_factor",
                        lambda s: made.append(s) or factor(s))
    assert [t.r for t in coeff_tables(8, route)] == list(range(1, 9))
    assert made == list(range(1, 9))


# pack_poly calls per run: the start entries only; every factor coefficient
# goes in as shifted adds, one per term
PACKED_RUNS = {
    "genfun": (lambda: list(coeff_tables(8, "genfun")), 2),  # x - y
    "closed": (lambda: list(coeff_tables(8, "closed")), 1),  # 1
    "qbinom": (lambda: qbinom_product_coeffs(10), 1),
}


@pytest.mark.parametrize("run", sorted(PACKED_RUNS))
def test_each_product_stays_packed_across_its_factor_steps(run, monkeypatch):
    # one packed int per key for the whole run: no packing per factor step;
    # the factors are built before the run starts
    started, packs = [], []
    running_product = qonsager.coefficients.running_product
    pack_poly = qonsager.exactring.pack_poly

    def counted_run(start, factors):
        started.append(start)
        return running_product(start, factors)

    def counted_pack(*args):
        if started:
            packs.append(args)
        return pack_poly(*args)

    monkeypatch.setattr(qonsager.coefficients, "running_product", counted_run)
    monkeypatch.setattr(qonsager.exactring, "pack_poly", counted_pack)
    make, expected = PACKED_RUNS[run]
    make()
    assert len(started) == 1
    assert len(packs) == expected


def test_reduced_expansion_is_homogeneous_in_rho0():
    # the genfun route runs its product at x = 1, keyed by the powers (p, j)
    # of rho0 and y; the generic expansion with formal rho0 and x shows that
    # each key is a table index and names the one term x^(2r+1-2p-j) y^j,
    # whose coefficient is the signed entry times rho0^p
    for r, expansion in enumerate(_reduced_expansions(6), 1):
        general = genfun_polynomial(r, [reduced_tridiagonal_params(s) for s in range(1, r + 1)])
        keys = expansion()
        table = reduced_genfun_coeffs(r)
        for (p, j), value in keys.items():
            assert table.entry(p, j) == value, (r, p, j)
            i = 2 * r + 1 - 2 * p - j
            assert general[(i, j)] == (-1) ** (j + p) * RHO0 ** p * value, (r, p, j)
        assert len(keys) == len(general)


def test_symmetry_and_structural_properties_to_r8():
    # palindromic symmetry is asserted by .check(); on top of that the
    # entries are observed (a regression property, not a theorem) to be bar-invariant with
    # nonnegative coefficients -- a regression trip-wire
    for r in range(1, 9):
        table = reduced_genfun_coeffs(r)
        for (p, j), value in table.items_sorted():
            assert value == table.entry(p, table.row_width(p) - j)
            assert value.is_bar_invariant(), (r, p, j)
            assert all(c > 0 for c in value.terms.values()), (r, p, j)


def test_non_exact_division_is_an_integrity_error():
    t1 = seed_table()
    broken = dict(t1.entries)
    broken[(0, 1)] = qint(3) + 1  # breaks the exact division in the next step
    from qonsager.coefficients import CoeffTable
    with pytest.raises((ExactDivisionError, AssertionError)):
        advance_table(CoeffTable(r=1, route="recursion", entries=broken))


def test_check_rejects_a_broken_mirror_or_normalization():
    table = coeff_table(2, "genfun")
    broken = dict(table.entries)
    broken[(1, 0)] = broken[(1, 0)] + 1  # its mirror (1, 3) is left alone
    with pytest.raises(AssertionError, match=r"symmetry broken at r=2 \(p=1, j=0\) via route genfun"):
        qonsager.coefficients.CoeffTable(2, "genfun", broken).check()
    broken = dict(table.entries)
    broken[(0, 0)] = broken[(0, 5)] = LaurentPoly.from_int(2)  # symmetric, not 1
    with pytest.raises(AssertionError, match=r"normalization c_0\^\[2,0\] != 1 via genfun"):
        qonsager.coefficients.CoeffTable(2, "genfun", broken).check()


def test_a_step_checks_its_leading_entries_against_the_qbinomial_row(monkeypatch):
    table = coeff_table(2, "recursion")
    monkeypatch.setattr(qonsager.coefficients, "qbinomial", lambda n, k: qbinomial(n, k) + 1)
    with pytest.raises(AssertionError, match="vanishing conditions disagree with the q-binomial row"):
        advance_table(table)


def test_a_step_checks_its_entry_one_zero_against_the_order_rho0_condition(monkeypatch):
    # N(1, 0) enters the column formula's (1, 0) entry, not the leading
    # entries or the order-rho0 condition, so the two values of (1, 0) part
    table = coeff_table(2, "recursion")
    arrays = qonsager.coefficients._recursion_arrays

    def shifted(table, ring):
        cs, ms, ns = arrays(table, ring)
        return cs, ms, {**ns, (1, 0): ns[(1, 0)] + ring.pack(LaurentPoly.one())}

    monkeypatch.setattr(qonsager.coefficients, "_recursion_arrays", shifted)
    with pytest.raises(AssertionError, match=r"recursion inconsistency at r=3 \(p=1, j=0\)"):
        advance_table(table)


def test_lusztig_rows():
    table = lusztig_coeffs(1)
    assert [table.entry(0, j) for j in range(4)] == [
        LaurentPoly.one(), qint(3), qint(3), LaurentPoly.one()]
    table2 = lusztig_coeffs(2)
    assert table2.entry(0, 1) == qbinomial(5, 1)
    assert table2.entry(0, 2) == qbinomial(5, 2)
    for p in range(1, 3):
        for j in range(2 * (2 - p) + 2):
            assert table2.entry(p, j).is_zero()


def test_lusztig_matches_the_undeformed_row():
    for r in range(1, 8):
        genfun = reduced_genfun_coeffs(r)
        lus = lusztig_coeffs(r)
        for j in range(2 * r + 2):
            assert genfun.entry(0, j) == lus.entry(0, j)


def test_mn_tables_satisfy_the_shifted_relations_in_the_free_algebra():
    # A^{2r+2} A*^r and A^{2r+3} A*^r re-expand through the M and N tables;
    # the differences must reduce to zero
    for r in range(1, 6):
        table = reduced_genfun_coeffs(r)
        _, m, n = _recursion_arrays(table, WORD_RING)
        for shift, array in ((1, m), (2, n)):
            lhs = A ** (2 * r + 1 + shift) * ASTAR ** r
            acc = lhs
            for p in range(r + 2):  # the twice-shifted expansion reaches p = r+1
                for j in range(max(0, 2 * (r - p) + 1 + shift + 1)):
                    value = WORD_RING.unpack(array.get((p, j), WORD_RING.zero))
                    if value.is_zero():
                        continue
                    sign = 1 if (j + p) % 2 == 0 else -1
                    coeff = RingElement.rho0(p) * (sign * value)
                    word_poly = (A ** (2 * (r - p) + 1 + shift - j) * ASTAR ** r * A ** j)
                    acc = acc + word_poly * coeff
            assert normal_form(acc).is_zero(), (r, shift)


def test_recursion_table_index_ranges():
    # M^{(r,0)}_j over j = 2..2r+2, N^{(r,0)}_j over j = 3..2r+3, and the
    # shifted ranges for p >= 1 that the expansions support
    for r in (1, 2, 4):
        table = reduced_genfun_coeffs(r)
        _, m, n = _recursion_arrays(table, WORD_RING)
        expected_m = {(0, j) for j in range(2, 2 * r + 3)}
        expected_n = {(0, j) for j in range(3, 2 * r + 4)}
        for p in range(1, r + 1):
            expected_m |= {(p, j) for j in range(0, 2 * (r - p) + 3)}
            expected_n |= {(p, j) for j in range(0, 2 * (r - p) + 4)}
        expected_n |= {(r + 1, 0), (r + 1, 1)}
        assert set(m) == expected_m, r
        assert set(n) == expected_n, r


@pytest.mark.parametrize("route", ROUTES)
def test_tables_hold_exactly_the_triangle(route):
    # a formula run past its row or column would leave a stray entry that
    # the exports and CoeffTable.check never read
    for table in coeff_tables(6, route):
        r = table.r
        assert set(table.entries) == {(p, j) for p in range(r + 1)
                                      for j in range(2 * (r - p) + 2)}, r


def test_qbinomial_theorem():
    for r in range(1, 11):
        assert qbinomial_theorem_check(r)


def test_qbinomial_theorem_negative_control():
    lhs = qbinom_product_coeffs(2)
    rhs = qbinom_theorem_coeffs(2)
    assert lhs == rhs
    perturbed = list(lhs)
    perturbed[3] = perturbed[3] + 1
    assert perturbed != rhs


def test_route_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        coeff_table(2, "guesswork")
    with pytest.raises(ValueError):
        coeff_table(0, "genfun")
    # at the call, before any table, and also where no table would be built
    for r_max in (0, 3):
        with pytest.raises(ValueError, match="unknown route"):
            coeff_tables(r_max, "guesswork")


# the function that builds one table of each route, and how often
# coeff_table(8, route) may call it: once, or once per step r -> r + 1
SINGLE_TABLE_BUILDS = {
    "genfun": ("_reduced_table", 1),
    "closed": ("_closed_table", 1),
    "closed-literal": ("_closed_table", 1),
    "lusztig": ("lusztig_coeffs", 1),
    "recursion": ("advance_table", 7),
}


@pytest.mark.parametrize("route", ROUTES)
def test_a_single_table_is_built_once(route, monkeypatch):
    name, expected = SINGLE_TABLE_BUILDS[route]
    build = getattr(qonsager.coefficients, name)
    calls = []
    monkeypatch.setattr(qonsager.coefficients, name,
                        lambda *args: calls.append(args) or build(*args))
    assert coeff_table(8, route).r == 8
    assert len(calls) == expected


# SHA-256 of the r = 12 JSON exports (qonsager coeffs --r 12 --route ROUTE),
# recorded from the route implementations before the packed accumulator (the
# genfun one before the packed running product): the routes evaluate their
# sums and products through them, so a byte that moves here is a coefficient
# that moved.  r = 12 is the first genfun run whose packed width is not a
# machine word: its bound takes 64 bits, so K = 66 and W = 72.
R12_JSON_DIGESTS = {
    "recursion": "cb9de1ecc135b77ff9b50e18796887268aa230bb297c775047079a39ef445a68",
    "closed": "26ac1648e7808d1cf5dc6421c0ce5e234c036535c55fb97ed3bcb434aa497949",
    "genfun": "14a9a3262092b2a2ee74638cc6ff55a2f31fa65245e997aa8fb8d668410bfb5f",
}


@pytest.mark.parametrize("route", sorted(R12_JSON_DIGESTS))
def test_r12_exports_are_pinned(route):
    digest = hashlib.sha256(table_to_json(coeff_table(12, route)).encode()).hexdigest()
    assert digest == R12_JSON_DIGESTS[route]


@pytest.mark.parametrize("route", sorted(R12_JSON_DIGESTS))
def test_r12_export_is_the_same_under_optimized_mode(route):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qonsager.cli",
         "coeffs", "--r", "12", "--route", route],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == R12_JSON_DIGESTS[route]


# SHA-256 of the r = 20 JSON exports (qonsager coeffs --r 20 --route ROUTE),
# recorded while factor coefficients of many terms were still multiplied as
# one packed int product: r = 20 is the CLI's cap, and there the [s]^2_{q^2}
# factors run to 39 terms at widths above 64 bits.
R20_JSON_DIGESTS = {
    "closed": "e078d77c9d47381d6a29d8990626cf3516373f1a07ecb4adbc432fc4a6f19fbb",
    "genfun": "3cb196f0f47bcdbf4ad7b990aaa64f3dae9c9f8fe46ff51f6e86a203945c0346",
}


@pytest.mark.parametrize("route", sorted(R20_JSON_DIGESTS))
def test_r20_exports_are_pinned(route):
    digest = hashlib.sha256(table_to_json(coeff_table(20, route)).encode()).hexdigest()
    assert digest == R20_JSON_DIGESTS[route]


# SHA-256 of qonsager coeffs --r 16 --route recursion, recorded while the
# recursion step still wrote its odd and even columns as two formulas and
# built N without M.  Steps 13-16 run at PackedRing widths 80-96 bits, which
# the r = 12 export does not reach.
R16_RECURSION_JSON_DIGEST = "e9e3a3af7ce091551b0066d3eea74a3a642341de663bb2aee269c9e3dba483b7"


def test_r16_recursion_export_is_pinned():
    digest = hashlib.sha256(table_to_json(coeff_table(16, "recursion")).encode()).hexdigest()
    assert digest == R16_RECURSION_JSON_DIGEST
