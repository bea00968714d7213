import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import qonsager
from qonsager import (
    A,
    ExactDivisionError,
    LaurentPoly,
    NcPoly,
    RHO0,
    RingElement,
    parse_expression,
    qint,
)
from qonsager.exactring import (
    _SCHOOLBOOK_PAIRS,
    PackedRing,
    WidthTooNarrow,
    _times,
    _width,
    pack_poly,
    pair_add,
    running_product,
    unpack_poly,
)
from conftest import rand_laurent, rand_ring

Q = LaurentPoly.q_power


def test_canonical_sparse_form_never_stores_zero():
    p = LaurentPoly({2: 3, 0: 0, -1: 5})
    assert 0 not in p.terms
    assert (p - p).terms == {}
    rng = random.Random(1)
    for _ in range(50):
        a, b = rand_laurent(rng), rand_laurent(rng)
        for value in (a + b, a - b, a * b):
            assert all(c != 0 for c in value.terms.values())


def test_difference_of_squares():
    assert (Q(1) + Q(-1)) * (Q(1) - Q(-1)) == Q(2) - Q(-2)


def test_multiplicative_identity():
    rng = random.Random(2)
    for _ in range(20):
        x = rand_laurent(rng)
        assert x * LaurentPoly.one() == x


def test_qint3_square_by_schoolbook_expansion():
    # (q^2+1+q^-2)^2 expanded by hand
    expected = parse_expression("q^4+2*q^2+3+2*q^-2+q^-4")
    assert qint(3) * qint(3) == expected


def test_laurent_ring_axioms_on_random_inputs():
    rng = random.Random(3)
    for _ in range(100):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ring_element_axioms_on_random_inputs():
    rng = random.Random(4)
    for _ in range(100):
        a, b, c = (rand_ring(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_divexact_roundtrip_and_failure():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rand_laurent(rng), rand_laurent(rng)
        if b.is_zero():
            continue
        assert (a * b).divexact(b) == a
    with pytest.raises(ExactDivisionError):
        (qint(3) + 1).divexact(qint(3))
    with pytest.raises(ZeroDivisionError):
        qint(2).divexact(LaurentPoly.zero())


def test_divexact_rejects_a_leading_remainder():
    # the spans fit, but 3 = 1 * 2 + 1 leaves a remainder in the top term
    with pytest.raises(ExactDivisionError, match="not divisible"):
        LaurentPoly.from_int(3).divexact(LaurentPoly.from_int(2))


def test_eval_qint3_at_two():
    # (2^3 - 2^-3) / (2 - 2^-1) by hand
    assert qint(3).eval_at(Fraction(2)) == Fraction(21, 4)


def test_eval_at_one_is_classical_limit():
    for n in range(8):
        assert qint(n).eval_at(Fraction(1)) == max(n, 1)  # [0]_q = 1 convention
    rng = random.Random(6)
    for _ in range(20):
        x = rand_laurent(rng)
        assert x.eval_at(Fraction(1)) == sum(x.terms.values())


def test_eval_at_matches_the_term_wise_sum():
    rng = random.Random(8)
    points = [Fraction(s * u, v) for s in (1, -1) for u, v in ((81, 16), (3, 7), (1, 5), (6, 1))]
    polys = [rand_laurent(rng, max_terms=6, max_exp=15) for _ in range(60)]
    # zero, one term, mixed signs of exponents, all negative, all positive
    polys += [LaurentPoly.zero(), Q(-9, -4), Q(12, 5) + Q(-13, 2),
              LaurentPoly({-6: 1, -2: -3}), Q(7, -1) + Q(3, 2)]
    for p in polys:
        for q in points:
            expected = sum((c * q ** e for e, c in p.terms.items()), Fraction(0))
            assert p.eval_at(q) == expected, (p, q)


def test_eval_rejects_zero_q():
    with pytest.raises(ValueError):
        qint(2).eval_at(Fraction(0))
    with pytest.raises(ValueError):
        RingElement.one().eval_at(Fraction(0))


def test_rho_evaluation():
    assert RHO0.eval_at(Fraction(3), rho0_val=Fraction(0)) == 0
    assert RHO0.eval_at(Fraction(3), rho0_val=Fraction(5, 7)) == Fraction(5, 7)


def test_ring_eval_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_ring(rng), rand_ring(rng)
        point = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert (a * b).eval_at(*point) == a.eval_at(*point) * b.eval_at(*point)
        assert (a + b).eval_at(*point) == a.eval_at(*point) + b.eval_at(*point)


def test_specialize_rho_zero():
    two = RingElement.from_laurent(qint(2))
    assert (RingElement.one() + RHO0 * two).specialize_rho_zero() == LaurentPoly.one()
    assert (RHO0 * RHO0).specialize_rho_zero().is_zero()
    assert RingElement.from_laurent(qint(3)).specialize_rho_zero() == qint(3)


def test_dagger_swaps_rho_and_is_involutive():
    rng = random.Random(8)
    from qonsager import RHO1
    assert RHO0.dagger() == RHO1
    for _ in range(50):
        x = rand_ring(rng)
        assert x.dagger().dagger() == x


def test_canonical_string_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        x = rand_laurent(rng)
        assert parse_expression(x.to_string()) == x


def test_canonical_string_format():
    assert qint(3).to_string() == "q^2+1+q^-2"
    assert LaurentPoly.zero().to_string() == "0"
    assert LaurentPoly({1: 1}).to_string() == "q"
    assert LaurentPoly({1: -2, 0: 3}).to_string() == "-2*q+3"
    assert LaurentPoly({-3: 1}).to_string() == "q^-3"
    assert parse_expression("q^4 + 3 + q^-4") == parse_expression("q^4+3+q^-4")


def test_bar_involution():
    rng = random.Random(10)
    for _ in range(50):
        a, b = rand_laurent(rng), rand_laurent(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
    assert qint(5).is_bar_invariant()


def test_hash_consistent_with_equality():
    a = LaurentPoly({2: 1, 0: 3})
    b = LaurentPoly({0: 3, 2: 1})
    assert a == b and hash(a) == hash(b)
    x = RingElement({(1, 0): qint(2)})
    y = RHO0 * RingElement.from_laurent(qint(2))
    assert x == y and hash(x) == hash(y)
    u = parse_expression("rho0 A + A*")
    v = NcPoly({"s": RingElement.one(), "a": RHO0})
    assert u == v and hash(u) == hash(v)
    # equal values of different rings, and zero, hash alike
    for value, scalar in ((qint(3), RingElement.from_laurent(qint(3))),
                          (LaurentPoly.from_int(3), 3),
                          (RingElement.from_int(-2), -2),
                          (NcPoly.from_word("", RHO0), RHO0),
                          (NcPoly.from_word("", 5), 5),
                          (LaurentPoly.zero(), 0),
                          (RingElement.zero(), 0),
                          (NcPoly.zero(), 0)):
        assert value == scalar and hash(value) == hash(scalar), value
    assert len({qint(3), RingElement.from_laurent(qint(3)),
                NcPoly.from_word("", qint(3))}) == 1


_THREE = LaurentPoly({0: 3})


@pytest.mark.parametrize("value, expected", [
    pytest.param(1 - qint(2), LaurentPoly({0: 1, 1: -1, -1: -1}), id="int-minus-laurent"),
    pytest.param(qint(3) == 3, False, id="laurent-eq-int"),
    pytest.param(RHO0 * qint(3), RingElement({(1, 0): qint(3)}), id="ring-times-laurent"),
    pytest.param(3 * A, NcPoly({"a": RingElement({(0, 0): _THREE})}), id="int-times-word"),
    pytest.param(A * 3, NcPoly({"a": RingElement({(0, 0): _THREE})}), id="word-times-int"),
    pytest.param(A * RHO0 == RHO0 * A, True, id="ring-scalar-commutes"),
    pytest.param(A ** 0 == NcPoly.one(), True, id="zeroth-power-is-one"),
    pytest.param(LaurentPoly({0: 0}).terms, {}, id="zero-coefficient-dropped"),
    pytest.param(RingElement.zero() == 0, True, id="zero-scalar-is-zero"),
])
def test_mixed_type_arithmetic(value, expected):
    assert type(value) is type(expected)
    assert value == expected


def schoolbook(a, b):
    """The reference product: every pair of terms multiplied, equal exponents
    collected."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


def rand_strided(rng, terms, stride, bits):
    """About ``terms`` terms on exponents low + stride k, low of either sign,
    coefficients of up to ``bits`` bits in both signs."""
    low = rng.randint(-40, 40)
    return LaurentPoly({low + stride * rng.randrange(2 * terms):
                        rng.choice((1, -1)) * rng.randint(1, 1 << bits)
                        for _ in range(terms)})


def test_packed_product_matches_the_schoolbook_oracle():
    rng = random.Random(11)
    paths = set()
    for _ in range(400):
        stride = rng.choice((1, 2, 3))
        bits = rng.choice((1, 4, 20, 40, 62, 100, 5000))
        a = rand_strided(rng, rng.randint(1, 40), stride, bits)
        b = rand_strided(rng, rng.randint(1, 40), rng.choice((stride, 1)), rng.choice((1, bits)))
        pairs = len(a.terms) * len(b.terms)
        paths.add(pairs >= _SCHOOLBOOK_PAIRS and min(len(a.terms), len(b.terms)) > 1)
        assert a * b == schoolbook(a, b) == b * a, (a, b)
    assert paths == {True, False}
    # many terms over a wide exponent span stay term-wise; same product
    sparse = LaurentPoly({1000 * k: k + 1 for k in range(12)} | {1: -1})
    assert sparse * sparse == schoolbook(sparse, sparse)


def test_packed_product_where_coefficients_cancel():
    for stride in (1, 2, 3):
        q = LaurentPoly.q_power(stride)
        run = sum((q ** k for k in range(80)), LaurentPoly.zero())
        # (1 - X)(1 + X + ... + X^79) = 1 - X^80: every inner coefficient cancels
        assert (1 - q) * run == schoolbook(1 - q, run) == 1 - q ** 80
        big = (1 << 5000) * run * LaurentPoly.q_power(-7)
        assert big * (q - 1) == schoolbook(big, q - 1)
        assert big * run - run * big == 0
        assert (big - big) * run == 0


def test_packed_product_at_its_tight_bound():
    # M (1 + q + ... + q^(n-1)) squared has middle coefficient n M^2, the
    # width bound itself; n = 8 and 16 give widths of every parity, so some
    # M puts the width just past 8, 16, 32 and 64 bits, where a width one bit
    # short is a narrower word
    for n in (8, 16):
        run = sum((LaurentPoly.q_power(k) for k in range(n)), LaurentPoly.zero())
        for m in [1 << k for k in range(100)] + [(1 << k) - 1 for k in range(2, 100)] + [
                (1 << 2500) - 1, -(1 << 2500)]:
            a = m * run
            square = a * a
            assert square.terms[n - 1] == n * m * m
            assert square == schoolbook(a, a), (n, m)
            assert a * -a == -square


def test_ring_products_over_packed_coefficients_are_unchanged():
    rng = random.Random(12)
    for _ in range(40):
        x, y = (RingElement({(rng.randint(0, 2), rng.randint(0, 2)):
                             rand_strided(rng, rng.randint(1, 30), 2, rng.choice((3, 70, 5000)))
                             for _ in range(3)}) for _ in range(2))
        expected = {}
        for k1, p1 in x.terms.items():
            for k2, p2 in y.terms.items():
                key = pair_add(k1, k2)
                expected[key] = expected.get(key, LaurentPoly.zero()) + schoolbook(p1, p2)
        assert x * y == RingElement(expected)


def schoolbook_sum(products):
    """The reference sum of products: every product term by term, then added."""
    total = LaurentPoly.zero()
    for k, factors in products:
        prod = LaurentPoly({0: k})
        for f in factors:
            prod = schoolbook(prod, f)
        total = total + prod
    return total


def packed_sum(products, width=8):
    """The sum of k f_1 ... f_m over products [(k, (f_1, ..., f_m))] on one
    PackedRing of stride 2, each distinct operand packed once, the ring
    widened until it proves the total; returns (the total, the width)."""
    while True:
        ring = PackedRing(width, 2)
        packed = {}
        total = ring.zero
        try:
            for k, factors in products:
                term = ring.pack(LaurentPoly.one())
                for f in factors:
                    v = packed.get(id(f))
                    if v is None:
                        v = packed[id(f)] = ring.pack(f)
                    term = term * v
                total = total + k * term
            return ring.unpack(total), width
        except WidthTooNarrow as exc:
            assert exc.width > width
            width = exc.width


def test_packed_ring_sums_match_the_schoolbook_oracle():
    # random sums of int-weighted products of up to three factors on a
    # PackedRing, against the term-by-term oracle
    rng = random.Random(13)
    widths = set()
    for _ in range(120):
        bits = rng.choice((1, 8, 30, 62, 70, 200))
        pool = [rand_strided(rng, rng.randint(1, 25), 2, bits) for _ in range(5)]
        pool = [f * Q(f.valuation() % 2) for f in pool]  # even exponents only
        pool += [LaurentPoly.q_power(2 * rng.randint(-9, 9), rng.randint(-3, 3) or 1),
                 LaurentPoly({2000 * k: k + 1 for k in range(-3, 9)}),  # sparse
                 LaurentPoly.zero()]
        products = [(rng.choice((1, -1)) * rng.randint(1, 1 << rng.choice((1, 20, 70))),
                     tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))))
                    for _ in range(rng.randint(1, 20))]
        value, width = packed_sum(products, rng.choice((8, 16, 64, 72)))
        assert all(value.terms.values())
        assert value == schoolbook_sum(products), products
        widths.add(width <= 64)  # a word width, or bytes per slot
    assert widths == {True, False}


def test_packed_ring_sums_that_cancel():
    rng = random.Random(14)
    for bits in (3, 62, 70, 5000):
        a, b, c = (rand_strided(rng, 20, 2, bits) for _ in range(3))
        a, b, c = (f * Q(f.valuation() % 2) for f in (a, b, c))  # even exponents only
        abc = schoolbook(schoolbook(a, b), c)
        for products, expected in (
                ([(5, (a, b)), (-5, (b, a))], 0),
                ([(1, (a, b, c)), (-1, (abc,))], 0),
                ([(3, (a, b)), (-1, (a, b, LaurentPoly({0: 3})))], 0),
                ([(1, (a, b)), (-1, (a, b, Q(4))), (1, (a, Q(4), b))], schoolbook(a, b)),
                ([(1, (a, LaurentPoly.zero(), b))], 0),
                ([], 0)):
            assert packed_sum(products)[0] == expected


def test_packed_ring_sums_just_past_each_word_width():
    # every product is run * run, run = 1 + q^2 + ... + q^22: its middle
    # coefficient is 12 = |run|_inf |run|_1, so the middle coefficient of a
    # sum of weights adding up to w is 12 w, the width bound itself; the bit
    # lengths go to just below and just past 8, 16, 32, 64 and 72 - 2 bits
    run = LaurentPoly({2 * k: 1 for k in range(12)})
    for bits in (6, 7, 14, 15, 30, 31, 62, 63, 64, 70, 71, 100):
        total = (1 << bits) // 12
        weights = [total - total // 3, total // 3]
        products = [(w, (run, run)) for w in weights]
        value, width = packed_sum(products)
        assert width == _width(12 * total)
        assert value.terms[22] == 12 * total and (12 * total).bit_length() == bits
        assert value == schoolbook_sum(products)
        if width > 8:
            # the next narrower width does not prove the total
            ring = PackedRing(width - 8 if width > 64 else width // 2, 2)
            x = ring.pack(run)
            with pytest.raises(WidthTooNarrow):
                ring.unpack(sum((w * (x * x) for w in weights), ring.zero))


def test_packed_ring_values_off_its_lattice_raise():
    # an exponent off the stride-2 lattice is never dropped or merged into
    # a neighbouring slot
    ring = PackedRing(16, 2)
    for poly in (LaurentPoly({0: 1, 3: 2}), LaurentPoly({1: 1, 3: 2}), Q(-1)):
        with pytest.raises(AssertionError, match="lattice"):
            ring.pack(poly)
    for width in (8, 64, 72, 39):
        with pytest.raises(AssertionError, match="lattice"):
            pack_poly({0: 1, 3: 2, 4: 5}, width, 0, 2)
    with pytest.raises(AssertionError, match="another"):
        PackedRing(16, 2).unpack(ring.pack(Q(2)))


def test_packed_values_of_two_rings_do_not_mix():
    # two rings of one width and stride are still two rings
    x, y = PackedRing(16, 2).pack(qint(3)), PackedRing(16, 2).pack(qint(3))
    with pytest.raises(AssertionError, match="a sum across packed rings"):
        x + y
    with pytest.raises(AssertionError, match="a product across packed rings"):
        x * y


def test_unpack_rejects_a_value_past_its_top_slot():
    # 2^31 - 1 takes two 16-bit slots, and its biased digits carry out of the
    # top one: the range check raises before any digit is read
    with pytest.raises(AssertionError, match=r"a packed digit reaches 2\^14"):
        unpack_poly((1 << 31) - 1, 16)


def test_packed_ring_proves_a_width_before_it_unpacks():
    ring = PackedRing(16, 2)
    run = LaurentPoly({2 * k: 100 for k in range(12)})  # 12 * 100^2 < 2^17
    x = ring.pack(run)
    assert (x.one, x.sup) == (1200, 100)
    with pytest.raises(WidthTooNarrow) as exc:
        ring.unpack(x * x)
    assert exc.value.width == 32
    ring = PackedRing(32, 2)
    assert ring.unpack(ring.pack(run) * ring.pack(run)) == schoolbook(run, run)
    with pytest.raises(WidthTooNarrow):
        PackedRing(8, 2).pack(run)


def test_a_square_packs_its_operand_once(monkeypatch):
    calls = []
    pack = qonsager.exactring.pack_poly
    monkeypatch.setattr(qonsager.exactring, "pack_poly", lambda *args: calls.append(args) or pack(*args))
    f, g = qint(9), qint(10)  # 81 and 90 term pairs: both products are packed
    assert f * f == schoolbook(f, f) and len(calls) == 1
    assert f * g == schoolbook(f, g) and len(calls) == 3


def rand_factor(rng, dims, stride, bits):
    """{key tuple: coefficient} on up to 4 keys of ``dims`` entries in 0..2;
    each coefficient an int, a one-term or a several-term LaurentPoly."""
    factor = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, 2) for _ in range(dims))
        c = rng.choice((1, -1)) * rng.randint(1, 1 << bits)
        kind = rng.randrange(3)
        if kind == 1:
            c = Q(stride * rng.randint(-5, 5), c)
        elif kind == 2:
            c = rand_strided(rng, rng.randint(2, 12), stride, bits)
        factor[key] = c
    return factor


def l1(poly):
    return sum(abs(c) if isinstance(c, int) else sum(map(abs, c.terms.values()))
               for c in poly.values())


def expected_run(start, factors):
    """start f_1 ... f_s for s = 1, 2, ..., one ``_times`` step at a time over LaurentPolys."""
    poly = {key: LaurentPoly.one() * c for key, c in start.items() if c}
    for factor in factors:
        poly = {key: v for key, v in _times(poly, factor).items() if v}
        yield poly


def test_running_product_matches_times_step_by_step():
    rng = random.Random(16)
    wide = set()
    for _ in range(80):
        dims, stride, bits = rng.choice((1, 2)), rng.choice((1, 2, 3)), rng.choice((1, 8, 20, 40))
        start = rand_factor(rng, dims, stride, bits)
        factors = [rand_factor(rng, dims, stride, bits) for _ in range(rng.randint(1, 5))]
        steps = list(running_product(start, factors))
        assert len(steps) == len(factors)
        for step, expected in zip(steps, expected_run(start, factors)):
            assert step() == expected
        bound = l1(start)
        for factor in factors:
            bound *= l1(factor)
        wide.add(bound.bit_length() + 2 > 64)  # the run's width is not a machine word
    assert wide == {True, False}
    # a zero factor or start: every step from it on is zero, and a zero
    # factor leaves the width of the steps before it as wide as they need
    start, near = {(0,): qint(5), (1,): 3}, {(0,): qint(4), (2,): -2}
    big = {(0,): 10 ** 6}
    for start, factors in ((start, [near, {(0,): 0}, near]), ({}, [near, near]),
                           (big, [big, {(0,): 0}]), (big, [{(0,): 0}, big])):
        steps = [step() for step in running_product(start, factors)]
        assert steps == list(expected_run(start, factors)) and steps[-1] == {}
    assert next(running_product(big, [big, {(0,): 0}]))() == {(0,): 10 ** 12}


@pytest.mark.parametrize("width", [8, 16, 32, 64, 3, 7, 39, 70, 200])
def test_packing_round_trips_at_word_and_other_widths(width):
    rng = random.Random(width)
    limit = 1 << (width - 2)
    for _ in range(50):
        stride = rng.choice((1, 2, 3))
        offset = rng.randint(0, 5) * stride
        poly = {stride * rng.randint(0, 30): rng.randint(1 - limit, limit - 1)
                for _ in range(rng.randint(1, 20))}
        poly = {e: c for e, c in poly.items() if c}
        value = pack_poly(poly, width, offset, stride)
        assert value == sum(c << (width * ((e + offset) // stride)) for e, c in poly.items())
        assert unpack_poly(value, width, -offset, stride) == poly
    for bad in (limit, -limit, 2 * limit - 1, -2 * limit):
        with pytest.raises(AssertionError, match="reaches"):
            unpack_poly((bad << width * 3) + 1, width)
    with pytest.raises(AssertionError, match="bits"):
        pack_poly({0: 1 << width}, width)


def test_codec_checks_survive_optimized_mode():
    # the last three calls force a too-narrow width: an operand's values()
    # understates its coefficients, so the product's bound comes out 12 where
    # its coefficients reach 120000 (a packed step, and f * f through
    # LaurentPoly.__mul__), and the bounds of a whole recursion step come
    # out below its M and N values
    script = ("from qonsager.exactring import LaurentPoly, PackedRing, pack_poly, unpack_poly\n"
              "from qonsager.coefficients import CoeffTable, advance_table, coeff_table\n"
              "class Understated(dict):\n"
              "    def values(self):\n"
              "        return [1] * len(self)\n"
              "f = LaurentPoly._wrap(Understated({2 * e: 100 for e in range(12)}))\n"
              "ring = PackedRing(8, 2)\n"
              "x = ring.pack(f)\n"
              "table = coeff_table(8, 'recursion')\n"
              "table.entries = {k: LaurentPoly._wrap(Understated(v.terms)) for k, v in table.entries.items()}\n"
              "for call in (lambda: unpack_poly(64, 8), lambda: unpack_poly(1 << 37, 39),\n"
              "             lambda: pack_poly({0: 1 << 70}, 64),\n"
              "             lambda: pack_poly({0: 1 << 75}, 72),\n"
              "             lambda: pack_poly({0: 1 << 70}, 39),\n"
              "             lambda: ring.unpack(x * x), lambda: f * f,\n"
              "             lambda: advance_table(table)):\n"
              "    try:\n"
              "        call()\n"
              "    except AssertionError:\n"
              "        continue\n"
              "    raise SystemExit('no AssertionError')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
