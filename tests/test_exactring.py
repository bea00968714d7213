import random
from fractions import Fraction

import pytest

from qonsager import (
    A,
    ExactDivisionError,
    LaurentPoly,
    NcPoly,
    RHO0,
    RingElement,
    parse_expression,
    parse_laurent,
    qint,
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
    expected = parse_laurent("q^4+2*q^2+3+2*q^-2+q^-4")
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
        assert parse_laurent(x.to_string()) == x


def test_canonical_string_format():
    assert qint(3).to_string() == "q^2+1+q^-2"
    assert LaurentPoly.zero().to_string() == "0"
    assert LaurentPoly({1: 1}).to_string() == "q"
    assert LaurentPoly({1: -2, 0: 3}).to_string() == "-2*q+3"
    assert LaurentPoly({-3: 1}).to_string() == "q^-3"
    assert parse_laurent("q^4 + 3 + q^-4") == parse_laurent("q^4+3+q^-4")


def test_parse_laurent_rejects_garbage():
    for bad in ("", "+q", "q^", "3*", "q**2"):
        with pytest.raises(ValueError):
            parse_laurent(bad)


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
