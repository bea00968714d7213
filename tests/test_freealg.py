import random

import pytest

from qonsager import (
    A,
    LaurentPoly,
    ASTAR,
    NcPoly,
    ParseError,
    RHO0,
    RHO1,
    RingElement,
    parse_expression,
    qint,
    word_string,
)
from conftest import rand_ncpoly, rand_ring


def test_basic_products():
    assert (A * ASTAR).terms == {"as": RingElement.one()}
    assert (A ** 3 * ASTAR).terms == {"aaas": RingElement.one()}


def test_noncommutativity_witness():
    value = (A - ASTAR) * (A + ASTAR)
    assert value.terms == {
        "aa": RingElement.one(),
        "as": RingElement.one(),
        "sa": -RingElement.one(),
        "ss": -RingElement.one(),
    }
    assert value != (A + ASTAR) * (A - ASTAR)


def test_unit_monomial_is_two_sided_identity():
    rng = random.Random(20)
    one = NcPoly.one()
    for _ in range(30):
        x = rand_ncpoly(rng)
        assert one * x == x
        assert x * one == x


def test_multiplication_is_associative_and_bilinear():
    rng = random.Random(21)
    for _ in range(40):
        x, y, z = (rand_ncpoly(rng, max_terms=3, max_len=4) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
    c = rand_ring(rng)
    x, y = rand_ncpoly(rng), rand_ncpoly(rng)
    assert (x * c) * y == (x * y) * c


def test_dagger_swaps_letters_in_place():
    assert (A * ASTAR).dagger() == ASTAR * A
    assert (A * RHO0).dagger() == ASTAR * RHO1


def test_dagger_is_an_involutive_automorphism():
    rng = random.Random(22)
    for _ in range(40):
        x, y = rand_ncpoly(rng), rand_ncpoly(rng)
        assert x.dagger().dagger() == x
        assert (x * y).dagger() == x.dagger() * y.dagger()
        assert (x + y).dagger() == x.dagger() + y.dagger()


def test_specialize_rho_zero_on_ncpoly():
    x = A * RHO0 + ASTAR * qint(2)
    assert x.specialize_rho_zero() == ASTAR * qint(2)


def test_parse_simple_words():
    assert parse_expression("A^3 A*") == A ** 3 * ASTAR
    assert parse_expression("A* A") == ASTAR * A
    assert parse_expression("A*^2 A^2") == ASTAR ** 2 * A ** 2
    assert parse_expression("1") == NcPoly.one()
    assert parse_expression("A^0") == parse_expression("A*^0 A^0") == NcPoly.one()
    assert parse_expression("A^0 A*") == ASTAR


def test_parse_coefficients():
    expected = A * ASTAR * qint(1) - RHO0 * A
    two_terms = parse_expression("q^0 A A* - rho0 A")
    assert two_terms == expected
    assert parse_expression("q^2 A A* - rho0 A") == (
        A * ASTAR * RingElement.from_laurent(LaurentPoly.q_power(2))
        - RHO0 * A)


def test_parse_qint_coefficient():
    assert parse_expression("[3]_q A^2 A* A") == A ** 2 * ASTAR * A * qint(3)


def test_parse_parenthesized_sums():
    value = parse_expression("(q^2 + 1 + q^-2) A - [3]_q A")
    assert value.is_zero()
    assert parse_expression("(rho0*q^2 + 3) A*") == ASTAR * (
        RHO0 * RingElement.from_laurent(LaurentPoly.q_power(2))
        + RingElement.from_int(3))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expression("A^3 +")
    assert info.value.pos == 5
    for text in ("A + *", "", "A +"):
        with pytest.raises(ParseError, match="expected a term"):
            parse_expression(text)
    with pytest.raises(ParseError):
        parse_expression("q^^2 A")
    with pytest.raises(ParseError):
        parse_expression("A^9999999")  # exponent overflow


@pytest.mark.parametrize("text, message", [
    ("A +", "expected a term (position 3)"),
    ("(A) A", "expected a scalar atom (position 1)"),
    ("[3] A", "expected ']_q' (position 2)"),
    ("(1 A", "expected ')' (position 3)"),
    ("A^x", "expected an integer (position 2)"),
    ("A^ 1000001", "exponent overflow (position 3)"),
    ("9" * 1235 + " A", "integer longer than 1234 digits (position 0)"),
    ("9" * 1234 + " A", "scalar with room for a coefficient above 2^4096 (position 0)"),
    ("A^100 A^29", "word longer than 128 letters (position 6)"),
    # a size error on a power of a sum is reported at its '^', one on [n]_q
    # (checked at power 1 too) at the end of ']_q'
    ("(1+q) ^1000 A", "scalar with room for more than 1000 terms (position 6)"),
    ("[30]_q ^400 A", "scalar with room for more than 1000 terms (position 6)"),
    ("[501]_q A", "scalar with room for more than 1000 terms (position 7)"),
    ("[1000000]_q A", "scalar with room for more than 1000 terms (position 11)"),
    # and one on a product at its '*'
    ("(2)^2048 *(2)^2049 A", "scalar with room for a coefficient above 2^4096 (position 9)"),
    # exponents of products and powers keep the bound of a written one
    ("q^1000000*q^1000000 A", "exponent overflow (position 9)"),
    ("(q^1000000)^1000000 A", "exponent overflow (position 11)"),
    ("rho0^1000000*rho0 A", "exponent overflow (position 12)"),
    ("A )", "trailing input (position 2)"),
    # integers are ASCII digits only
    ("²", "expected a term (position 0)"),
    ("١٢ A", "expected a term (position 0)"),
    ("[³]_q A", "expected an integer (position 1)"),
    ("A^٣ A*", "expected an integer (position 2)"),
    # an exponent's digits are counted before it is converted
    ("A^" + "9" * 5000, "exponent overflow (position 2)"),
    ("q^-" + "0" * 4000 + "1" + "0" * 1000 + " A", "exponent overflow (position 3)"),
], ids=lambda v: v[:16])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert str(info.value) == message


def test_parse_strips_leading_zeros_of_an_exponent():
    assert parse_expression("A^" + "0" * 5000 + "1") == A
    assert parse_expression("[" + "0" * 5000 + "3]_q A") == A * qint(3)
    assert parse_expression("q^-0001000000 A") == A * LaurentPoly.q_power(-1000000)


_FUZZ_TOKENS = ("A", "A*", "A", "A*", "q", "rho0", "rho1", "[", "]_q", "(", ")", "^", "^",
                "-", "+", "*", "0", "1", "2", "3", "12", "007", "²", "١",
                "9" * 5000, "0" * 5000 + "1")
_FUZZ_GAPS = ("", "", "", " ", "\t")


def test_only_parse_errors_escape_the_parser():
    rng = random.Random(24)
    parsed = 0
    for _ in range(20000):
        text = "".join(rng.choice(_FUZZ_GAPS) + rng.choice(_FUZZ_TOKENS)
                       for _ in range(rng.randint(1, 8)))
        try:
            value = parse_expression(text)
        except ParseError:
            continue
        assert parse_expression(value.to_string()) == value, text
        parsed += 1
    assert parsed > 1000


def test_parse_caps_the_letters_of_a_word():
    # the cap counts every factor of a term, not each exponent on its own
    assert len(next(iter(parse_expression("A^127 A*").terms))) == 128
    assert parse_expression("A^100 A^28") == A ** 128
    for text in ("A^100 A^29", "A^129", "A^100 A^100 A*", "q A A*^128"):
        with pytest.raises(ParseError):
            parse_expression(text)
    # each term has its own budget
    assert parse_expression("A^128 + A*^128").term_count() == 2
    # q and rho exponents keep the 10^6 limit
    parse_expression("q^-1000000*rho0^1000 A")
    with pytest.raises(ParseError):
        parse_expression("q^-1000001 A")


def test_parse_bounds_scalar_products_and_powers():
    # the benchmark's coefficient forms and wide monomials still parse
    assert parse_expression("q^1000000 A") == A * LaurentPoly.q_power(1000000)
    assert parse_expression("[3]_q A") == A * qint(3)
    assert parse_expression("(q + q^-1) A") == A * LaurentPoly({1: 1, -1: 1})
    assert parse_expression("(1 - q^11) A") == A * LaurentPoly({0: 1, 11: -1})
    # coefficient integers are not exponents
    assert parse_expression("2000000 A") == A * 2000000
    # room for at most 1000 terms: (q-span + 1)(rho0-span + 1)(rho1-span + 1)
    assert len(parse_expression("(1+q)^999 A").terms["a"].terms[(0, 0)].terms) == 1000
    parse_expression("(1+q)^500*(1+q)^499 A")
    parse_expression("(1+rho0)^9*(1+rho1)^99 A")
    parse_expression("[500]_q A")
    # integer coefficients up to 2^4096, literals and computed values alike
    assert parse_expression("(2)^4096 A") == A * 2 ** 4096
    assert parse_expression("(2)^2048*(2)^2048 A") == A * 2 ** 4096
    assert parse_expression(str(2 ** 4096) + " A") == A * 2 ** 4096
    assert parse_expression("9" * 1233 + " A") == A * (10 ** 1233 - 1)
    for text in ("(1+q)^1000 A", "(1+q)^500*(1+q)^500 A", "(1+rho0)^10*(1+rho1)^99 A",
                 "[501]_q A"):
        with pytest.raises(ParseError):
            parse_expression(text)
    for text in ("(2)^4097 A", "(2)^2048*(2)^2049 A", "(999999)^1000000 A",
                 str(2 ** 4096 + 1) + " A", "9" * 1235 + " A"):
        with pytest.raises(ParseError, match=r"2\^4096|1234 digits"):
            parse_expression(text)


def test_print_parse_round_trip():
    rng = random.Random(23)
    for _ in range(100):
        x = rand_ncpoly(rng)
        assert parse_expression(x.to_string()) == x
    # values at the exponent and integer bounds print as text that parses back
    for text in ("(2)^4096 A", "(q^1000)^1000 A", "q^1000000*q^-1000000 A",
                 "rho0^999999*rho0*rho1^1000000 A", "q^-1000000*rho0^1000000 A",
                 "[500]_q A", "-(2)^2048*[2]_q^3 A*"):
        x = parse_expression(text)
        assert parse_expression(x.to_string()) == x, text


def test_canonical_term_order():
    # graded lexicographic with A < A*
    x = ASTAR * A + A * ASTAR + A + ASTAR
    printed = x.to_string()
    assert printed == "A + A* + A A* + A* A"
    assert word_string("aaassa") == "A^3 A*^2 A"
    assert word_string("") == "1"
