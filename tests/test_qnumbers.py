import random
from fractions import Fraction

import pytest

from qonsager import (
    EigenvalueData,
    LaurentPoly,
    beta_s,
    parse_expression,
    qbinomial,
    qfactorial,
    qint,
    reduced_tridiagonal_params,
    tridiagonal_parameters,
)

Q = LaurentPoly.q_power


def test_qint_values():
    assert qint(0) == LaurentPoly.one()
    assert qint(1) == LaurentPoly.one()
    assert qint(3) == parse_expression("q^2+1+q^-2")
    assert qint(4, base=2) == parse_expression("q^6+q^2+q^-2+q^-6")
    with pytest.raises(ValueError):
        qint(-1)


def test_qint_base2_by_exact_division():
    # [4]_{q^2} = (q^8 - q^-8) / (q^2 - q^-2)
    assert (Q(8) - Q(-8)).divexact(Q(2) - Q(-2)) == qint(4, base=2)


def test_qfactorial():
    assert qfactorial(0) == LaurentPoly.one()
    assert qfactorial(3) == qint(2) * qint(3)


def test_qbinomial_examples():
    assert qbinomial(5, 1) == parse_expression("q^4+q^2+1+q^-2+q^-4")
    assert qbinomial(7, 0) == LaurentPoly.one()
    # coefficient sequence 1,1,2,3,4,4,5,4,4,3,2,1,1 on exponents -12..12 step 2
    seq = [1, 1, 2, 3, 4, 4, 5, 4, 4, 3, 2, 1, 1]
    assert qbinomial(7, 3) == LaurentPoly(
        {12 - 2 * i: c for i, c in enumerate(seq)})


def test_qbinomial_matches_qfactorial_oracle():
    # independent of the q-Pascal rows: exact division of q-factorials, where a
    # remainder raises ExactDivisionError
    fact = [qfactorial(n) for n in range(30)]
    for n in range(30):
        for k in range(n + 1):
            oracle = fact[n].divexact(fact[k] * fact[n - k])
            assert qbinomial(n, k) == oracle, (n, k)


def test_qbinomial_symmetries():
    for n in range(13):
        for k in range(n + 1):
            value = qbinomial(n, k)
            assert value == qbinomial(n, n - k)
            assert value.is_bar_invariant()


def test_qbinomial_classical_limit():
    from math import comb
    for n in range(10):
        for k in range(n + 1):
            assert qbinomial(n, k).eval_at(Fraction(1)) == comb(n, k)


def test_qbinomial_range_errors():
    with pytest.raises(ValueError):
        qbinomial(3, 4)
    with pytest.raises(ValueError):
        qbinomial(3, -1)


def test_beta_values_and_division_identity():
    assert beta_s(1) == parse_expression("q^2+q^-2")
    assert beta_s(2) == parse_expression("q^4+q^-4")
    for s in range(1, 11):
        assert beta_s(s) == Q(2 * s) + Q(-2 * s)
        assert qint(2 * s, base=2) == qint(s, base=2) * beta_s(s)


def test_reduced_params_alpha_zero_closed_form():
    data = EigenvalueData(alpha=0, b=Fraction(2), c=Fraction(-3), d=5, q_val=Fraction(5, 2))
    q = data.q_val
    for s in (1, 2, 3):
        params = tridiagonal_parameters(s, data)
        assert params.beta == q ** (2 * s) + q ** (-2 * s)
        assert params.gamma == 0
        assert params.delta == -data.b * data.c * (q ** (2 * s) - q ** (-2 * s)) ** 2


def test_step_one_delta_is_the_structure_constant():
    data = EigenvalueData(alpha=0, b=Fraction(1, 3), c=Fraction(7), d=3, q_val=Fraction(2))
    params = tridiagonal_parameters(1, data)
    q = data.q_val
    assert params.delta == -data.b * data.c * (q ** 2 - q ** -2) ** 2


def test_alpha_nonzero_solved_and_verified_on_all_pairs():
    data = EigenvalueData(alpha=1, b=2, c=3, d=4, q_val=Fraction(5, 2))
    params = tridiagonal_parameters(2, data)
    for i in range(data.d - 1):
        ti, tj = data.theta(i), data.theta(i + 2)
        residual = (ti * ti - params.beta * ti * tj + tj * tj
                    - params.gamma * (ti + tj) - params.delta)
        assert residual == 0


def test_vanishing_on_random_rational_grid():
    rng = random.Random(11)
    for _ in range(25):
        data = EigenvalueData(
            alpha=Fraction(rng.randint(-3, 3)),
            b=Fraction(rng.randint(1, 5), rng.randint(1, 3)),
            c=Fraction(rng.randint(1, 5)),
            d=rng.randint(2, 5),
            q_val=Fraction(rng.randint(4, 9), rng.choice((1, 3))),
        )
        for s in range(1, data.d):
            params = tridiagonal_parameters(s, data)
            for i in range(data.d - s + 1):
                ti, tj = data.theta(i), data.theta(i + s)
                assert (ti * ti - params.beta * ti * tj + tj * tj
                        - params.gamma * (ti + tj) - params.delta) == 0


def _residuals(params, data):
    s = params.s
    return [ti * ti - params.beta * ti * tj + tj * tj - params.gamma * (ti + tj) - params.delta
            for ti, tj in ((data.theta(i), data.theta(i + s)) for i in range(data.d - s + 1))]


def test_insufficient_diameter_errors():
    data = EigenvalueData(alpha=0, b=1, c=1, d=2, q_val=Fraction(3))
    with pytest.raises(ValueError):
        tridiagonal_parameters(3, data)
    # alpha != 0 with d = s has one pair, which the closed form satisfies
    skew = EigenvalueData(alpha=1, b=1, c=1, d=2, q_val=Fraction(3))
    assert _residuals(tridiagonal_parameters(2, skew), skew) == [0]


def test_equal_pair_sums_give_the_canonical_gamma():
    # b = c mirrors the grid, so both pairs at distance 5 have one sum and
    # leave gamma free; the closed form returns alpha (2 - beta)
    data = EigenvalueData(alpha=Fraction(-5, 4), b=-1, c=-1, d=6, q_val=Fraction(7, 3))
    assert data.theta(0) + data.theta(5) == data.theta(1) + data.theta(6)
    params = tridiagonal_parameters(5, data)
    assert params.gamma == data.alpha * (2 - params.beta)
    assert _residuals(params, data) == [0, 0]


def test_every_pair_is_checked(monkeypatch):
    data = EigenvalueData(alpha=1, b=2, c=3, d=4, q_val=Fraction(5, 2))
    theta = EigenvalueData.theta
    monkeypatch.setattr(EigenvalueData, "theta",
                        lambda self, i: theta(self, i) + (i == 3))
    with pytest.raises(ArithmeticError, match="pair"):
        tridiagonal_parameters(1, data)


def test_eigenvalue_data_validation():
    with pytest.raises(ValueError):
        EigenvalueData(alpha=0, b=0, c=1, d=2, q_val=Fraction(3))
    with pytest.raises(ValueError):
        EigenvalueData(alpha=0, b=1, c=1, d=2, q_val=Fraction(1))


def test_reduced_symbolic_params():
    from qonsager import RHO0, RingElement
    params = reduced_tridiagonal_params(2)
    assert params.beta == RingElement.from_laurent(beta_s(2))
    assert params.gamma == RingElement.zero()
    assert params.delta == RHO0 * RingElement.from_laurent(qint(2, base=2) ** 2)
