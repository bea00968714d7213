"""q-integers, q-binomials, and the tridiagonal parameter sequences.

Conventions: [n]_q = (q^n - q^{-n})/(q - q^{-1}) with [0]_q = 1, q-factorials
are products of these, and q-binomials come from the q-Pascal rule, one row
per n, each row built once per process.  The exact division of q-factorials
stays available as an independent check (``qfactorial``).

The ``base`` argument of ``qint`` replaces q by q^base; the coefficient
formulas live almost entirely in base 2 (q^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactring import LaurentPoly, RingElement, Rational


def qint(n: int, base: int = 1) -> LaurentPoly:
    """The symmetric q-integer [n] at base q^base, e.g. [3]_q = q^2 + 1 + q^-2."""
    if n < 0:
        raise ValueError("q-integer undefined for negative n")
    if n == 0:
        return LaurentPoly.one()
    return LaurentPoly({base * (n - 1 - 2 * k): 1 for k in range(n)})


def qfactorial(n: int) -> LaurentPoly:
    if n < 0:
        raise ValueError("q-factorial undefined for negative n")
    out = LaurentPoly.one()
    for k in range(2, n + 1):
        out = out * qint(k)
    return out


_QPASCAL_ROWS = [[LaurentPoly.one()]]  # [n,k] = q^k [n-1,k] + q^{k-n} [n-1,k-1]


def qbinomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial [n choose k] from the q-Pascal rows, each built once per process."""
    if not 0 <= k <= n:
        raise ValueError(f"q-binomial needs 0 <= k <= n, got ({n}, {k})")
    while len(_QPASCAL_ROWS) <= n:
        m, prev = len(_QPASCAL_ROWS), _QPASCAL_ROWS[-1]
        inner = [LaurentPoly.q_power(i) * prev[i] + LaurentPoly.q_power(i - m) * prev[i - 1]
                 for i in range(1, m)]
        _QPASCAL_ROWS.append([LaurentPoly.one(), *inner, LaurentPoly.one()])
    return _QPASCAL_ROWS[n][k]


def beta_s(s: int) -> LaurentPoly:
    """[2s]_{q^2} / [s]_{q^2}, computed by exact division (equals q^{2s} + q^{-2s})."""
    if s < 1:
        raise ValueError("beta_s needs s >= 1")
    return qint(2 * s, base=2).divexact(qint(s, base=2))


@dataclass(frozen=True)
class TridiagonalParams:
    """One step of the parameter sequence: the quadratic
    x^2 - beta*x*y + y^2 - gamma*(x+y) - delta vanishes on eigenvalue pairs
    at distance s.  Values are Fractions (numeric data) or RingElements
    (the symbolic reduced sequence)."""

    s: int
    beta: object
    gamma: object
    delta: object


@dataclass(frozen=True)
class EigenvalueData:
    """Eigenvalue grid theta_i = alpha + b q^{2i-d} + c q^{d-2i}, exact rationals."""

    alpha: Rational
    b: Rational
    c: Rational
    d: int
    q_val: Rational

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "q_val", Fraction(self.q_val))
        if self.b == 0 or self.c == 0:
            raise ValueError("b and c must be nonzero")
        if self.q_val in (0, 1, -1):
            raise ValueError("q must avoid 0, 1, -1")
        if self.d < 0:
            raise ValueError("diameter must be nonnegative")

    def theta(self, i: int) -> Fraction:
        q = self.q_val
        return self.alpha + self.b * q ** (2 * i - self.d) + self.c * q ** (self.d - 2 * i)


def _pair_residual(p: TridiagonalParams, ti: Fraction, tj: Fraction) -> Fraction:
    return ti * ti - p.beta * ti * tj + tj * tj - p.gamma * (ti + tj) - p.delta


def tridiagonal_parameters(s: int, data: EigenvalueData) -> TridiagonalParams:
    """Determine (beta_s, gamma_s, delta_s) for the eigenvalue grid.

    One closed form for every alpha: beta_s = q^{2s} + q^{-2s},
    gamma_s = alpha (2 - beta_s) and
    delta_s = -alpha^2 (2 - beta_s) - bc (q^{2s} - q^{-2s})^2, because
    u = theta - alpha satisfies u_i^2 - beta_s u_i u_j + u_j^2 =
    -bc (q^{2s} - q^{-2s})^2 for j = i + s.  The defining vanishing is then
    checked on every pair at distance s -- that check IS the contract.  A
    diameter d = s has one pair, and it is checked like any other; where all
    pair sums coincide the grid leaves gamma_s free, and this returns the
    canonical alpha (2 - beta_s).
    """
    if s < 1:
        raise ValueError("step must be positive")
    if data.d < s:
        raise ValueError(f"diameter {data.d} has no eigenvalue pair at distance {s}")
    q = data.q_val
    beta = q ** (2 * s) + q ** (-2 * s)
    gamma = data.alpha * (2 - beta)
    delta = -data.alpha * gamma - data.b * data.c * (q ** (2 * s) - q ** (-2 * s)) ** 2
    params = TridiagonalParams(s=s, beta=beta, gamma=gamma, delta=delta)
    for i in range(data.d - s + 1):
        if _pair_residual(params, data.theta(i), data.theta(i + s)) != 0:
            raise ArithmeticError(
                f"tridiagonal vanishing fails at pair ({i}, {i + s}) for s={s}")
    return params


def reduced_tridiagonal_params(s: int) -> TridiagonalParams:
    """The symbolic reduced sequence: beta_s = q^{2s}+q^{-2s}, gamma_s = 0,
    delta_s = [s]^2_{q^2} * rho0 (rho0 formal)."""
    if s < 1:
        raise ValueError("step must be positive")
    beta = RingElement.from_laurent(beta_s(s))
    delta = RingElement.rho0() * RingElement.from_laurent(qint(s, base=2) ** 2)
    return TridiagonalParams(s=s, beta=beta, gamma=RingElement.zero(), delta=delta)
