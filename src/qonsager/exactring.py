"""Exact scalar arithmetic for the relation machinery.

Two layers: ``LaurentPoly`` is a Laurent polynomial in the deformation
parameter q with arbitrary-precision integer coefficients, stored sparsely
as {exponent: coefficient}.  ``RingElement`` extends it by the two commuting
formal parameters rho0, rho1 (the structure constants of the defining
relations), stored as {(rho0 power, rho1 power): LaurentPoly}.

Everything is immutable after construction and kept in canonical sparse
form (no zero coefficients are ever stored), so equality is exact
coefficient-wise comparison and values can be shared freely.

Rational numbers for matrix evaluation are ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


class ExactDivisionError(ArithmeticError):
    """A division that the caller asserted to be exact left a remainder."""


def _trim(terms):
    return {e: c for e, c in terms.items() if c != 0}


class LaurentPoly:
    """Sparse Laurent polynomial in q over the integers."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = _trim(terms) if terms else {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def from_int(n: int) -> "LaurentPoly":
        return LaurentPoly({0: n})

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: coeff})

    # -- ring structure ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        res._hash = None
        return res

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        res._hash = None
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure queries ----------------------------------------------

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^{-1}."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    def is_bar_invariant(self) -> bool:
        return all(self.terms.get(-e) == c for e, c in self.terms.items())

    # -- exact division --------------------------------------------------

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ExactDivisionError on any remainder.

        Long division from the top exponent.  Every leading-coefficient
        division must come out integral, which holds for all divisors this
        library produces (q-integers, q-binomials, beta factors are monic).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        rem = dict(self.terms)
        dtop = divisor.degree()
        dlead = divisor.terms[dtop]
        quot = {}
        while rem:
            rtop = max(rem)
            if rtop - dtop < min(rem) - divisor.valuation():
                raise ExactDivisionError(f"{self!r} not divisible by {divisor!r}")
            c, r = divmod(rem[rtop], dlead)
            if r:
                raise ExactDivisionError(f"{self!r} not divisible by {divisor!r}")
            shift = rtop - dtop
            quot[shift] = c
            for e, dc in divisor.terms.items():
                s = rem.get(e + shift, 0) - c * dc
                if s:
                    rem[e + shift] = s
                elif e + shift in rem:
                    del rem[e + shift]
        return LaurentPoly(quot)

    # -- evaluation --------------------------------------------------------

    def eval_at(self, q_val: Fraction) -> Fraction:
        """Exact substitution q = q_val (q_val nonzero)."""
        q_val = Fraction(q_val)
        if q_val == 0:
            raise ValueError("q must be nonzero")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * q_val ** e
        return total

    # -- canonical text form -------------------------------------------------

    def to_string(self) -> str:
        """Canonical form: strictly decreasing exponents, q^0 elided, q^1 as q.

        This string is the bit-exact export format used by the CSV and LaTeX
        emitters and the test fixtures.
        """
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}*{qp}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r})"


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the canonical Laurent grammar.

    laurent := term (('+'|'-') term)*
    term    := integer ['*' 'q' ['^' signed-integer]] | 'q' ['^' signed-integer]
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Laurent literal")
    if s == "0":
        return LaurentPoly()
    terms = {}
    i = 0
    n = len(s)

    def read_int(j, allow_sign=False):
        k = j
        if allow_sign and k < n and s[k] in "+-":
            k += 1
        start_digits = k
        while k < n and s[k].isdigit():
            k += 1
        if k == start_digits:
            raise ValueError(f"expected integer at position {j} in {text!r}")
        return int(s[j:k]), k

    first = True
    while i < n:
        start = i
        sign = 1
        if s[i] == "+":
            if first:
                raise ValueError(f"unexpected '+' at position {i} in {text!r}")
            i += 1
        elif s[i] == "-":
            sign = -1
            i += 1
        first = False
        coeff = 1
        had_body = False
        if i < n and s[i].isdigit():
            coeff, i = read_int(i)
            had_body = True
            if i < n and s[i] == "*":
                i += 1
                if i >= n or s[i] != "q":
                    raise ValueError(f"expected 'q' at position {i} in {text!r}")
        exp = 0
        if i < n and s[i] == "q":
            i += 1
            exp = 1
            had_body = True
            if i < n and s[i] == "^":
                exp, i = read_int(i + 1, allow_sign=True)
        if not had_body or i == start:
            raise ValueError(f"unexpected character at position {i} in {text!r}")
        terms[exp] = terms.get(exp, 0) + sign * coeff
    return LaurentPoly(terms)


_L_ZERO = LaurentPoly.zero()
_L_ONE = LaurentPoly.one()


class RingElement:
    """Polynomial in rho0, rho1 with LaurentPoly coefficients.

    rho1 is carried even though family-one computations never produce it:
    the dagger substitution rho0 <-> rho1 is then a total map.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()} if terms else {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RingElement":
        return RingElement()

    @staticmethod
    def one() -> "RingElement":
        return RingElement({(0, 0): _L_ONE})

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "RingElement":
        return RingElement({(0, 0): p})

    @staticmethod
    def from_int(n: int) -> "RingElement":
        return RingElement({(0, 0): LaurentPoly.from_int(n)})

    @staticmethod
    def rho0(power: int = 1) -> "RingElement":
        return RingElement({(power, 0): _L_ONE})

    @staticmethod
    def rho1(power: int = 1) -> "RingElement":
        return RingElement({(0, power): _L_ONE})

    @staticmethod
    def _coerce(other):
        if isinstance(other, RingElement):
            return other
        if isinstance(other, LaurentPoly):
            return RingElement.from_laurent(other)
        if isinstance(other, int):
            return RingElement.from_int(other)
        return None

    # -- ring structure ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = RingElement._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self):
        return RingElement({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        other = RingElement._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        res = RingElement.__new__(RingElement)
        res.terms = out
        res._hash = None
        return res

    __radd__ = __add__

    def __sub__(self, other):
        other = RingElement._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RingElement._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for (a0, a1), u in self.terms.items():
            for (b0, b1), v in other.terms.items():
                k = (a0 + b0, a1 + b1)
                p = u * v
                s = out.get(k)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        res = RingElement.__new__(RingElement)
        res.terms = out
        res._hash = None
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a ring element")
        result = RingElement.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- rho structure -----------------------------------------------------

    def dagger(self) -> "RingElement":
        """Swap rho0 <-> rho1 (the coefficient half of the algebra automorphism)."""
        return RingElement({(e1, e0): v for (e0, e1), v in self.terms.items()})

    def specialize_rho_zero(self) -> LaurentPoly:
        """The component of rho-degree (0, 0), i.e. the value at rho0 = rho1 = 0."""
        return self.terms.get((0, 0), _L_ZERO)

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, q_val: Fraction, rho0_val: Fraction = Fraction(0),
                rho1_val: Fraction = Fraction(0)) -> Fraction:
        """Exact substitution; a ring homomorphism into the rationals."""
        q_val = Fraction(q_val)
        if q_val == 0:
            raise ValueError("q must be nonzero")
        rho0_val = Fraction(rho0_val)
        rho1_val = Fraction(rho1_val)
        total = Fraction(0)
        for (e0, e1), p in self.terms.items():
            total += p.eval_at(q_val) * rho0_val ** e0 * rho1_val ** e1
        return total

    # -- text form --------------------------------------------------------------

    def _piece(self, key):
        """(sign, body) for one rho-monomial; parenthesizes composite Laurent parts."""
        e0, e1 = key
        p = self.terms[key]
        rho = []
        if e0:
            rho.append("rho0" if e0 == 1 else f"rho0^{e0}")
        if e1:
            rho.append("rho1" if e1 == 1 else f"rho1^{e1}")
        if len(p.terms) == 1:
            ((e, c),) = p.terms.items()
            sign = 1 if c > 0 else -1
            mag = abs(c)
            factors = []
            if mag != 1 or (e == 0 and not rho):
                factors.append(str(mag))
            if e:
                factors.append("q" if e == 1 else f"q^{e}")
            factors.extend(rho)
            return sign, "*".join(factors)
        body = f"({p.to_string()})"
        if rho:
            body += "*" + "*".join(rho)
        return 1, body

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for key in sorted(self.terms, reverse=True):
            sign, body = self._piece(key)
            if not out:
                out.append(body if sign > 0 else "-" + body)
            else:
                out.append((" + " if sign > 0 else " - ") + body)
        return "".join(out)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"RingElement({self.to_string()!r})"


RHO0 = RingElement.rho0()
RHO1 = RingElement.rho1()
