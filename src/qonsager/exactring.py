"""Exact scalar arithmetic for the relation machinery.

One core under three rings.  ``SparseSum`` is a finite sum {key: coefficient}
that never stores a zero coefficient.  It owns construction, equality and
hashing, the additive group, the product (keys multiply, coefficients
multiply, equal keys collect), powers and the text form.  A ring built on it
declares only its unit key, how two of its keys multiply, and which scalars
it accepts; a scalar is placed at the unit key through the coefficient ring's
own coercion, so mixed products and comparisons need no special cases.

``LaurentPoly`` is a Laurent polynomial in the deformation parameter q,
{exponent: int}.  ``RingElement`` adds the two commuting formal parameters
rho0, rho1 (the structure constants of the defining relations),
{(rho0 power, rho1 power): LaurentPoly}.  ``freealg.NcPoly`` is the third
ring on the same core: words in A, A* over RingElement.

Everything is immutable after construction and kept in canonical sparse form,
so equality is exact coefficient-wise comparison and values can be shared
freely.

``LaurentPoly.__mul__`` is the only arithmetic override.  An int or a
one-term operand scales term by term, a product of fewer than
``_SCHOOLBOOK_PAIRS`` term pairs runs the schoolbook loop, and the rest is
one packed product, ``_packed_product`` (the operand of a square a a is
measured and packed once).

The packed product is a Kronecker substitution.  With g the gcd of the
exponent gaps of both operands, each operand is read as a polynomial in
X = q^g from its least exponent and evaluated at X = 2^W once
(``pack_poly``).  The int product of the two is the product at X = 2^W, and
its balanced base-2^W digits (``unpack_poly``) are the coefficients of a b.
A product that spans at least as many slots as it has term pairs (a sparse
operand such as q^(10^6) + q^(-10^6)) goes term by term instead.

Why W suffices.  Write |f|_1 for the sum and |f|_inf for the largest of the
absolute values of f's coefficients.  A coefficient of a b is a sum of
c_a c_b over one term of each operand, the exponents adding up to its own;
once the term of b is chosen at most one term of a fits, so the coefficient
is at most |a|_inf |b|_1 in absolute value, and likewise at most
|a|_1 |b|_inf.  So B = min(|a|_inf |b|_1, |a|_1 |b|_inf), never more than
min(len a, len b) max|a| max|b|, bounds every coefficient of a b, a and b,
below 2^(K-2) for K = bit_length(B) + 2.  W is K, rounded up to 8, 16, 32
or 64 bits when K is at most 64 (the slots then move through ``array`` as
machine words) and to a multiple of 8 above (they then move as bytes, one
``int.to_bytes`` per slot).  The balanced base-2^W digits of an int, each in
[-2^(W-1), 2^(W-1)), are unique, so a sum of c_k 2^(Wk) with every |c_k|
below 2^(W-1) has exactly the c_k as its digits.  There is no fixed width,
and nothing wraps.  The same codec carries ``rewrite``'s packed reduction,
whose width argument is in that module's docstring; its widths need not be
multiples of 8, and those slots move as binary text.  ``pack_poly`` checks
every slot against 2^(W-1) and every exponent against the stride lattice
(a term off it would have no slot), ``unpack_poly`` every digit against
2^(W-2), and both raise ``AssertionError`` (not ``assert``, so the checks
stay under ``python -O``).

Packed values.  A computation of many sums and products, such as one step
of the coefficient recursion, runs on one ``PackedRing``: one width W and
one stride g, every exponent a multiple of g.  A ``Packed`` value
f = q^low h(q^g) is the int h(2^W), its least exponent low, and bounds
one >= |f|_1 and sup >= |f|_inf, exact when packed.  A sum shifts the
operand of the greater low by W (low gap / g) bits and adds, with
|a + b| <= |a| + |b| in both norms; k a scales both bounds by |k|; a
product is the int product, lows adding, with |a b|_1 <= |a|_1 |b|_1 and
|a b|_inf <= min(|a|_inf |b|_1, |a|_1 |b|_inf) as above.  Evaluation at
X = 2^W is a ring homomorphism, so each value is h(2^W) exactly whatever W
is; only packing and unpacking need the width.  The ring packs or unpacks
a value only when its bound is below 2^(W-2) (``PackedRing.check``), and
otherwise raises ``WidthTooNarrow``, which names the width that proves it,
before it touches the value; the caller reruns at that width.  So a value
is only ever unpacked at a proved width.

The running product, ``running_product``, multiplies start f_1 ... f_s one
factor at a time over {key tuple: LaurentPoly or int}, the keys being the
exponents of further commuting variables (x and y in ``coefficients``).
Each key's coefficient is one int for the whole run, packed at one width W
and one stride g: g is the gcd of the exponent gaps of the start and of
every factor, each counted from its own least exponent, and a partial
product is read from the sum of their least exponents.  A factor's term
scales each packed int by its coefficient, as shifted int multiples for a
one-term or sparse coefficient (beta_s = q^(2s) + q^(-2s) is two shifts) or
as one int product with the coefficient's packing otherwise, and adds it at
its key.  Every step yields a function that unpacks it, so a caller unpacks
only the steps it reads.  Why W suffices: write |P|_1 for the sum of the
absolute values of all coefficients over all keys of P.  A coefficient of
start f_1 ... f_s, or of a partial sum of the step that builds it, is a sum
of products of one coefficient of each operand, so by the triangle
inequality it is at most |start|_1 prod_t |f_t|_1, and no more than
B = |start|_1 prod_s |f_s|_1 over the whole run, since a nonzero factor has
|f|_1 >= 1.  A zero operand counts as 1 in B: from it on every product is
zero, so it leaves nothing to pack.  B also bounds every coefficient that
is packed.  W comes from
B as above, and ``unpack_poly`` checks every digit it reads.

Rational numbers for matrix evaluation are ``fractions.Fraction``.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from functools import partial
from math import gcd

Rational = Fraction


class ExactDivisionError(ArithmeticError):
    """A division that the caller asserted to be exact left a remainder."""


def pair_add(a: tuple, b: tuple) -> tuple:
    """The product of two monomials in two commuting variables, as exponent pairs."""
    return (a[0] + b[0], a[1] + b[1])


# A product with fewer term pairs than this goes term by term:
# packing costs a few conversions per operand term and per slot, which pays
# from about 64 pairs on.  One timed body of each benchmark workload (seed 1,
# 2-vCPU AMD EPYC host) makes few products that large: coeffs 34, which take
# 0.68 ms packed against 0.51 ms schoolbook (its recursion steps run on
# ``PackedRing`` instead); reduce 259, 7.1 against 8.4 ms; verify and matrix
# none.  In reduction about half the products have a one-term operand, and
# packing every product made the reduce benchmark's timed body a third
# slower (0.0147 -> 0.0195 s).
_SCHOOLBOOK_PAIRS = 64

# Slot widths, in bits, that move through ``array`` as machine words:
# {8: "b", 16: "h", 32: "i", 64: "q"} on common platforms, in increasing order.
_WORD_CODES = {array(code).itemsize * 8: code for code in "bhiq"}


def _slot_bias(width: int, slots: int) -> int:
    """The int with 2^(width-1) in each of ``slots`` base-2^width digits."""
    if width % 8 == 0:
        return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * slots, "little")
    return int(("1" + "0" * (width - 1)) * slots, 2)


def pack_poly(poly: dict, width: int, offset: int = 0, stride: int = 1) -> int:
    """The sum of c X^((e + offset) / stride) over the terms {e: c} of poly,
    at X = 2^width.  Every c must be nonzero, every e + offset a multiple of
    stride, and every |c| below 2^(width-1); a breach raises AssertionError.

    When width is a multiple of 8 the coefficients go into two's-complement
    slots, through one ``array`` at a word width and as ``int.to_bytes`` per
    slot above; otherwise their magnitudes go into two binary strings, one
    for the positive and one for the negative terms.  Either way the work is
    linear in the number of slots.
    """
    if not poly:
        return 0
    first = (min(poly) + offset) // stride
    if first < 0:
        raise AssertionError(f"negative X exponent {first} in a packed coefficient")
    # slots from the first nonzero one; the empty ones below it are a shift
    slots = (max(poly) + offset) // stride + 1 - first
    if width % 8:
        if stride > 1 and any((e + offset) % stride for e in poly):
            raise AssertionError(f"an exponent off the stride-{stride} lattice in a packed coefficient")
        fmt = f"0{width}b"
        top = first + slots - 1
        pos, neg = ["0" * width] * slots, ["0" * width] * slots
        for e, c in poly.items():
            (pos if c > 0 else neg)[top - (e + offset) // stride] = format(abs(c), fmt)
        pos, neg = "".join(pos), "".join(neg)
        if len(pos) + len(neg) != 2 * slots * width:
            raise AssertionError(f"a packed coefficient needs more than {width} bits")
        return int(pos, 2) - int(neg, 2) << (width * first)
    start = first * stride - offset
    coeffs = [poly.get(e, 0) for e in range(start, start + slots * stride, stride)]
    # a term off the lattice has no slot: it is missing from coeffs
    if stride > 1 and len(coeffs) - coeffs.count(0) != len(poly):
        raise AssertionError(f"an exponent off the stride-{stride} lattice in a packed coefficient")
    code = _WORD_CODES.get(width)
    try:
        if code is not None:
            words = array(code, coeffs)
            if sys.byteorder == "big":
                words.byteswap()
            raw = words.tobytes()
        else:
            size = width // 8
            raw = b"".join([c.to_bytes(size, "little", signed=True) for c in coeffs])
    except OverflowError:
        raise AssertionError(f"a packed coefficient needs more than {width} bits") from None
    # slot i of the bytes holds c_i mod 2^width; xor with the bias gives
    # c_i + 2^(width-1), with no borrow between slots
    bias = _slot_bias(width, slots)
    return (int.from_bytes(raw, "little") ^ bias) - bias << (width * first)


def unpack_poly(value: int, width: int, base: int = 0, stride: int = 1) -> dict:
    """The balanced base-2^width digits of value, {base + stride * position:
    digit != 0}; each digit must lie below 2^(width-2) in absolute value."""
    if value:
        # the empty slots below the first nonzero digit are a shift
        low = ((value & -value).bit_length() - 1) // width
        value >>= width * low
        base += stride * low
    # valid digits need exactly this many slots (the top one is nonzero)
    slots = value.bit_length() // width + 1
    bias = _slot_bias(width, slots)
    biased = value + bias
    limit = 1 << (width - 2)
    if biased < 0 or biased >> (slots * width):
        raise AssertionError(f"a packed digit reaches 2^{width - 2}")
    code = _WORD_CODES.get(width)
    if code is not None:
        # slot i of (value + bias) ^ bias holds digit i in two's complement
        words = array(code, (biased ^ bias).to_bytes(slots * width // 8, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        digits = words.tolist()
    elif width % 8 == 0:
        size = width // 8
        raw = biased.to_bytes(slots * size, "little")
        half = 1 << (width - 1)
        digits = [int.from_bytes(raw[i:i + size], "little") - half
                  for i in range(0, slots * size, size)]
    else:
        text = format(biased, f"0{slots * width}b")
        half = 1 << (width - 1)
        digits = [int(text[i - width:i], 2) - half
                  for i in range(slots * width, 0, -width)]
    if max(digits) >= limit or min(digits) <= -limit:
        raise AssertionError(f"a packed digit reaches 2^{width - 2}")
    out = dict(zip(range(base, base + slots * stride, stride), digits))
    if 0 in digits:
        out = {e: d for e, d in out.items() if d}
    return out


def _schoolbook(a: dict, b: dict) -> dict:
    """The product of two {exponent: int} sums, term pair by term pair."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _span(t: dict) -> tuple:
    """What packing needs to know of an {exponent: int} operand: its least
    and greatest exponent, the gcd of its exponent gaps, its 1-norm and its
    sup norm."""
    lo = min(t)
    vals = t.values()
    return lo, max(t), gcd(*map((-lo).__add__, t)), sum(map(abs, vals)), max(map(abs, vals))


def _width(bound: int) -> int:
    """The slot width for coefficients of at most ``bound`` (module docstring)."""
    width = bound.bit_length() + 2
    for w in _WORD_CODES:
        if w >= width:
            return w
    return -(-width // 8) * 8


def _packed_product(a: dict, b: dict) -> dict:
    """The product of two {exponent: int} operands of two or more terms, as
    one int product of their packings (module docstring); a product that
    spans at least as many slots as it has term pairs goes term by term."""
    lo_a, hi_a, gap_a, one_a, sup_a = _span(a)
    lo_b, hi_b, gap_b, one_b, sup_b = _span(b) if b is not a else (lo_a, hi_a, gap_a, one_a, sup_a)
    stride = gcd(gap_a, gap_b) or 1
    if (hi_a + hi_b - lo_a - lo_b) // stride >= len(a) * len(b):
        return _schoolbook(a, b)
    width = _width(min(sup_a * one_b, one_a * sup_b))
    packed = pack_poly(a, width, -lo_a, stride)
    if b is not a:
        packed *= pack_poly(b, width, -lo_b, stride)
    else:
        packed *= packed
    return unpack_poly(packed, width, lo_a + lo_b, stride)


class WidthTooNarrow(ArithmeticError):
    """A ``PackedRing`` was asked to pack or unpack a value whose bound it
    does not prove; ``width`` proves it."""

    def __init__(self, width: int):
        super().__init__(f"a packed value needs a width of {width} bits")
        self.width = width


class PackedRing:
    """Laurent polynomials with every exponent a multiple of ``stride``, each
    held as a ``Packed`` int at X = 2^``width`` (module docstring)."""

    __slots__ = ("width", "stride", "zero")

    def __init__(self, width: int, stride: int):
        self.width = width
        self.stride = stride
        self.zero = Packed(0, 0, 0, 0, self)

    def check(self, bound: int) -> None:
        """Raise ``WidthTooNarrow`` unless coefficients of at most ``bound``
        fit below 2^(width-2)."""
        if bound >> (self.width - 2):
            raise WidthTooNarrow(_width(bound))

    def pack(self, poly: LaurentPoly) -> "Packed":
        """poly, with its exact norms."""
        t = poly.terms
        if not t:
            return self.zero
        # from the lattice point at or below the least exponent: pack_poly
        # raises for any exponent off the lattice
        low = min(t)
        low -= low % self.stride
        vals = t.values()
        sup = max(map(abs, vals))
        self.check(sup)
        return Packed(pack_poly(t, self.width, -low, self.stride), low, sum(map(abs, vals)), sup, self)

    def unpack(self, x: "Packed") -> LaurentPoly:
        """x as a LaurentPoly; its bound must fit (``check``)."""
        if x.ring is not self:
            raise AssertionError("a value of another packed ring")
        self.check(x.sup)
        return LaurentPoly._wrap(unpack_poly(x.value, self.width, x.low, self.stride))


class Packed:
    """A Laurent polynomial f = q^low g(q^stride) of a ``PackedRing``, held as
    the int g(2^width), with bounds ``one`` >= |f|_1 and ``sup`` >= |f|_inf.
    Sums align by shifts and products are int products, exact at any width;
    the bounds follow the triangle inequality (module docstring)."""

    __slots__ = ("value", "low", "one", "sup", "ring")

    def __init__(self, value: int, low: int, one: int, sup: int, ring: PackedRing):
        self.value = value
        self.low = low
        self.one = one
        self.sup = sup
        self.ring = ring

    def __add__(self, other: "Packed") -> "Packed":
        ring = self.ring
        if other.ring is not ring:
            raise AssertionError("a sum across packed rings")
        if not other.one:
            return self
        if not self.one:
            return other
        a, b = (self, other) if self.low <= other.low else (other, self)
        value = b.value
        if b.low != a.low:
            value <<= ring.width * ((b.low - a.low) // ring.stride)
        return Packed(a.value + value, a.low, a.one + b.one, a.sup + b.sup, ring)

    def __neg__(self) -> "Packed":
        return Packed(-self.value, self.low, self.one, self.sup, self.ring)

    def __sub__(self, other: "Packed") -> "Packed":
        return self + -other

    def __mul__(self, other) -> "Packed":
        ring = self.ring
        if isinstance(other, int):
            k = abs(other)
            if k == 1:
                return self if other == 1 else -self
            return Packed(self.value * other, self.low, self.one * k, self.sup * k, ring) if k else ring.zero
        if other.ring is not ring:
            raise AssertionError("a product across packed rings")
        if not (self.one and other.one):
            return ring.zero
        return Packed(self.value * other.value, self.low + other.low, self.one * other.one,
                      min(self.sup * other.one, self.one * other.sup), ring)

    __rmul__ = __mul__


def _times(poly: dict, factor: dict) -> dict:
    """poly times factor, both {key tuple: scalar} in commuting variables whose
    exponent tuples are the keys, with no sum tested for zero.  Any scalars
    with + and * do: ints, Fractions, LaurentPolys or RingElements."""
    out = {}
    for key, a in poly.items():
        for step, c in factor.items():
            key2 = tuple(map(operator.add, key, step))
            out[key2] = out[key2] + a * c if key2 in out else a * c
    return out


def _exponents(coeff) -> dict:
    """A LaurentPoly or int coefficient as {exponent: int}."""
    return coeff.terms if isinstance(coeff, LaurentPoly) else {0: coeff} if coeff else {}


def _unpacked(values: dict, width: int, base: int, stride: int) -> dict:
    """A running product's packed {key: int} as {key: LaurentPoly}."""
    return {key: LaurentPoly._wrap(unpack_poly(v, width, base, stride)) for key, v in values.items()}


def running_product(start: dict, factors: list):
    """Yield, after each factor f_s of ``factors``, a function that returns
    the product start f_1 ... f_s as {key tuple: LaurentPoly} with no zero
    coefficient.  start and every factor are {key tuple: LaurentPoly or int}
    in commuting variables whose exponent tuples are the keys (``_times``).

    The run holds each key's coefficient as one packed int at one width and
    one stride from the first factor to the last (module docstring), and
    unpacks only what a yielded function is called for.  A factor's
    coefficient of one term, or with at least twice as many slots as terms,
    is applied as shifted adds; any other is one int product with its
    packing.  Each packed int holds a slot for every exponent of its span,
    so a run pays for its span, not its terms.
    """
    operands = [{key: t for key, c in poly.items() if (t := _exponents(c))}
                for poly in (start, *factors)]
    lows = []
    stride = 0
    bound = 1
    for poly in operands:
        exps = [e for t in poly.values() for e in t]
        low = min(exps, default=0)
        lows.append(low)
        stride = gcd(stride, *(e - low for e in exps))
        bound *= sum(abs(c) for t in poly.values() for c in t.values()) or 1
    stride = stride or 1
    width = _width(bound)
    base = lows[0]
    values = {key: pack_poly(t, width, -base, stride) for key, t in operands[0].items()}
    for factor, low in zip(operands[1:], lows[1:]):
        # each term of the factor as (key step, [(multiplier, shift in bits)],
        # its packing or 0)
        steps = []
        for step, t in factor.items():
            if len(t) == 1 or 2 * len(t) <= (max(t) - min(t)) // stride + 1:
                steps.append((step, [(c, width * ((e - low) // stride)) for e, c in t.items()], 0))
            else:
                steps.append((step, (), pack_poly(t, width, -low, stride)))
        out = {}
        for key, v in values.items():
            # the product skips v's empty low slots
            zeros = (v & -v).bit_length() - 1
            head = v >> zeros
            for step, shifts, packed in steps:
                key2 = tuple(map(operator.add, key, step))
                acc = out.get(key2, 0)
                for c, bits in shifts:
                    acc += v * c << bits
                if packed:
                    acc += head * packed << zeros
                out[key2] = acc
        values = {key: v for key, v in out.items() if v}
        base += low
        yield partial(_unpacked, values, width, base, stride)


def signed_join(pieces, sep: str = "") -> str:
    """The text of a sum from its (negative, body) pieces in print order:
    'a-b+c', or 'a - b + c' with sep=' '; '0' for no pieces."""
    out = []
    for negative, body in pieces:
        if out:
            out.append(f"{sep}{'-' if negative else '+'}{sep}")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


class SparseSum:
    """A finite sum {key: coefficient} in canonical form: no zero coefficient
    is stored.

    A subclass declares ``_unit`` (the key of the unit), ``_key_mul`` (the
    product of two keys), ``_scalars`` (the types it accepts as scalars) and
    ``_lift`` (a scalar as a coefficient), and prints through ``to_string``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _wrap(cls, terms: dict):
        """An element over a dict that is already canonical.  Sums and
        products build theirs inline, where one more call per result is a
        measurable share of a reduction's time."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def _coerce(cls, x):
        """x itself, a scalar placed at the unit key, or None for a foreign value."""
        if isinstance(x, cls):
            return x
        if isinstance(x, cls._scalars):
            c = cls._lift(x)
            return cls._wrap({cls._unit: c} if c else {})
        return None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def one(cls):
        return cls._coerce(1)

    # -- ring structure ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, self.__class__) and (other := self._coerce(other)) is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # zero, or a sum held at the unit key, equals a scalar: hash like it
        if self.terms.keys() <= {self._unit}:
            return hash(self.terms.get(self._unit, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, self.__class__) and (other := self._coerce(other)) is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                del out[k]
        res = self.__class__.__new__(self.__class__)
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, self.__class__) and (other := self._coerce(other)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # keys multiply, coefficients multiply, equal keys collect
        if not isinstance(other, self.__class__) and (other := self._coerce(other)) is None:
            return NotImplemented
        key_mul = self._key_mul
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key_mul(k1, k2)
                p = c1 * c2
                s = out.get(k)
                s = p if s is None else s + p
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        res = self.__class__.__new__(self.__class__)
        res.terms = out
        return res

    def __rmul__(self, other):
        # scalars commute with everything, so a scalar on the left is the
        # same product with the scalar at the unit key
        other = self._coerce(other)
        return NotImplemented if other is None else other * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result, base = self.one(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- text form -----------------------------------------------------

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()!r})"


class LaurentPoly(SparseSum):
    """Sparse Laurent polynomial in q over the integers."""

    __slots__ = ()
    _unit = 0
    _key_mul = operator.add
    _scalars = (int,)
    _lift = int

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "LaurentPoly":
        return LaurentPoly({0: n})

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: coeff})

    def __mul__(self, other):
        # the hot path of the whole package: an int or a one-term operand
        # scales term by term, a product of fewer than _SCHOOLBOOK_PAIRS term
        # pairs runs the schoolbook loop, and the rest is one packed product
        # (module docstring)
        if isinstance(other, LaurentPoly):
            a, b = self.terms, other.terms
            if len(a) == 1 or len(b) == 1:
                ((e0, c0),), b = (a.items(), b) if len(a) == 1 else (b.items(), a)
                out = {e0 + e: c0 * c for e, c in b.items()}
            elif len(a) * len(b) >= _SCHOOLBOOK_PAIRS:
                out = _packed_product(a, b)
            else:
                out = _schoolbook(a, b)
        elif isinstance(other, int):
            out = {e: c * other for e, c in self.terms.items()} if other else {}
        else:
            return NotImplemented
        res = self.__class__.__new__(self.__class__)
        res.terms = out
        return res

    __rmul__ = __mul__

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
        """Exact substitution q = q_val (q_val nonzero).

        With q = u/v the value is S u^lo / v^hi, where lo and hi are the least
        and greatest exponents and S = sum c_e u^(e-lo) v^(hi-e) is an integer,
        summed by Horner's rule over the exponent gaps: one Fraction at the
        end instead of one Fraction power per term.
        """
        q_val = Fraction(q_val)
        if q_val == 0:
            raise ValueError("q must be nonzero")
        if not self.terms:
            return Fraction(0)
        u, v = q_val.numerator, q_val.denominator
        exps = sorted(self.terms, reverse=True)
        hi = prev = exps[0]
        s = self.terms[hi]
        v_pow = 1
        for e in exps[1:]:
            gap = prev - e
            v_pow *= v ** gap
            s = s * u ** gap + self.terms[e] * v_pow
            prev = e
        return s * Fraction(u) ** prev / Fraction(v) ** hi

    # -- canonical text form -------------------------------------------------

    def to_string(self) -> str:
        """Canonical form: strictly decreasing exponents, q^0 elided, q^1 as q.

        This string is the bit-exact export format used by the CSV and LaTeX
        emitters; ``freealg.parse_expression`` reads it back, as the test
        fixtures do.
        """
        pieces = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}*{qp}"
            pieces.append((c < 0, body))
        return signed_join(pieces)


_L_ZERO = LaurentPoly.zero()
_L_ONE = LaurentPoly.one()


class RingElement(SparseSum):
    """Polynomial in rho0, rho1 with LaurentPoly coefficients.

    rho1 is carried even though family-one computations never produce it:
    the dagger substitution rho0 <-> rho1 is then a total map.
    """

    __slots__ = ()
    _unit = (0, 0)
    _key_mul = staticmethod(pair_add)
    _scalars = (LaurentPoly, int)
    _lift = LaurentPoly._coerce

    # -- constructors -------------------------------------------------

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
        """(negative, body) for one rho-monomial; parenthesizes composite Laurent parts."""
        e0, e1 = key
        p = self.terms[key]
        rho = []
        if e0:
            rho.append("rho0" if e0 == 1 else f"rho0^{e0}")
        if e1:
            rho.append("rho1" if e1 == 1 else f"rho1^{e1}")
        if len(p.terms) == 1:
            ((e, c),) = p.terms.items()
            mag = abs(c)
            factors = []
            if mag != 1 or (e == 0 and not rho):
                factors.append(str(mag))
            if e:
                factors.append("q" if e == 1 else f"q^{e}")
            factors.extend(rho)
            return c < 0, "*".join(factors)
        body = f"({p.to_string()})"
        if rho:
            body += "*" + "*".join(rho)
        return False, body

    def to_string(self) -> str:
        return signed_join(map(self._piece, sorted(self.terms, reverse=True)), " ")


RHO0 = RingElement.rho0()
RHO1 = RingElement.rho1()
