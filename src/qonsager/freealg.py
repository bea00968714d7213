"""Free unital associative algebra on the two generators A, A*.

Words are plain strings over the internal alphabet 'a' (for A) and 's'
(for A*); the empty string is the unit monomial and concatenation is the
monomial product, so associativity is free.  An ``NcPoly`` is the finite sum
{word: RingElement} of the ``exactring`` core, in canonical form (no zero
coefficients).

Canonical term order for printing and for "leftmost word" in the rewriting
engine: graded lexicographic with A < A* ('a' < 's' in ASCII, so the plain
(length, string) key does it).
"""

from __future__ import annotations

import operator

from .exactring import LaurentPoly, RingElement, SparseSum, signed_join

Word = str

GEN_A = "a"
GEN_ASTAR = "s"

_DAGGER_SWAP = str.maketrans("as", "sa")

_MAX_EXPONENT = 10 ** 6
_MAX_WORD_LETTERS = 128  # per term, over all factors: NF(A^n A*) costs about n^3 memory
# A scalar product or power in the input may have at most this many terms, as
# bounded by the box of its q, rho0 and rho1 exponents (each span + 1,
# multiplied); spans add under products, and (1+q)^4000 alone took 14 s on a
# 2-vCPU AMD EPYC host.
_MAX_SCALAR_TERMS = 1000
# Parsed integer coefficients stay at most 2^4096 (literals: 1233 digits); the
# reduction adds 119 bits to NF(A^127 A*) and 177 to NF((A^40 A*)^3), far below
# the about 14 000 bits of Python's 4300-digit limit on printing an int.
_MAX_COEFF_BITS = 4096
_MAX_LITERAL_DIGITS = len(str(2 ** _MAX_COEFF_BITS)) - 1


def word_key(w: Word):
    return (len(w), w)


class NcPoly(SparseSum):
    """Finite RingElement-linear combination of words in A, A*."""

    __slots__ = ()
    _unit = ""
    _key_mul = operator.add
    _scalars = (RingElement, LaurentPoly, int)
    _lift = RingElement._coerce

    @staticmethod
    def from_word(w: Word, coeff=None) -> "NcPoly":
        term = NcPoly({w: RingElement.one()})
        return term if coeff is None else term * coeff

    # -- structure -------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order (graded lex, A < A*)."""
        return [(w, self.terms[w]) for w in sorted(self.terms, key=word_key)]

    def term_count(self) -> int:
        return len(self.terms)

    def specialize_rho_zero(self) -> "NcPoly":
        """Set rho0 = rho1 = 0 in every coefficient."""
        return NcPoly({w: RingElement.from_laurent(c.specialize_rho_zero())
                       for w, c in self.terms.items()})

    def dagger(self) -> "NcPoly":
        """The algebra automorphism A <-> A*, rho0 <-> rho1 (an involution)."""
        return NcPoly({w.translate(_DAGGER_SWAP): c.dagger()
                       for w, c in self.terms.items()})

    def to_string(self) -> str:
        return signed_join((_term_string(w, c) for w, c in self.sorted_terms()), " ")


A = NcPoly.from_word(GEN_A)
ASTAR = NcPoly.from_word(GEN_ASTAR)


def word_string(w: Word) -> str:
    """Render a word as run-length factors, e.g. 'aaassa' -> 'A^3 A*^2 A'."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        ch = w[i]
        j = i
        while j < len(w) and w[j] == ch:
            j += 1
        name = "A" if ch == GEN_A else "A*"
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return " ".join(parts)


def _term_string(w: Word, c: RingElement):
    ws = word_string(w)
    if c == 1:
        return False, ws
    if c == -1:
        return True, ws
    if len(c.terms) == 1:
        negative, body = c._piece(next(iter(c.terms)))
        return negative, f"{body} {ws}" if w else body
    return False, f"({c.to_string()}) {ws}" if w else f"({c.to_string()})"


# ---------------------------------------------------------------------------
# Expression parser (CLI input and test fixtures)
#
# expr   := term (('+'|'-') term)*
# term   := [coeff '*'?] factor*          (at least a coeff or a factor)
# factor := ('A' | 'A*') ['^' uint]
# coeff  := atom ('*' atom)*
# atom   := uint | 'q' ['^' sint] | 'rho0' ['^' uint] | 'rho1' ['^' uint]
#         | '[' uint ']_q' ['^' uint] | '(' expr-of-atoms ')' ['^' uint]
#
# A '*' immediately after 'A' is the star of the generator; multiplication
# between scalar atoms is written '*', factors are separated by whitespace.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def peek_raw(self):
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def startswith(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> bool:
        if self.startswith(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.take(s):
            raise ParseError(f"expected {s!r}", self.pos)

    def read_uint(self, limit=_MAX_EXPONENT) -> int:
        """An unsigned integer of at most ``limit``, or of at most
        _MAX_LITERAL_DIGITS digits for a coefficient (limit None)."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if limit is None and self.pos - start > _MAX_LITERAL_DIGITS:
            raise ParseError(f"integer longer than {_MAX_LITERAL_DIGITS} digits", start)
        n = int(self.text[start:self.pos])
        if limit is not None and n > limit:
            raise ParseError("exponent overflow", start)
        return n

    def read_sint(self) -> int:
        self.skip_ws()
        sign = -1 if self.take("-") else 1
        return sign * self.read_uint()


def _parse_exponent(sc: _Scanner, default: int = 1) -> int:
    if sc.take("^"):
        return sc.read_uint()
    return default


def _size(x: RingElement):
    """(q, rho0, rho1, bits): the exponent spans (largest minus smallest) and
    ceil(log2) of the sum of |coefficient|; each is at most additive under products."""
    if not x:
        return (0, 0, 0, 0)
    qs = [e for p in x.terms.values() for e in p.terms]
    e0s, e1s = zip(*x.terms)
    norm = sum(abs(c) for p in x.terms.values() for c in p.terms.values())
    return (*(max(v) - min(v) for v in (qs, e0s, e1s)), (norm - 1).bit_length())


def _check_size(size, pos: int):
    """Reject a scalar, before it is computed, whose size leaves room for more
    than _MAX_SCALAR_TERMS terms or a coefficient above 2^_MAX_COEFF_BITS."""
    q, e0, e1, bits = size
    if (q + 1) * (e0 + 1) * (e1 + 1) > _MAX_SCALAR_TERMS:
        raise ParseError(f"scalar with room for more than {_MAX_SCALAR_TERMS} terms", pos)
    if bits > _MAX_COEFF_BITS:
        raise ParseError(f"scalar with room for a coefficient above 2^{_MAX_COEFF_BITS}", pos)


def _parse_power(sc: _Scanner, value: RingElement) -> RingElement:
    pos = sc.pos
    n = _parse_exponent(sc)
    _check_size([n * s for s in _size(value)], pos)
    return value ** n


def _parse_atom(sc: _Scanner) -> RingElement:
    from .qnumbers import qint  # deferred: qnumbers imports exactring only

    ch = sc.peek()
    if ch.isdigit():
        return RingElement.from_int(sc.read_uint(limit=None))
    if sc.startswith("rho0"):
        sc.take("rho0")
        return RingElement.rho0(_parse_exponent(sc))
    if sc.startswith("rho1"):
        sc.take("rho1")
        return RingElement.rho1(_parse_exponent(sc))
    if ch == "q":
        sc.take("q")
        e = 1
        if sc.take("^"):
            e = sc.read_sint()
        return RingElement.from_laurent(LaurentPoly.q_power(e))
    if ch == "[":
        sc.take("[")
        n = sc.read_uint()
        sc.expect("]_q")
        # [n]_q is dense, so its spans count its terms even at power 1
        return _parse_power(sc, RingElement.from_laurent(qint(n)))
    if ch == "(":
        sc.take("(")
        value = _parse_scalar_sum(sc)
        sc.expect(")")
        # a sum has no more terms than its input, so only its powers are checked
        return _parse_power(sc, value) if sc.startswith("^") else value
    raise ParseError("expected a scalar atom", sc.pos)


def _parse_scalar_product(sc: _Scanner) -> RingElement:
    value = _parse_atom(sc)
    while sc.peek() == "*":
        mark = sc.pos
        sc.take("*")
        if not _starts_coeff(sc):
            sc.pos = mark  # the '*' was the optional coeff/word separator
            break
        factor = _parse_atom(sc)
        _check_size([a + b for a, b in zip(_size(value), _size(factor))], mark)
        value = value * factor
    return value


def _parse_scalar_sum(sc: _Scanner) -> RingElement:
    value = -_parse_scalar_product(sc) if sc.take("-") else _parse_scalar_product(sc)
    while True:
        if sc.take("+"):
            value = value + _parse_scalar_product(sc)
        elif sc.peek() == "-":
            sc.take("-")
            value = value - _parse_scalar_product(sc)
        else:
            return value


def _starts_coeff(sc: _Scanner) -> bool:
    ch = sc.peek()  # "" at the end of the input, which "q([" contains
    return ch != "" and (ch.isdigit() or ch in "q([" or sc.startswith("rho0")
                         or sc.startswith("rho1"))


def _parse_factors(sc: _Scanner) -> Word:
    w = ""
    while sc.peek() == "A":
        start = sc.pos
        sc.take("A")
        # '*' immediately after 'A' (no whitespace) is the star
        letter = GEN_ASTAR if sc.peek_raw() == "*" else GEN_A
        if letter == GEN_ASTAR:
            sc.pos += 1
        w += letter * _parse_exponent(sc)
        if len(w) > _MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {_MAX_WORD_LETTERS} letters", start)
    return w


def _parse_term(sc: _Scanner) -> NcPoly:
    # a coeff or a factor, which may be A^0, the empty word
    coeff = RingElement.one()
    if _starts_coeff(sc):
        coeff = _parse_scalar_product(sc)
        sc.take("*")
    elif sc.peek() != "A":
        raise ParseError("expected a term", sc.pos)
    return NcPoly({_parse_factors(sc): coeff})


def parse_expression(text: str) -> NcPoly:
    """Parse an expression in the grammar above into an NcPoly."""
    sc = _Scanner(text)
    result = -_parse_term(sc) if sc.take("-") else _parse_term(sc)
    while True:
        if sc.take("+"):
            result = result + _parse_term(sc)
        elif sc.take("-"):
            result = result - _parse_term(sc)
        else:
            break
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing input", sc.pos)
    return result
