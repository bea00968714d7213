"""Free unital associative algebra on the two generators A, A*.

Words are plain strings over the internal alphabet 'a' (for A) and 's'
(for A*); the empty string is the unit monomial and concatenation is the
monomial product, so associativity is free.  An ``NcPoly`` is a sparse
dict {word: RingElement} in canonical form (no zero coefficients).

Canonical term order for printing and for "leftmost word" in the rewriting
engine: graded lexicographic with A < A* ('a' < 's' in ASCII, so the plain
(length, string) key does it).
"""

from __future__ import annotations

from .exactring import LaurentPoly, RingElement

Word = str

GEN_A = "a"
GEN_ASTAR = "s"

_DAGGER_SWAP = str.maketrans("as", "sa")

_MAX_EXPONENT = 10 ** 6
_MAX_WORD_LETTERS = 128  # per term, over all factors: NF(A^n A*) costs about n^3 memory


def word_key(w: Word):
    return (len(w), w)


class NcPoly:
    """Finite RingElement-linear combination of words in A, A*."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()} if terms else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "NcPoly":
        return NcPoly()

    @staticmethod
    def one() -> "NcPoly":
        return NcPoly({"": RingElement.one()})

    @staticmethod
    def from_word(w: Word, coeff=None) -> "NcPoly":
        c = RingElement.one() if coeff is None else _scalar(coeff)
        return NcPoly({w: c})

    # -- scalar and ring structure --------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return NcPoly({w: -c for w, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        res = NcPoly.__new__(NcPoly)
        res.terms = out
        return res

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (RingElement, LaurentPoly, int)):
            return self.scale(_scalar(other))
        if not isinstance(other, NcPoly):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                p = c1 * c2
                s = out.get(w)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        res = NcPoly.__new__(NcPoly)
        res.terms = out
        return res

    def __rmul__(self, other):
        # scalars commute with everything, so left and right scaling agree
        if isinstance(other, (RingElement, LaurentPoly, int)):
            return self.scale(_scalar(other))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power in the free algebra")
        result = NcPoly.one()
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c: RingElement) -> "NcPoly":
        if c.is_zero():
            return NcPoly()
        return NcPoly({w: v * c for w, v in self.terms.items()})

    # -- structure -------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order (graded lex, A < A*)."""
        return [(w, self.terms[w]) for w in sorted(self.terms, key=word_key)]

    def term_count(self) -> int:
        return len(self.terms)

    def map_coefficients(self, f) -> "NcPoly":
        return NcPoly({w: out for w, c in self.terms.items()
                       if not (out := f(c)).is_zero()})

    def specialize_rho_zero(self) -> "NcPoly":
        """Set rho0 = rho1 = 0 in every coefficient."""
        return self.map_coefficients(
            lambda c: RingElement.from_laurent(c.specialize_rho_zero()))

    def dagger(self) -> "NcPoly":
        """The algebra automorphism A <-> A*, rho0 <-> rho1 (an involution)."""
        return NcPoly({w.translate(_DAGGER_SWAP): c.dagger()
                       for w, c in self.terms.items()})

    # -- text form -----------------------------------------------------------

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for w, c in self.sorted_terms():
            sign, body = _term_string(w, c)
            if not pieces:
                pieces.append(body if sign > 0 else "-" + body)
            else:
                pieces.append((" + " if sign > 0 else " - ") + body)
        return "".join(pieces)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"NcPoly({self.to_string()!r})"


def _scalar(c) -> RingElement:
    if isinstance(c, RingElement):
        return c
    if isinstance(c, LaurentPoly):
        return RingElement.from_laurent(c)
    if isinstance(c, int):
        return RingElement.from_int(c)
    raise TypeError(f"cannot use {type(c).__name__} as a scalar")


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
    if c == RingElement.one():
        return 1, ws
    if c == -RingElement.one():
        return -1, ws
    if len(c.terms) == 1:
        sign, body = c._piece(next(iter(c.terms)))
        return sign, f"{body} {ws}" if w else body
    return 1, f"({c.to_string()}) {ws}" if w else f"({c.to_string()})"


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

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        n = int(self.text[start:self.pos])
        if n > _MAX_EXPONENT:
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


def _parse_atom(sc: _Scanner) -> RingElement:
    from .qnumbers import qint  # deferred: qnumbers imports exactring only

    ch = sc.peek()
    if ch.isdigit():
        return RingElement.from_int(sc.read_uint())
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
        return RingElement.from_laurent(qint(n)) ** _parse_exponent(sc)
    if ch == "(":
        sc.take("(")
        value = _parse_scalar_sum(sc)
        sc.expect(")")
        return value ** _parse_exponent(sc)
    raise ParseError("expected a scalar atom", sc.pos)


def _parse_scalar_product(sc: _Scanner) -> RingElement:
    value = _parse_atom(sc)
    while sc.peek() == "*":
        mark = sc.pos
        sc.take("*")
        if not _starts_coeff(sc):
            sc.pos = mark  # the '*' was the optional coeff/word separator
            break
        value = value * _parse_atom(sc)
    return value


def _parse_scalar_sum(sc: _Scanner) -> RingElement:
    sign = -1 if sc.take("-") else 1
    value = sign * _parse_scalar_product(sc)
    while True:
        if sc.take("+"):
            value = value + _parse_scalar_product(sc)
        elif sc.peek() == "-":
            sc.take("-")
            value = value - _parse_scalar_product(sc)
        else:
            return value


def _starts_coeff(sc: _Scanner) -> bool:
    ch = sc.peek()
    return (ch.isdigit() or ch in "q([" or sc.startswith("rho0")
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
    coeff = RingElement.one()
    had_coeff = False
    if _starts_coeff(sc):
        coeff = _parse_scalar_product(sc)
        had_coeff = True
        sc.take("*")
    word = _parse_factors(sc)
    if not word and not had_coeff:
        raise ParseError("expected a term", sc.pos)
    return NcPoly({word: coeff})


def parse_expression(text: str) -> NcPoly:
    """Parse an expression in the grammar above into an NcPoly."""
    sc = _Scanner(text)
    sign = -1 if sc.take("-") else 1
    result = _parse_term(sc) * sign
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
