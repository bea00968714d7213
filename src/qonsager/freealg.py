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
import re

from .exactring import LaurentPoly, RingElement, SparseSum, signed_join
from .qnumbers import qint  # qnumbers imports exactring only

Word = str

GEN_A = "a"
GEN_ASTAR = "s"

_DAGGER_SWAP = str.maketrans("as", "sa")

_MAX_EXPONENT = 10 ** 6
_MAX_WORD_LETTERS = 128  # per term, over all factors: NF(A^n A*) costs about n^3 memory
# A scalar product or power in the input may have at most this many terms, as
# bounded by the box of its q, rho0 and rho1 exponents (each span + 1,
# multiplied); exponent ranges add under products, and (1+q)^4000 alone took
# 14 s on a 2-vCPU AMD EPYC host.
_MAX_SCALAR_TERMS = 1000
# Parsed integer coefficients, literals and computed products alike, stay at
# most 2^4096, so a parsed product prints as text that parses back; the
# reduction adds 119 bits to NF(A^127 A*) and 177 to NF((A^40 A*)^3), far below
# the about 14 000 bits of Python's 4300-digit limit on printing an int.
_MAX_COEFF_BITS = 4096
_MAX_LITERAL_DIGITS = len(str(2 ** _MAX_COEFF_BITS))


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
# sint   := ['-'] uint
# uint   := [0-9]+   (at most 10^6, or at most 2^4096 as an atom)
#
# The text is read as one stream of tokens, each a run of ASCII digits, 'A*'
# with no space inside, 'rho0', 'rho1', ']_q' or any other single
# non-whitespace character, and whitespace between tokens is skipped. So a
# '*' right after 'A' is the star of the generator; multiplication between
# scalar atoms is written '*', factors are separated by whitespace.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([0-9]+|A\*|rho[01]|\]_q|\S)")
_FACTORS = ("A", "A*")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


def _is_uint(tok: str) -> bool:
    return "0" <= tok[:1] <= "9"


def _starts_coeff(tok: str) -> bool:
    return tok in ("q", "(", "[", "rho0", "rho1") or _is_uint(tok)


def _expect(tokens, s: str) -> int:
    """Take the token ``s`` and return the position just after it."""
    tok, pos = tokens[-1]
    if tok != s:
        raise ParseError(f"expected {s!r}", pos)
    tokens.pop()
    return pos + len(s)


def _parse_uint(tokens) -> int:
    """An unsigned integer of at most _MAX_EXPONENT."""
    tok, pos = tokens[-1]
    if not _is_uint(tok):
        raise ParseError("expected an integer", pos)
    tokens.pop()
    digits = tok.lstrip("0") or "0"
    # count the digits first: int() refuses more than 4300 of them
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
        raise ParseError("exponent overflow", pos)
    return int(digits)


def _parse_exponent(tokens, default: int = 1) -> int:
    if tokens[-1][0] == "^":
        tokens.pop()
        return _parse_uint(tokens)
    return default


def _size(x: RingElement):
    """(q, rho0, rho1 exponent ranges as least, greatest; bits): bits is
    ceil(log2) of the sum of |coefficient|.  The ranges add exactly under
    products, the bits at most additively."""
    if not x:
        return (0,) * 7
    qs = [e for p in x.terms.values() for e in p.terms]
    e0s, e1s = zip(*x.terms)
    norm = sum(abs(c) for p in x.terms.values() for c in p.terms.values())
    return (*(f(v) for v in (qs, e0s, e1s) for f in (min, max)), (norm - 1).bit_length())


def _check_size(size, pos: int):
    """Reject a scalar, before it is computed, whose size leaves room for more
    than _MAX_SCALAR_TERMS terms or a coefficient above 2^_MAX_COEFF_BITS, or
    that has an exponent beyond _MAX_EXPONENT."""
    q0, q1, a0, a1, b0, b1, bits = size
    if (q1 - q0 + 1) * (a1 - a0 + 1) * (b1 - b0 + 1) > _MAX_SCALAR_TERMS:
        raise ParseError(f"scalar with room for more than {_MAX_SCALAR_TERMS} terms", pos)
    if bits > _MAX_COEFF_BITS:
        raise ParseError(f"scalar with room for a coefficient above 2^{_MAX_COEFF_BITS}", pos)
    if max(-q0, q1, a1, b1) > _MAX_EXPONENT:
        raise ParseError("exponent overflow", pos)


def _parse_power(tokens, size, pos: int) -> int:
    """The exponent n of a power, once the size of the power is checked."""
    n = _parse_exponent(tokens)
    _check_size([n * x for x in size], pos)
    return n


def _parse_atom(tokens) -> RingElement:
    tok, pos = tokens[-1]
    if _is_uint(tok):
        tokens.pop()
        # count the digits first: int() refuses more than 4300 of them
        if len(tok) > _MAX_LITERAL_DIGITS:
            raise ParseError(f"integer longer than {_MAX_LITERAL_DIGITS} digits", pos)
        value = RingElement.from_int(int(tok))
        _check_size(_size(value), pos)
        return value
    if tok in ("rho0", "rho1"):
        tokens.pop()
        power = RingElement.rho0 if tok == "rho0" else RingElement.rho1
        return power(_parse_exponent(tokens))
    if tok == "q":
        tokens.pop()
        e = 1
        if tokens[-1][0] == "^":
            tokens.pop()
            sign = 1
            if tokens[-1][0] == "-":
                tokens.pop()
                sign = -1
            e = sign * _parse_uint(tokens)
        return RingElement.from_laurent(LaurentPoly.q_power(e))
    if tok == "[":
        tokens.pop()
        n = _parse_uint(tokens)
        end = _expect(tokens, "]_q")
        # [n]_q is dense, so its size counts its terms even at power 1; it is
        # q^-m + ... + q^m with m = n - 1 and coefficient sum n, known from n
        m = max(n - 1, 0)
        k = _parse_power(tokens, (-m, m, 0, 0, 0, 0, m.bit_length()), end)
        return RingElement.from_laurent(qint(n) ** k)
    if tok == "(":
        tokens.pop()
        value = _parse_sum(tokens, _parse_scalar_product)
        _expect(tokens, ")")
        # a sum has no more terms than its input, so only its powers are checked
        tok, pos = tokens[-1]
        return value ** _parse_power(tokens, _size(value), pos) if tok == "^" else value
    raise ParseError("expected a scalar atom", pos)


def _parse_scalar_product(tokens) -> RingElement:
    value = _parse_atom(tokens)
    # a '*' before a token that cannot start an atom is the optional
    # coeff/word separator, left for _parse_term
    while tokens[-1][0] == "*" and _starts_coeff(tokens[-2][0]):
        pos = tokens.pop()[1]
        factor = _parse_atom(tokens)
        _check_size([a + b for a, b in zip(_size(value), _size(factor))], pos)
        value = value * factor
    return value


def _parse_term(tokens) -> NcPoly:
    # a coeff or a factor, which may be A^0, the empty word
    coeff = RingElement.one()
    tok, pos = tokens[-1]
    if _starts_coeff(tok):
        coeff = _parse_scalar_product(tokens)
        if tokens[-1][0] == "*":
            tokens.pop()
    elif tok not in _FACTORS:
        raise ParseError("expected a term", pos)
    w = ""
    while tokens[-1][0] in _FACTORS:
        tok, pos = tokens.pop()
        w += (GEN_A if tok == "A" else GEN_ASTAR) * _parse_exponent(tokens)
        if len(w) > _MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {_MAX_WORD_LETTERS} letters", pos)
    return NcPoly({w: coeff})


def _parse_sum(tokens, part):
    """part (('+'|'-') part)*, after an optional '-'."""
    if tokens[-1][0] == "-":
        tokens.pop()
        value = -part(tokens)
    else:
        value = part(tokens)
    while tokens[-1][0] in ("+", "-"):
        if tokens.pop()[0] == "+":
            value = value + part(tokens)
        else:
            value = value - part(tokens)
    return value


def parse_expression(text: str) -> NcPoly:
    """Parse an expression in the grammar above into an NcPoly."""
    # (token, position) pairs, last token first, above an end marker
    tokens = [("", len(text))]
    tokens += reversed([(m[1], m.start(1)) for m in _TOKEN.finditer(text)])
    result = _parse_sum(tokens, _parse_term)
    tok, pos = tokens[-1]
    if tok:
        raise ParseError("trailing input", pos)
    return result
