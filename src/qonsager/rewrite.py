"""Terminating reduction modulo the first defining relation.

The single installed rule solves the defining relation for A^3 A*:

    A^3 A*  ->  [3]_q A^2 A* A  -  [3]_q A A* A^2  +  A* A^3  +  rho0 (A A* - A* A)

``reduce_once`` applies it once, at the leftmost occurrence inside the
leftmost reducible word (canonical term order); ``trace_reduction`` records
the same steps up to the fixed point.  ``normal_form`` computes that fixed
point by wholesale substitution: every maximal block A^n A* (n >= 3) is
replaced in one shot by the memoized normal form of A^n A*.

The memo uses the rule alone, one step per n:

    NF(A^n A*) = NF(A · NF(A^(n-1) A*))

Every word of NF(A^(n-1) A*) is A^i A* A^m with i <= 2, so after the extra A
only the words starting with A^3 A* need the rule, once, at position 0, and
what it emits is already normal.  The eta recursion tables give the same
expansions in closed form (``power_astar_expansion``), kept as an
independent construction and tested equal.

Only the A-side relation is installed.  The A*-side family is reached
through the dagger automorphism, never by a second rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactring import LaurentPoly, RingElement
from .freealg import GEN_A, GEN_ASTAR, NcPoly, word_key, word_string
from .qnumbers import qint

_REDEX = GEN_A * 3 + GEN_ASTAR  # 'aaas'


def measure(w: str) -> tuple[int, int]:
    """Termination measure: (length, number of (A, A*) inversions).

    Every basic rewrite strictly decreases it lexicographically.
    """
    inv = 0
    a_count = 0
    for ch in w:
        if ch == GEN_A:
            a_count += 1
        else:
            inv += a_count
    return (len(w), inv)


_THREE = RingElement.from_laurent(qint(3))
_RHO0 = RingElement.rho0()

# RHS of the rule as (word, coefficient) pairs
_RULE = (
    ("aasa", _THREE),
    ("asaa", -_THREE),
    ("saaa", RingElement.one()),
    ("as", _RHO0),
    ("sa", -_RHO0),
)


def is_normal_word(w: str) -> bool:
    return _REDEX not in w


def is_normal(x: NcPoly) -> bool:
    return all(_REDEX not in w for w in x.terms)


def _apply_rule_at(w: str, pos: int):
    """Replace w[pos:pos+4] == 'aaas' by the rule terms; checks the measure drop."""
    pre, post = w[:pos], w[pos + 4:]
    out = []
    m = measure(w)
    for body, coeff in _RULE:
        nw = pre + body + post
        if not measure(nw) < m:
            raise AssertionError(f"rule body {body!r} does not lower the measure of {w!r}")
        out.append((nw, coeff))
    return out


def _add(terms: dict, w: str, c):
    """terms[w] += c, dropping the entry when the sum is zero."""
    s = terms.get(w)
    s = c if s is None else s + c
    if s.is_zero():
        terms.pop(w, None)
    else:
        terms[w] = s


def _leftmost_redex(x: NcPoly):
    """(word, position) of the next rewrite step, or None when x is normal."""
    target = min((w for w in x.terms if _REDEX in w), key=word_key, default=None)
    return None if target is None else (target, target.find(_REDEX))


def _rewrite_at(x: NcPoly, target: str, pos: int) -> NcPoly:
    coeff = x.terms[target]
    out = dict(x.terms)
    del out[target]
    return NcPoly(out) + NcPoly({nw: coeff * c for nw, c in _apply_rule_at(target, pos)})


def reduce_once(x: NcPoly) -> NcPoly:
    """One rewrite step: leftmost reducible word, leftmost subword occurrence.

    Returns the input unchanged when nothing is reducible.
    """
    redex = _leftmost_redex(x)
    return x if redex is None else _rewrite_at(x, *redex)


@dataclass
class ReductionTrace:
    """Audit record of a step-by-step reduction."""

    steps: list = field(default_factory=list)  # (word, position, terms emitted)
    final: NcPoly = None
    step_count: int = 0

    def lines(self):
        return [f"{word_string(w)} -> {k} terms @pos {p}" for (w, p, k) in self.steps]


def trace_reduction(x: NcPoly) -> ReductionTrace:
    """Run reduce_once to the fixed point, recording every step."""
    trace = ReductionTrace()
    current = x
    while (redex := _leftmost_redex(current)) is not None:
        trace.steps.append((*redex, len(_RULE)))
        current = _rewrite_at(current, *redex)
        trace.step_count += 1
    trace.final = current
    return trace


# ---------------------------------------------------------------------------
# Wholesale normal form
# ---------------------------------------------------------------------------

_POW_NF: dict[int, dict] = {}


def _leftmost_block(w: str):
    """Leftmost maximal run A^n (n >= 3) immediately before an A*.

    Returns (start, n) with w[start:start+n] the run and w[start+n] == 's',
    or None when the word is already normal.
    """
    pos = w.find(_REDEX)
    if pos < 0:
        return None
    start = pos
    while start > 0 and w[start - 1] == GEN_A:
        start -= 1
    return start, pos + 3 - start  # w[pos+3] is the bounding A*


def _pow_nf(n: int) -> dict:
    """Normal form of A^n A* as a raw {word: RingElement} dict, memoized.

    Built upward from the largest cached n by the one-step recurrence in the
    module docstring, with the basic rule only, so this memo is the rewrite
    engine's own product, independent of the eta tables.
    """
    cached = _POW_NF.get(n)
    if cached is not None:
        return cached
    if n < 3:
        return {GEN_A * n + GEN_ASTAR: RingElement.one()}
    top = max(_POW_NF, default=2)
    prev = _POW_NF.get(top, {GEN_A * 2 + GEN_ASTAR: RingElement.one()})
    for k in range(top + 1, n + 1):
        cur: dict = {}
        for w, c in prev.items():
            w = GEN_A + w
            if w.startswith(_REDEX):
                for nw, rc in _apply_rule_at(w, 0):
                    _add(cur, nw, c * rc)
            else:
                _add(cur, w, c)
        _POW_NF[k] = prev = cur
    return prev


@dataclass
class ReductionStats:
    replacements: int = 0
    peak_term_count: int = 0


def _normalize(terms: dict, stats: ReductionStats | None = None) -> dict:
    """Fixed point of the rule on a raw term dict, by wholesale substitution.

    Words are processed longest-first so shorter duplicates merge before they
    are expanded; within one length the worklist is insertion-ordered, hence
    deterministic.
    """
    buckets: dict[int, dict] = {}
    result: dict = {}
    live = 0

    def insert(bucket, w, c):
        nonlocal live
        s = bucket.get(w)
        if s is None:
            bucket[w] = c
            live += 1
        else:
            s = s + c
            if s.is_zero():
                del bucket[w]
                live -= 1
            else:
                bucket[w] = s

    for w, c in terms.items():
        insert(buckets.setdefault(len(w), {}), w, c)
    if stats is not None:
        stats.peak_term_count = max(stats.peak_term_count, live)

    while buckets:
        length = max(buckets)
        bucket = buckets[length]
        while bucket:
            w = next(iter(bucket))
            c = bucket.pop(w)
            live -= 1
            block = _leftmost_block(w)
            if block is None:
                insert(result, w, c)
                continue
            start, n = block
            pre, post = w[:start], w[start + n + 1:]
            for mw, mc in _pow_nf(n).items():
                nw = pre + mw + post
                dest = result if _REDEX not in nw else (
                    bucket if len(nw) == length else buckets.setdefault(len(nw), {}))
                insert(dest, nw, c * mc)
            if stats is not None:
                stats.replacements += 1
                if live > stats.peak_term_count:
                    stats.peak_term_count = live
        del buckets[length]
    return result


def normal_form(x: NcPoly) -> NcPoly:
    """The fixed point of reduce_once; congruent to x modulo the relation ideal."""
    return NcPoly(_normalize(x.terms))


def normal_form_with_stats(x: NcPoly):
    stats = ReductionStats()
    nf = NcPoly(_normalize(x.terms, stats))
    return nf, stats


# ---------------------------------------------------------------------------
# Eta tables and the closed expansion of A^n A*
# ---------------------------------------------------------------------------


class EtaTable:
    """The auxiliary coefficients eta^{(m)}_{k,i} of the A^n A* expansions.

    Grid: for even m = 2n+2, k = 0..n; for odd m = 2n+3, k = 1..n+1; always
    i = 0..2.  Entries are rho-free Laurent polynomials.  Lookups outside the
    grid raise (a miss signals a transcription bug, not a zero).
    """

    def __init__(self):
        three = qint(3)
        self._values = {
            (3, 1, 0): three,
            (3, 1, 1): -three,
            (3, 1, 2): LaurentPoly.one(),
        }
        self._max_m = 3

    def _extend_to(self, m: int):
        one = LaurentPoly.one()
        three = qint(3)
        while self._max_m < m:
            src = self._max_m
            tgt = src + 1
            v = self._values
            if tgt % 2 == 0:  # even target 2n+2 from odd source 2n+1
                n = (tgt - 2) // 2
                v[(tgt, 0, 0)] = one
                v[(tgt, 0, 1)] = v[(src, 1, 0)] - 1
                v[(tgt, 0, 2)] = -v[(src, 1, 0)]
                for k in range(1, n + 1):
                    v[(tgt, k, 0)] = three * v[(src, k, 0)] + v[(src, k, 1)]
                for k in range(1, n):
                    v[(tgt, k, 1)] = -three * v[(src, k, 0)] + v[(src, k + 1, 0)] + v[(src, k, 2)]
                    v[(tgt, k, 2)] = v[(src, k, 0)] - v[(src, k + 1, 0)]
                if n >= 1:
                    v[(tgt, n, 1)] = -three * v[(src, n, 0)] + v[(src, n, 2)]
                    v[(tgt, n, 2)] = v[(src, n, 0)]
            else:  # odd target 2n+3 from even source 2n+2
                n = (tgt - 3) // 2
                for k in range(1, n + 2):
                    v[(tgt, k, 0)] = three * v[(src, k - 1, 0)] + v[(src, k - 1, 1)]
                for k in range(1, n + 1):
                    v[(tgt, k, 1)] = -three * v[(src, k - 1, 0)] + v[(src, k, 0)] + v[(src, k - 1, 2)]
                    v[(tgt, k, 2)] = v[(src, k - 1, 0)] - v[(src, k, 0)]
                v[(tgt, n + 1, 1)] = -three * v[(src, n, 0)] + v[(src, n, 2)]
                v[(tgt, n + 1, 2)] = v[(src, n, 0)]
            self._max_m = tgt

    def value(self, m: int, k: int, i: int) -> LaurentPoly:
        if m < 3:
            raise KeyError(f"eta table starts at m=3, got m={m}")
        if m > self._max_m:
            self._extend_to(m)
        try:
            return self._values[(m, k, i)]
        except KeyError:
            raise KeyError(f"eta^({m})_({k},{i}) is outside the defined grid") from None


ETA = EtaTable()


def power_astar_expansion(n: int) -> NcPoly:
    """Ordered form of A^n A* assembled from the eta tables.

    Equals normal_form(A^n A*) exactly; the rewrite engine is the oracle for
    that in the tests, while this construction never touches the rule.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n < 3:
        return NcPoly.from_word(GEN_A * n + GEN_ASTAR)
    terms: dict = {}
    if n % 2 == 0:  # n = 2m+2
        m = (n - 2) // 2
        for k in range(m + 1):
            for i in range(3):
                coeff = RingElement.rho0(m - k) * ETA.value(n, k, i)
                _add(terms, GEN_A * (2 - i) + GEN_ASTAR + GEN_A * (2 * k + i), coeff)
    else:  # n = 2m+3
        m = (n - 3) // 2
        for k in range(1, m + 2):
            for i in range(3):
                coeff = RingElement.rho0(m + 1 - k) * ETA.value(n, k, i)
                _add(terms, GEN_A * (2 - i) + GEN_ASTAR + GEN_A * (2 * k - 1 + i), coeff)
        top = RingElement.rho0(m + 1)
        _add(terms, GEN_A + GEN_ASTAR, top)
        _add(terms, GEN_ASTAR + GEN_A, -top)
    return NcPoly(terms)
