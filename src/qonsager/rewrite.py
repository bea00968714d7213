"""Terminating reduction modulo the first defining relation.

The single installed rule solves the defining relation for A^3 A*:

    A^3 A*  ->  [3]_q A^2 A* A  -  [3]_q A A* A^2  +  A* A^3  +  rho0 (A A* - A* A)

``reduce_once`` applies it once, at the leftmost occurrence inside the
leftmost reducible word (canonical term order); it is the step-wise oracle
of the tests.  ``normal_form`` computes the fixed point by wholesale
substitution, depth first over prefix classes (``_normalize``): the leftmost
block A^n A* (n >= 3) of a word, the first A-run after its normal prefix,
is replaced in one shot by the memoized normal form of A^n A*.
``trace_reduction`` and ``normal_form_with_stats`` run the same engine with
a ``ReductionTrace``: the first keeps each block replacement, the second
counts them; both record the peak number of live terms, and the second runs
on packed ints when its input is graded (below).

Why the order is free.  The pattern A^3 A* has no proper suffix that is
also its prefix, so two occurrences never overlap and the rule has no
critical pairs.  With the termination measure as the compatible order,
Bergman's diamond lemma (1978) makes the normal form unique: every order of
rule steps reaches the same fixed point.  So ``_normalize`` may pick its
traversal, and ``reduce_once`` and the tests' random-position oracle check
it.

The memo uses the rule alone, one step per n:

    NF(A^n A*) = NF(A · NF(A^(n-1) A*))

Every word of NF(A^(n-1) A*) is A^i A* A^m with i <= 2, so after the extra A
only the words starting with A^3 A* need the rule, once, at position 0, and
what it emits is already normal.  The eta recursion tables give the same
expansions in closed form (``power_astar_expansion``), kept as an
independent construction and tested equal.

Only the A-side relation is installed.  The A*-side family is reached
through the dagger automorphism, never by a second rule.

``_normalize`` learns how a block expands only through a memo view, a map
(n, post) -> (j, tail, multiplier, shift), one for each word A^j A* tail of
NF(A^n A*), for the block A^n A* followed by the letters ``post``
(j <= 2 by the recurrence above): a popped coefficient c becomes
c * multiplier, shifted left by ``shift`` bits when that is not 0, and
sums are tested for zero by ``not s``.  ``_view`` builds three views, one
per multiplier of a memo term: the memo itself (RingElement coefficients)
and its l1 view (the exact l1 norm of each coefficient, an int), both with
shift 0, and its packing (an odd int and a shift per coefficient).
``normal_form``, ``trace_reduction`` and ``reduce`` use the first, the
width bound ``_mass_bound`` the second.

What is cached, and for how long.  A view's lists depend only on n and
the number of A*'s in ``post``, and the memo only on the rule, so
``_POW_NF``, the ring view ``_RING_VIEW`` and the l1 view ``_L1_VIEW`` live
for the whole process; the packed view depends on K and lives for one call.
Within one pass ``_normalize`` keeps a move table: the first time a rest
(a word of a prefix class, after the prefix) is popped, under any prefix,
its moves are read from the view and kept, and every later pop of that rest
only multiplies, shifts and adds.  The relation makes 5 400 replacements
of 366 distinct rests at r = 6, and 20 793 of 595 at r = 7.  The moves
depend on the rest and the view only, so reusing them changes no step,
count or sum.  ``_mass_bound`` keeps U (step 2 below) per rest for the
whole process in ``_MASS``: U(rest) is defined by the rest and the
rule-only memo alone, never by the input that reaches it.

Packed graded coefficients.  Give A and A* degree 1 and rho0 degree 2;
the rule is homogeneous and its coefficients have even q-exponents.  So on
one graded component (one total degree, no rho1, even q-exponents only) the
rho0 power of a word is fixed by its length, and a coefficient is a Laurent
polynomial in X = q^2.  ``normal_form_with_stats`` packs such input:

1. the coefficient of word w is scaled by X^(-inv(w)) (inv from
   ``measure``), and all of them by one global X^G that leaves no negative
   exponent;
2. a path-mass bound B, without a reduction pass, with U computed once
   per distinct rest and process.  Split each word into its normal prefix
   (empty, or ending in A*; the whole word when it is normal) and its rest,
   which is empty or starts with its first block A^n A*, n >= 3.  Then
   U("") = 1, and U(A^n A* post) is the largest over j in {0, 1, 2} of the sum of
   l1 * U(rest of tail post) over the entries (j, tail, l1) of the l1 view
   at (n, post).  With the weight of a prefix P the sum of ||c_w||_1 U(rest
   of w) over the input words w with prefix P, B is the largest sum of
   weights along a chain of prefixes, each a prefix of the next;
3. K = (bit length of B) + 2;
4. the packed pass runs it on the scaled coefficients evaluated at X = 2^K,
   with the packed view: the coefficient of mw in NF(A^n A*) times
   X^(inv(A^n A*) - inv(mw)), a polynomial, evaluated at 2^K and multiplied
   by 2^(K (n - a(mw)) s(post)), where a counts A's and s counts A*'s.
   Then each replacement keeps the scaling of step 1 exactly.  The view
   holds that multiplier as an odd mantissa v (the evaluated polynomial
   without its b0 trailing zero bits) and the shift
   b = b0 + K (n - a(mw)) s(post), and the pass computes (c v) 2^b, which
   is the same int as c (v 2^b).  CPython multiplies digit by digit, zero
   digits included; over the products of the r = 6 relation a mantissa has
   8.2 thirty-bit digits on average, the shifted multiplier 16.1;
5. each final int is read in balanced base-2^K digits back into a
   RingElement.

Packing and unpacking go through ``exactring.pack_poly`` and
``unpack_poly``, the codec of ``LaurentPoly``'s packed product.

Why K suffices.  Each word's expansion is fixed (leftmost block, fixed
memo), so the reduction is a tree of paths, and every live coefficient, at
any moment of the packed pass, is a signed sum of distinct path products
(input coefficient times memo coefficients times powers of X).  By the
triangle inequality and ||fg|| <= ||f|| ||g|| for the l1 norm, its l1 norm
is at most the path mass through that word: the same sum over l1 norms,
with no cancellation.  Every memo coefficient is nonzero with integer
coefficients, so its l1 norm is >= 1, and the mass through a word is at
most the mass that it sends on to some normal word nu, hence at most the
total mass M(nu) that reaches nu.  And B bounds every M(nu).  One unit of
mass at a rest sends at most U of it to any one normal word: the words of
different j-classes start with different A^j A* and are distinct, so
summing the members of one class can only over-count.  An input word
reaches only normal words that start with its normal prefix, so the input
words that reach nu have prefixes along one chain.  So the l1 norm of
every live coefficient is at most B < 2^(K-2).  Path masses and B depend
on the words and the memo only, not on the traversal order, so the bound
holds for the depth-first order as for any other.  Evaluation at 2^K is a
ring homomorphism, and a polynomial whose coefficients all lie below
2^(K-1) in absolute value vanishes at 2^K only if it is zero (Cauchy's
root bound).  So every zero test of the packed pass is exact, it makes the
same replacements as the RingElement pass, and the unpacked residual is
exact.  A scaled memo coefficient with a negative X exponent, or an
unpacked digit of 2^(K-2) or more, would break this argument; both raise
``AssertionError`` (not ``assert``, so the checks stay under
``python -O``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactring import LaurentPoly, RingElement, pack_poly, unpack_poly
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


def reduce_once(x: NcPoly) -> NcPoly:
    """One rewrite step: leftmost reducible word, leftmost subword occurrence.

    Returns the input unchanged when nothing is reducible.
    """
    target = min((w for w in x.terms if _REDEX in w), key=word_key, default=None)
    if target is None:
        return x
    coeff = x.terms[target]
    step = NcPoly({nw: coeff * c for nw, c in _apply_rule_at(target, target.find(_REDEX))})
    return x - NcPoly.from_word(target, coeff) + step


# ---------------------------------------------------------------------------
# Wholesale normal form
# ---------------------------------------------------------------------------

_POW_NF: dict[int, dict] = {}


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


def _view(multiplier):
    """A memo view (module docstring): multiplier(n, mw, c) gives (v, b0, d)
    for the term c mw of NF(A^n A*), and the shift before a ``post`` with s
    A*'s is b0 + d s."""
    heads: dict[int, list] = {}
    quads: dict[tuple, list] = {}

    def view(n: int, post: str):
        s = post.count(GEN_ASTAR)
        out = quads.get((n, s))
        if out is None:
            head = heads.get(n)
            if head is None:
                head = heads[n] = []
                for mw, c in _pow_nf(n).items():
                    j = mw.index(GEN_ASTAR)
                    head.append((j, mw[j + 1:], *multiplier(n, mw, c)))
            out = quads[(n, s)] = [(j, tail, v, b0 + d * s) for j, tail, v, b0, d in head]
        return out
    return view


# one ring view per process: its lists depend on n and s(post) only, and
# rebuilding them for every call costs about 4% of the reduce benchmark
_RING_VIEW = _view(lambda n, mw, c: (c, 0, 0))


def _l1_norm(c: RingElement) -> int:
    """The sum of the absolute values of c's integer coefficients."""
    return sum(abs(v) for p in c.terms.values() for v in p.terms.values())


# one l1 view and one U memo (``_mass_bound``) per process, beside _RING_VIEW
# and _POW_NF: U(rest) depends only on the rest and on the rule-only memo
_L1_VIEW = _view(lambda n, mw, c: (_l1_norm(c), 0, 0))
_MASS: dict[str, int] = {"": 1}


def _packed_view(width: int):
    """Memo view at X = 2^width: the coefficient of mw times
    X^(inv(A^n A*) - inv(mw)), shifted by width * (n - a(mw)) * s(post), as
    an odd mantissa and a shift (step 4 of the module docstring)."""

    def multiplier(n: int, mw: str, c: RingElement):
        poly = _x_poly(mw, c, n + 1)
        if poly is None:
            raise AssertionError(f"memo coefficient of {mw!r} in NF(A^{n} A*) is not graded")
        v = pack_poly(poly, width, n - measure(mw)[1])
        zeros = (v & -v).bit_length() - 1
        return v >> zeros, zeros, width * (n - mw.count(GEN_A))
    return _view(multiplier)


def _x_poly(w: str, c: RingElement, degree: int):
    """c as {X exponent: int}, X = q^2, when c w lies in the graded component
    of this degree (rho0^((degree - len(w))/2), no rho1, even q-exponents);
    None otherwise."""
    if len(c.terms) != 1:
        return None
    ((e0, e1), p), = c.terms.items()
    if e1 or len(w) + 2 * e0 != degree or any(e & 1 for e in p.terms):
        return None
    return {e >> 1: v for e, v in p.terms.items()}


@dataclass
class ReductionTrace:
    """What one run of ``_normalize`` did: the number of block replacements,
    the peak number of live terms, and the normal form.  ``trace_reduction``
    also keeps every replacement as (word, start of its A^n A* block, terms
    of NF(A^n A*)) in ``steps``, in the depth-first order of the run; other
    runs leave it None.  A packed run also records its width K
    (``width_bits``) and the bit length of the path-mass bound B that
    proves it (``majorant_bits``, K - 2); both stay 0 on the RingElement
    view."""

    steps: list | None = None
    replacements: int = 0
    peak_term_count: int = 0
    final: NcPoly = None
    width_bits: int = 0
    majorant_bits: int = 0

    def lines(self):
        if self.steps is None:
            raise ValueError("this trace counts replacements but keeps no steps; "
                             "trace_reduction(x) keeps them")
        return [f"{word_string(w)} -> {k} terms @pos {p}" for (w, p, k) in self.steps]


def _normalize(terms: dict, expand=_RING_VIEW, record: ReductionTrace | None = None) -> dict:
    """Fixed point of the rule on a raw term dict, depth first over prefix classes.

    A class is a normal prefix (empty, or ending in A*) with the dict of the
    reducible rests of the words that start with it.  Popping a class moves
    the first A-run of each rest and the A* after it into the prefix:
    directly when the run has at most two A's, else through the memo view
    ``expand`` (module docstring; the default is the ring view), whose
    words all start with A^j A*, j <= 2.  So a class has at most three
    children, keyed by j, and a word whose rest is normal goes straight to
    ``result``, summed there.  A class is filled only by its parent, before
    it is popped, so every word is expanded once with its whole coefficient,
    and only one root-to-leaf path of classes (with the siblings still to
    come) is alive.  ``live`` counts the terms held in ``result`` and in the
    classes popped or pending.

    ``table`` maps each rest popped so far in this pass to its moves
    (j, rest after the move, whether that is reducible, multiplier, shift),
    the multiplier None for the direct move; they depend on the rest and
    ``expand`` only, so later pops of the rest reuse them unchanged.
    """
    result = {w: c for w, c in terms.items() if _REDEX not in w}
    stack = [("", {w: c for w, c in terms.items() if _REDEX in w})]
    live = len(terms)
    table: dict[str, list] = {}
    if record is not None:
        record.peak_term_count = max(record.peak_term_count, live)

    while stack:
        prefix, rests = stack.pop()
        prefixes = (prefix + GEN_ASTAR, prefix + GEN_A + GEN_ASTAR, prefix + GEN_A * 2 + GEN_ASTAR)
        kids = ({}, {}, {})
        for w, c in rests.items():
            moves = table.get(w)
            if moves is None:
                n = w.index(GEN_ASTAR)
                post = w[n + 1:]
                if n < 3:
                    moves = [(n, post, _REDEX in post, None, 0)]
                else:
                    moves = []
                    for j, tail, v, shift in expand(n, post):
                        rest = tail + post
                        moves.append((j, rest, _REDEX in rest, v, shift))
                table[w] = moves
            for j, rest, reducible, v, shift in moves:
                if v is None:
                    p = c
                elif shift:
                    p = (c * v) << shift
                else:
                    p = c * v
                if reducible:
                    dest = kids[j]
                else:
                    dest, rest = result, prefixes[j] + rest
                s = dest.get(rest)
                if s is None:
                    dest[rest] = p
                    live += 1
                else:
                    s = s + p
                    if s:
                        dest[rest] = s
                    else:
                        del dest[rest]
                        live -= 1
            if record is not None:
                if moves[0][3] is not None:  # a block replacement, not the direct move
                    record.replacements += 1
                    if record.steps is not None:
                        record.steps.append((prefix + w, len(prefix), len(moves)))
                if live > record.peak_term_count:
                    record.peak_term_count = live
        live -= len(rests)
        for j in (2, 1, 0):
            if kids[j]:
                stack.append((prefixes[j], kids[j]))
    return result


def normal_form(x: NcPoly) -> NcPoly:
    """The fixed point of reduce_once; congruent to x modulo the relation ideal."""
    return NcPoly(_normalize(x.terms))


def trace_reduction(x: NcPoly) -> ReductionTrace:
    """normal_form(x), with the record of every block replacement."""
    trace = ReductionTrace(steps=[])
    trace.final = NcPoly(_normalize(x.terms, record=trace))
    return trace


def _graded_input(terms: dict):
    """(degree, {word: X-polynomial}) when the terms form one graded
    component, else None."""
    degree = None
    polys = {}
    for w, c in terms.items():
        if degree is None:
            degree = len(w) + 2 * next(iter(c.terms))[0]
        poly = _x_poly(w, c, degree)
        if poly is None:
            return None
        polys[w] = poly
    return (degree, polys) if polys else None


def _block_rest(w: str) -> str:
    """w without its normal prefix: from the A-run of its first A^3 A* on,
    or "" when w is normal."""
    p = w.find(_REDEX)
    return w[w.rfind(GEN_ASTAR, 0, p) + 1:] if p >= 0 else ""


def _mass_bound(terms: dict) -> int:
    """The bound B of step 2 of the module docstring for terms {w: int >= 0}:
    U on the l1 memo view, memoized per distinct rest and evaluated with an
    explicit stack (A^3 A*^m is a chain m rests deep), then the largest
    weight sum along a chain of prefixes.  The view and the U memo are the
    process-wide ``_L1_VIEW`` and ``_MASS``, so a rest's U is computed once
    per process, whatever input reaches it."""
    mass = _MASS
    rests = {w: _block_rest(w) for w in terms}
    stack = list(rests.values())
    while stack:
        rest = stack[-1]
        if rest in mass:
            stack.pop()
            continue
        n = rest.index(GEN_ASTAR)
        post = rest[n + 1:]
        kids = [(j, v, _block_rest(tail + post)) for j, tail, v, _ in _L1_VIEW(n, post)]
        todo = [k for _, _, k in kids if k not in mass]
        if todo:
            stack += todo
            continue
        sums = [0, 0, 0]
        for j, v, k in kids:
            sums[j] += v * mass[k]
        mass[stack.pop()] = max(sums)
    weight: dict[str, int] = {}
    for w, c in terms.items():
        prefix = w[:len(w) - len(rests[w])]
        weight[prefix] = weight.get(prefix, 0) + c * mass[rests[w]]
    return max(sum(weight.get(p[:i], 0) for i in range(len(p) + 1)) for p in weight)


def normal_form_with_stats(x: NcPoly):
    """(normal_form(x), its ReductionTrace with the replacement and peak counts).

    One graded component is reduced on packed ints (module docstring), any
    other input on the RingElement view; both give the same trace and result.
    """
    graded = _graded_input(x.terms)
    if graded is None:
        trace = ReductionTrace()
        trace.final = NcPoly(_normalize(x.terms, record=trace))
        return trace.final, trace
    degree, polys = graded
    inv = {w: measure(w)[1] for w in polys}
    shift = max(inv[w] - min(p) for w, p in polys.items())
    bits = _mass_bound({w: sum(map(abs, p.values())) for w, p in polys.items()}).bit_length()
    width = bits + 2
    trace = ReductionTrace(width_bits=width, majorant_bits=bits)
    packed = _normalize({w: pack_poly(p, width, shift - inv[w]) for w, p in polys.items()},
                        _packed_view(width), trace)
    terms = {}
    for w, value in packed.items():
        coeff = LaurentPoly(unpack_poly(value, width, 2 * (measure(w)[1] - shift), 2))
        terms[w] = RingElement({((degree - len(w)) // 2, 0): coeff})
    trace.final = NcPoly(terms)
    return trace.final, trace


# ---------------------------------------------------------------------------
# Eta tables and the closed expansion of A^n A*
# ---------------------------------------------------------------------------


class EtaTable:
    """The coefficients eta^{(m)}_{k,i} of the expansions of A^m A*:

        NF(A^m A*) = sum_{k,i} rho0^((m-1)//2 - k) eta^{(m)}_{k,i} A^(2-i) A* A^(2k+i-m%2).

    The grid (``grid``) is every word of that form with a trailing A-power
    >= 0 and a rho0 power >= 0: i = 0..2, k = m%2 - 1 .. (m-1)//2.  Entries
    are rho-free Laurent polynomials.  The table starts at NF(A*) = A*
    (eta^{(0)}_{-1,2} = 1) and extends one m at a time by
    NF(A^m A*) = NF(A · NF(A^(m-1) A*)): the extra A leaves the words with
    i >= 1 normal and sends A^3 A* A^t through the rule.  With d = m % 2
    and s = k - d, reading eta^{(m-1)} as zero off its grid (``get``):

        eta^{(m)}_{k,0} =  [3] eta^{(m-1)}_{s,0} + eta^{(m-1)}_{s,1}
        eta^{(m)}_{k,1} = -[3] eta^{(m-1)}_{s,0} + eta^{(m-1)}_{s+1,0} + eta^{(m-1)}_{s,2}
        eta^{(m)}_{k,2} =      eta^{(m-1)}_{s,0} - eta^{(m-1)}_{s+1,0}

    So m = 0, 1, 2 hold A*, A A* and A^2 A*, and the k = 0 row of an odd
    m >= 3 holds its top terms rho0^((m-1)/2) (A A* - A* A).  ``value``
    raises off the grid (a miss signals a transcription bug, not a zero).
    """

    def __init__(self):
        self._values = {(0, -1, 2): LaurentPoly.one()}
        self._max_m = 0

    @staticmethod
    def grid(m: int) -> list:
        """The (k, i) of eta^{(m)}, in the order of k, then i."""
        d = m % 2
        return [(k, i) for k in range(d - 1, (m + 1) // 2) for i in range(3) if 2 * k + i >= d]

    def _extend_to(self, m: int):
        three = qint(3)
        while self._max_m < m:
            src = self._max_m
            tgt = src + 1
            for k, i in self.grid(tgt):
                s = k - tgt % 2
                a = self.get(src, s, 0)
                if i == 0:
                    value = three * a + self.get(src, s, 1)
                elif i == 1:
                    value = -three * a + self.get(src, s + 1, 0) + self.get(src, s, 2)
                else:
                    value = a - self.get(src, s + 1, 0)
                self._values[(tgt, k, i)] = value
            self._max_m = tgt

    def value(self, m: int, k: int, i: int) -> LaurentPoly:
        if m > self._max_m:
            self._extend_to(m)
        try:
            return self._values[(m, k, i)]
        except KeyError:
            raise KeyError(f"eta^({m})_({k},{i}) is outside the defined grid") from None

    def get(self, m: int, k: int, i: int) -> LaurentPoly:
        """eta^{(m)}_{k,i}, zero off the grid (finite-support convention)."""
        if m > self._max_m:
            self._extend_to(m)
        return self._values.get((m, k, i), LaurentPoly.zero())


ETA = EtaTable()


def power_astar_expansion(n: int) -> NcPoly:
    """Ordered form of A^n A* assembled from the eta tables.

    Equals normal_form(A^n A*) exactly; the rewrite engine is the oracle for
    that in the tests, while this construction never touches the rule.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    terms: dict = {}
    for k, i in ETA.grid(n):
        coeff = RingElement.rho0((n - 1) // 2 - k) * ETA.value(n, k, i)
        _add(terms, GEN_A * (2 - i) + GEN_ASTAR + GEN_A * (2 * k + i - n % 2), coeff)
    return NcPoly(terms)
