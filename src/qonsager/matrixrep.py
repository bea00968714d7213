"""Exact-rational matrix realizations through the coideal embedding.

The generator pair is assembled from level-one quantum-affine data on a
tensor product of two-dimensional evaluation modules:

    A  = c0 e0 q^{h0/2} + cbar0 f0 q^{h0/2} + eps0 q^{h0}
    A* = c1 e1 q^{h1/2} + cbar1 f1 q^{h1/2} + eps1 q^{h1}

with rho_i = c_i cbar_i (q + q^{-1})^2.  Every entry is a Fraction; q = t^2
so the half-weight diagonals stay rational, and ``ExactMatrix`` products skip
the zero terms of these sparse matrices.  ``eval_ncpoly`` returns the exact
image from integer arithmetic in one frame: every coefficient becomes an
integer over one denominator, read off power tables of q, rho0 and rho1.
Each word is a head times a power of its last letter, so a relation's words
share their head and power images and cost one product per head; suffix and
power images are built from the nonzero entries of each generator row.

Evaluation-module and coproduct conventions are pinned here and validated
solely by the ``check_qdg`` gate: if the gate passes, the pair genuinely
satisfies both defining relations, which is the only property downstream
soundness checks use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactring import RHO0, Rational
from .freealg import A, ASTAR, GEN_A, GEN_ASTAR, NcPoly
from .qnumbers import qint

_ZERO = Fraction(0)


class ExactMatrix:
    """Dense square matrix over Fraction; immutable, exact."""

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        self.rows = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
                          for row in rows)
        self.n = len(self.rows)
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError("matrix must be square")

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int) -> "ExactMatrix":
        return ExactMatrix([[0] * n for _ in range(n)])

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        values = list(values)
        n = len(values)
        return ExactMatrix([[values[i] if i == j else 0 for j in range(n)]
                            for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __add__(self, other):
        self._match(other)
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._match(other)
        return ExactMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return ExactMatrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return ExactMatrix([[a * other for a in row] for row in self.rows])
        self._match(other)
        out = []
        for row in self.rows:  # row times other, skipping the zero terms
            acc = [_ZERO] * self.n
            for a, orow in zip(row, other.rows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return ExactMatrix(out)

    def __rmul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self * other
        return NotImplemented

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix([[a * b if a and b else _ZERO for a in srow for b in orow]
                            for srow in self.rows for orow in other.rows])

    def _match(self, other):
        if not isinstance(other, ExactMatrix) or other.n != self.n:
            raise ValueError("matrix dimensions must agree")

    def __repr__(self):
        return f"ExactMatrix({[[str(x) for x in row] for row in self.rows]})"


def commutator(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    return x * y - y * x


def evaluation_rep(v: Rational, t: Rational) -> dict:
    """Two-dimensional evaluation module with spectral parameter v.

    Images: e1, f1 the elementary matrices, q^{h1/2} = diag(t, 1/t);
    e0 = v * (f1 shape), f0 = (1/v) * (e1 shape), q^{h0/2} = diag(1/t, t).
    """
    v = Fraction(v)
    t = Fraction(t)
    if v == 0:
        raise ValueError("spectral parameter must be nonzero")
    if t in (0, 1, -1):
        raise ValueError("t must avoid 0, 1, -1")
    e1 = ExactMatrix([[0, 1], [0, 0]])
    f1 = ExactMatrix([[0, 0], [1, 0]])
    return {
        "e1": e1,
        "f1": f1,
        "k1h": ExactMatrix.diagonal([t, 1 / t]),
        "e0": v * f1,
        "f0": (1 / v) * e1,
        "k0h": ExactMatrix.diagonal([1 / t, t]),
    }


def _combine(left: dict, site: dict) -> dict:
    """One coproduct step: Delta(e) = e x 1 + q^h x e, Delta(f) = f x q^{-h} + 1 x f,
    grouplike on the half-weights.  An evaluation site has level zero
    (k0h = k1h^{-1}), so its q^{-h_i} is its other half-weight squared."""
    out = {}
    nl = left["e1"].n
    ns = site["e1"].n
    il = ExactMatrix.identity(nl)
    i_s = ExactMatrix.identity(ns)
    for i, j in (("0", "1"), ("1", "0")):
        kl = left[f"k{i}h"] * left[f"k{i}h"]
        ks_inv = site[f"k{j}h"] * site[f"k{j}h"]
        out[f"e{i}"] = left[f"e{i}"].kron(i_s) + kl.kron(site[f"e{i}"])
        out[f"f{i}"] = left[f"f{i}"].kron(ks_inv) + il.kron(site[f"f{i}"])
        out[f"k{i}h"] = left[f"k{i}h"].kron(site[f"k{i}h"])
    return out


def tensor_rep(t: Rational, v_list) -> dict:
    """Generator images on the L-fold tensor product of evaluation modules."""
    v_list = [Fraction(v) for v in v_list]
    if not v_list:
        raise ValueError("need at least one site")
    rep = evaluation_rep(v_list[0], t)
    for v in v_list[1:]:
        rep = _combine(rep, evaluation_rep(v, t))
    return rep


@dataclass(frozen=True)
class CoidealParams:
    """Scalars of the coideal embedding plus the sites of the tensor module.

    q = t^2 keeps every entry rational; rho_i = c_i cbar_i (q+q^{-1})^2 is
    the structure-constant identification.
    """

    t: Rational
    v: tuple
    c0: Rational = Fraction(1)
    c1: Rational = Fraction(1)
    cbar0: Rational = Fraction(1)
    cbar1: Rational = Fraction(1)
    eps0: Rational = Fraction(0)
    eps1: Rational = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "v", tuple(Fraction(x) for x in self.v))
        for name in ("c0", "c1", "cbar0", "cbar1", "eps0", "eps1"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.t in (0, 1, -1):
            raise ValueError("t must avoid 0, 1, -1")
        if not self.v:
            raise ValueError("need at least one site")
        if any(x == 0 for x in self.v):
            raise ValueError("spectral parameters must be nonzero")
        if len(set(self.v)) != len(self.v):
            raise ValueError("spectral parameters must be pairwise distinct")

    @property
    def q(self) -> Fraction:
        return self.t * self.t

    @property
    def rho0(self) -> Fraction:
        return self.c0 * self.cbar0 * (self.q + 1 / self.q) ** 2

    @property
    def rho1(self) -> Fraction:
        return self.c1 * self.cbar1 * (self.q + 1 / self.q) ** 2


@dataclass(frozen=True)
class CoidealRealization:
    A: ExactMatrix
    Astar: ExactMatrix
    q: Fraction
    rho0: Fraction
    rho1: Fraction

    @property
    def dim(self) -> int:
        return self.A.n


def coideal_generators(params: CoidealParams) -> CoidealRealization:
    """Assemble the generator pair on the tensor module."""
    rep = tensor_rep(params.t, params.v)
    k0 = rep["k0h"] * rep["k0h"]
    k1 = rep["k1h"] * rep["k1h"]
    a = (params.c0 * (rep["e0"] * rep["k0h"])
         + params.cbar0 * (rep["f0"] * rep["k0h"])
         + params.eps0 * k0)
    astar = (params.c1 * (rep["e1"] * rep["k1h"])
             + params.cbar1 * (rep["f1"] * rep["k1h"])
             + params.eps1 * k1)
    return CoidealRealization(A=a, Astar=astar, q=params.q,
                              rho0=params.rho0, rho1=params.rho1)


# The defining relation A^3 A* - [3]_q A^2 A* A + [3]_q A A* A^2 - A* A^3
# = rho0 (A A* - A* A), moved to one side; its dagger is the other relation.
_QDG = (A * A * A * ASTAR - qint(3) * (A * A * ASTAR * A) + qint(3) * (A * ASTAR * A * A)
        - ASTAR * A * A * A - RHO0 * (A * ASTAR - ASTAR * A))
_QDG_DAGGER = _QDG.dagger()


def check_qdg(a: ExactMatrix, astar: ExactMatrix, rho0: Rational, rho1: Rational,
              q: Rational) -> bool:
    """Both defining relations hold exactly for the matrix pair."""
    return all(eval_ncpoly(p, a, astar, q, rho0, rho1).is_zero()
               for p in (_QDG, _QDG_DAGGER))


def check_realization(real: CoidealRealization) -> bool:
    return check_qdg(real.A, real.Astar, real.rho0, real.rho1, real.q)


def _int_matmul(x, y):
    cols = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in x]


def _sparse_rows(m):
    """The nonzero entries of each row of an integer matrix, as (columns, values)."""
    return [([k for k, e in enumerate(row) if e], [e for e in row if e]) for row in m]


def _sparse_left(g, m):
    """g * m, with g given by the nonzero entries of its rows (``_sparse_rows``):
    row i of the product combines only the rows of m that row i of g selects."""
    zero = [0] * len(m)
    return [[sum(map(operator.mul, values, col)) for col in zip(*(m[k] for k in cols))]
            if cols else zero for cols, values in g]


def _add_scaled(total, scale, m):
    """total + scale * m, entrywise on integer matrices."""
    return [[t + scale * e for t, e in zip(trow, mrow)] for trow, mrow in zip(total, m)]


def _frame(p: Fraction, lo: int, hi: int):
    """The powers p^e, e = lo..hi, over one denominator: the integers
    num^(e-lo) den^(hi-e) in order of e, and the factor num^lo / den^hi
    that turns each back into p^e."""
    num, den = [1], [1]
    for _ in range(hi - lo):
        num.append(num[-1] * p.numerator)
        den.append(den[-1] * p.denominator)
    return ([x * y for x, y in zip(num, reversed(den))],
            Fraction(p.numerator) ** lo / Fraction(p.denominator) ** hi)


def eval_ncpoly(x: NcPoly, a: ExactMatrix, astar: ExactMatrix,
                q_val: Rational, rho0_val: Rational, rho1_val: Rational) -> ExactMatrix:
    """Evaluation homomorphism from the free algebra: letters become the
    matrices, coefficients evaluate at (q, rho0, rho1), q nonzero.

    Exact, in integers and in one frame.  With d the common denominator of
    the entries of A and A*, G_a = dA and G_s = dA*, a word w becomes
    G^w / d^len(w).  With q = u/v and rho_i = a_i/b_i, lo and hi the least and
    greatest q-exponent of all coefficients, E_i the greatest rho_i power and
    L the longest word, the word w of coefficient sum c q^e rho0^e0 rho1^e1
    adds s_w G^w to one integer total, where

        s_w = sum c u^(e-lo) v^(hi-e) a0^e0 b0^(E0-e0) a1^e1 b1^(E1-e1) d^(L-len w),

    read off power tables built once per call, and the image is
    total u^lo / (v^hi b0^E0 b1^E1 d^L).  A word with s_w = 0 costs nothing.

    Each word is split as h x^k, where x^k is its whole trailing run and the
    head h, possibly empty, is the rest; a word that is itself the head of
    another word is its own head, with the empty power.  The words of one
    head share M(h) T_h with T_h = sum s_w G_x^k, an integer combination of
    powers that needs no product; the head word itself adds s_w M(h) to the
    total.  Powers and heads come from one memo of images built right to
    left, M(x w') = G_x M(w'), from the nonzero entries of each row of G_x,
    so every distinct suffix of a head and every power up to the longest
    trailing run costs one sparse product, and each nonempty head whose
    group has a power costs one dense product.
    """
    a._match(astar)
    q_val = Fraction(q_val)
    if q_val == 0:
        raise ValueError("q must be nonzero")
    n = a.n
    if not x.terms:
        return ExactMatrix.zeros(n)
    coeffs = x.terms.values()
    exps = [e for c in coeffs for p in c.terms.values() for e in p.terms]
    lo = min(exps)
    qs, fq = _frame(q_val, lo, max(exps))
    r0, f0 = _frame(Fraction(rho0_val), 0, max(e0 for c in coeffs for e0, _ in c.terms))
    r1, f1 = _frame(Fraction(rho1_val), 0, max(e1 for c in coeffs for _, e1 in c.terms))
    d = math.lcm(*(e.denominator for m in (a, astar) for row in m.rows for e in row))
    ds, fd = _frame(Fraction(1, d), 0, max(map(len, x.terms)))
    scaled = {}
    for w, c in x.terms.items():
        s = sum(r0[e0] * r1[e1] * sum(k * qs[e - lo] for e, k in p.terms.items())
                for (e0, e1), p in c.terms.items())
        if s:
            scaled[w] = s * ds[len(w)]
    if not scaled:
        return ExactMatrix.zeros(n)
    zero = [[0] * n for _ in range(n)]
    memo = {"": [[int(i == j) for j in range(n)] for i in range(n)]}
    for ch, m in ((GEN_A, a), (GEN_ASTAR, astar)):
        memo[ch] = [[e.numerator * (d // e.denominator) for e in row] for row in m.rows]
    sparse = {ch: _sparse_rows(memo[ch]) for ch in (GEN_A, GEN_ASTAR)}

    def image(word):
        k = 0
        while word[k:] not in memo:
            k += 1
        for i in range(k - 1, -1, -1):
            memo[word[i:]] = _sparse_left(sparse[word[i]], memo[word[i + 1:]])
        return memo[word]

    heads = {w.rstrip(w[-1:]) for w in scaled}
    groups = {}
    for w, s in scaled.items():
        head = w if w in heads else w.rstrip(w[-1:])
        groups.setdefault(head, []).append((w[len(head):], s))
    total = zero
    for head, tail in groups.items():
        m, t = image(head), None
        for power, s in tail:
            if power:
                t = _add_scaled(t or zero, s, image(power))
            else:
                total = _add_scaled(total, s, m)
        if t:
            total = _add_scaled(total, 1, _int_matmul(m, t) if head else t)
    factor = fq * f0 * f1 * fd
    return ExactMatrix([[factor * e for e in row] for row in total])
