"""The relation coefficients c_j^{[r,p]} by three independent routes.

Route 1 (``reduced_genfun_coeffs``): expand the two-variable generating
polynomial (x - y) * prod_s (x^2 - beta_s x y + y^2 - [s]^2_{q^2} rho0) and
strip the (-1)^{j+p} rho0^p prefactors.  This is the ground-truth route.

Route 2 (``closedform_table``): the double sum over ordered disjoint index
families with a floor-halved binomial weight; the family sums are the u^p v^k
coefficients of prod_s (1 + u [s]^2_{q^2} + v beta_s), not Route 1's product.
The naive weight C(r-p, floor((j-k)/2)) overcounts from r=3 on, first at
(r,p,j)=(3,0,3); the expansion combinatorics give C(r-p-k, floor((j-k)/2)).
Both stay available through the ``literal`` flag, corrected is the default.

Routes 1 and 2, and the q-binomial product, multiply one factor at a time as
one running product (``exactring.running_product``): each coefficient stays
one packed int from the first factor to the last, and only the steps that a
caller reads are unpacked.  Route 1 leaves the power of rho0 implicit and reads
the signs (-1)^{j+p} off the product under y -> -y, rho0 -> -rho0
(``_reduced_expansions`` says why that is sound).

Route 3 (``recursion_coeffs``): the inductive r -> r+1 step through the
M, N and eta arrays; every division is exact and asserted.  A step runs on
the packed values of one ``exactring.PackedRing`` of stride 2: each
level-r entry, eta value and new leading entry is packed once, M and N stay
packed, and only the new entries and the M and N values that the divisions
read are unpacked, at a width that the tracked norms prove; a first width
that turns out too narrow reruns the step (``advance_table``).

``lusztig_coeffs`` is the rho = 0 specialization (higher q-Serre
coefficients), and ``qbinomial_theorem_check`` verifies the product/sum
identity that explains the specialization.

``_steps`` is the only code that turns a route name into tables, one function
per r: ``coeff_tables`` calls each and ``coeff_table`` only the last, and the
per-route table functions above are views of ``coeff_table`` and
``coeff_tables``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb

from .exactring import LaurentPoly, PackedRing, WidthTooNarrow, _times, _width, running_product
from .qnumbers import beta_s, qbinomial, qint
from .rewrite import ETA

ROUTES = ("genfun", "closed", "closed-literal", "recursion", "lusztig")


def _sgn(e: int) -> int:
    return 1 if e % 2 == 0 else -1


@dataclass
class CoeffTable:
    """Triangular array c_j^{[r,p]} for 0 <= p <= r, 0 <= j <= 2(r-p)+1."""

    r: int
    route: str
    entries: dict  # (p, j) -> LaurentPoly

    def row_width(self, p: int) -> int:
        return 2 * (self.r - p) + 1

    def entry(self, p: int, j: int) -> LaurentPoly:
        if not (0 <= p <= self.r and 0 <= j <= self.row_width(p)):
            raise KeyError(f"({p}, {j}) outside table for r={self.r}")
        return self.entries[(p, j)]

    def items_sorted(self):
        for p in range(self.r + 1):
            for j in range(self.row_width(p) + 1):
                yield (p, j), self.entry(p, j)

    def check(self) -> "CoeffTable":
        """Assert completeness, the c_0^{[r,0]} = 1 normalization, and the
        palindromic symmetry c_j = c_{2(r-p)+1-j}."""
        for (p, j), value in self.items_sorted():
            mirror = self.entry(p, self.row_width(p) - j)
            if value != mirror:
                raise AssertionError(
                    f"symmetry broken at r={self.r} (p={p}, j={j}) via route {self.route}")
        if self.entry(0, 0) != LaurentPoly.one():
            raise AssertionError(f"normalization c_0^[{self.r},0] != 1 via {self.route}")
        return self

    def first_mismatch(self, other: "CoeffTable"):
        """First differing (p, j) in table order, or None."""
        if self.r != other.r:
            raise ValueError("tables compare only at equal r")
        for (p, j), value in self.items_sorted():
            if value != other.entry(p, j):
                return (p, j, value, other.entry(p, j))
        return None


# ---------------------------------------------------------------------------
# Route: Lusztig specialization (rho = 0)
# ---------------------------------------------------------------------------


def lusztig_coeffs(r: int) -> CoeffTable:
    """p = 0 row is [2r+1 choose j]_q; all deformed rows vanish."""
    if r < 1:
        raise ValueError("need r >= 1")
    entries = {}
    for j in range(2 * r + 2):
        entries[(0, j)] = qbinomial(2 * r + 1, j)
    for p in range(1, r + 1):
        for j in range(2 * (r - p) + 2):
            entries[(p, j)] = LaurentPoly.zero()
    return CoeffTable(r=r, route="lusztig", entries=entries).check()


# ---------------------------------------------------------------------------
# Route: generating polynomial
# ---------------------------------------------------------------------------


def _genfun_factor(beta, gamma, delta) -> dict:
    """x^2 - beta xy + y^2 - gamma (x+y) - delta, leaving out a falsy gamma or delta."""
    factor = {(2, 0): 1, (0, 2): 1, (1, 1): -beta}
    if gamma:
        factor[(1, 0)] = factor[(0, 1)] = -gamma
    if delta:
        factor[(0, 0)] = -delta
    return factor


def genfun_polynomial(r: int, params) -> dict:
    """Expansion of (x-y) * prod_s (x^2 - beta_s xy + y^2 - gamma_s (x+y) - delta_s)
    as {(i, j): scalar} in commuting x, y.  Scalars are whatever the params carry
    (RingElement for the symbolic reduced sequence, Fraction for numeric data)."""
    params = list(params)
    if len(params) != r:
        raise ValueError(f"need exactly r={r} parameter steps, got {len(params)}")
    poly = {(1, 0): 1, (0, 1): -1}  # x - y
    for step in params:
        poly = _times(poly, _genfun_factor(step.beta, step.gamma, step.delta))
        poly = {key: a for key, a in poly.items() if a}
    return poly


def _reduced_step(s: int) -> tuple:
    """(beta_s, [s]^2_{q^2}) as LaurentPolys: the beta_s and delta_s / rho0 of
    the reduced sequence (``reduced_tridiagonal_params``)."""
    return beta_s(s), qint(s, base=2) ** 2


def _reduced_expansions(r_max: int):
    """Yield, for r = 1..r_max, a function that returns the reduced generating
    polynomial under y -> -y, rho0 -> -rho0 as {(i, j): LaurentPoly}
    (``exactring.running_product``), the rho0 power p = (2r+1-i-j)/2 of
    a_(i, j) left implicit: a factor step is
    a_new(i, j) = a(i-2, j) + a(i, j-2) + beta_s a(i-1, j-1) + [s]^2_{q^2} a(i, j).

    Leaving rho0 implicit is sound because each factor is homogeneous of
    degree 2 when x and y have degree 1 and rho0 has degree 2: beta_s is
    rho0-free and delta_s = [s]^2_{q^2} rho0.  So every term a_(i, j) x^i y^j
    of the product has degree 2r+1, and a_(i, j) is a LaurentPoly times
    rho0^p.  The substitution multiplies that term by (-1)^(j+p), so the
    product yields the signed entries c_j^{[r,p]} = (-1)^(j+p) a_(i, j) of
    the table directly: it starts from x + y, and each factor is
    x^2 + beta_s xy + y^2 + [s]^2_{q^2}."""
    factors = [_genfun_factor(-beta, 0, -square)
               for beta, square in map(_reduced_step, range(1, r_max + 1))]
    return running_product({(1, 0): 1, (0, 1): 1}, factors)


def reduced_genfun_coeffs(r: int) -> CoeffTable:
    """Fill the c-table from the reduced generating polynomial (rho0 formal)."""
    return coeff_table(r, "genfun")


def _reduced_table(r: int, expansion) -> CoeffTable:
    """The c-table at this r from ``expansion``, the function that
    ``_reduced_expansions`` yields for r: it unpacks the signed expansion
    {(i, j): LaurentPoly}, rho0 implicit."""
    entries = {}
    for (i, j), value in expansion().items():
        rem = 2 * r + 1 - i - j
        if rem < 0 or rem % 2:
            raise AssertionError(f"stray monomial x^{i} y^{j} in the expansion")
        entries[(rem // 2, j)] = value
    for p in range(r + 1):
        for j in range(2 * (r - p) + 2):
            entries.setdefault((p, j), LaurentPoly.zero())
    return CoeffTable(r=r, route="genfun", entries=entries).check()


# ---------------------------------------------------------------------------
# Route: closed-form double sum
# ---------------------------------------------------------------------------


def _family_factor(s: int) -> dict:
    """1 + u [s]^2_{q^2} + v beta_s, the closed route's factor for one s."""
    beta, square = _reduced_step(s)
    return {(0, 0): 1, (1, 0): square, (0, 1): beta}


def closedform_table(r: int, literal: bool = False) -> CoeffTable:
    return coeff_table(r, "closed-literal" if literal else "closed")


def _closed_table(r: int, literal: bool, sums) -> CoeffTable:
    """The closed-form table at this r.  ``sums`` unpacks the u^p v^k
    coefficients of prod_{s<=r} (1 + u [s]^2_{q^2} + v beta_s), the sums over
    disjoint families of p squared q^2-integers and k beta factors, and entry
    j <= r-p sums them over k, weighted by C(r-p-k, floor((j-k)/2)) -- or by
    the printed C(r-p, floor((j-k)/2)) when literal=True."""
    sums = sums()
    entries = {}
    for p in range(r + 1):
        for j in range(r - p + 1):
            # one accumulation over k of the weighted sums
            total = {}
            for k in range(j + 1):
                weight = comb((r - p) if literal else (r - p - k), (j - k) // 2)
                if weight:
                    for e, c in sums[(p, k)].terms.items():
                        total[e] = total.get(e, 0) + weight * c
            entries[(p, j)] = LaurentPoly(total)
        width = 2 * (r - p) + 1
        for j in range(r - p + 1, width + 1):
            entries[(p, j)] = entries[(p, width - j)]
    # symmetry is imposed by the mirror fill for both weights; the literal
    # weight diverges from the other routes, which the cross-check reports
    return CoeffTable(r=r, route="closed-literal" if literal else "closed",
                      entries=entries).check()


# ---------------------------------------------------------------------------
# Route: inductive recursion through the M/N/eta tables
# ---------------------------------------------------------------------------


def _recursion_arrays(table: CoeffTable, ring: PackedRing) -> tuple:
    """The level-r entries c and the arrays M^{(r,p)}_j and N^{(r,p)}_j, the
    coefficients of the once- and twice-left-multiplied relation after
    re-reduction, as three ``{(p, j): Packed}`` dicts on ``ring`` (stride 2).

    Each array is one formula over exactly the index range its expansion
    supports, and reads the level-r entries as zero outside the triangle:
    the boundary entries (j = 0, the last one or two j of a row, the row
    p = r + 1 of N) are the general formula with the missing entries
    dropped, and the row p = 1 of N is the general formula at
    c_0^{[r,0]} = 1 (its j = 0 entry vanishes).  ``_advance`` reads all
    three as zero outside, as it reads eta off its grid, so its column
    families need no boundary cases either.  No entry needs a proved width
    here, since a ``Packed`` value is exact at any width: ``_advance``
    unpacks only N(0, 3) and M(0, 2), through ``PackedRing.unpack``, and
    checks the bounds of its family sums before it unpacks any.
    """
    r = table.r
    c = {key: ring.pack(value) for key, value in table.entries.items()}
    zero = ring.zero

    def at(p, j):
        return c.get((p, j), zero)

    c1 = c[(0, 1)]
    c11_2 = ring.pack(table.entry(0, 1) ** 2 - table.entry(0, 2))
    m = {(p, j): at(p, j) - c1 * at(p, j - 1)
         for p in range(r + 1)
         for j in range(2 if p == 0 else 0, 2 * (r - p) + 3)}
    n = {(p, j): c11_2 * at(p, j - 2) - c1 * at(p, j - 1) + at(p, j) - at(1, 0) * at(p - 1, j)
         for p in range(r + 2)
         for j in range(3 if p == 0 else 0, 2 * (r - p) + 4)}
    return c, m, n


def seed_table() -> CoeffTable:
    """r = 1: the defining relation itself."""
    one = LaurentPoly.one()
    entries = {(0, j): qbinomial(3, j) for j in range(4)}
    entries[(1, 0)] = one
    entries[(1, 1)] = one
    return CoeffTable(r=1, route="recursion", entries=entries).check()


def _first_width(table: CoeffTable) -> int:
    """The width a step from ``table`` tries first, from 2^9 times its largest
    entry 1-norm: through r = 20 every bound of a step stays below that."""
    return _width(max(sum(map(abs, value.terms.values())) for value in table.entries.values()) << 9)


def advance_table(table: CoeffTable) -> CoeffTable:
    """One inductive step r -> r+1.

    The p = 0 row is the q-binomial row; its first two entries are also
    re-derived from the vanishing conditions (with exact divisions) as a
    consistency check.  Every remaining entry follows from the read-off
    formulas of the inductive combination; the palindromic symmetry of the
    result is asserted, which cross-validates the overlapping families.

    The step runs on ``Packed`` values of one ``PackedRing`` of stride 2,
    first at ``_first_width``; a value that the ring cannot prove before it
    is packed or unpacked reruns the whole step at the width that proves it
    (``WidthTooNarrow``).
    """
    width = _first_width(table)
    while True:
        try:
            entries = _advance(table, PackedRing(width, 2))
        except WidthTooNarrow as exc:
            width = exc.width
        else:
            return CoeffTable(r=table.r + 1, route="recursion", entries=entries).check()


def _advance(table: CoeffTable, ring: PackedRing) -> dict:
    """The entries of the level-(r+1) table (``advance_table``) on ``ring``.

    Every row p >= 1 comes from two column families, the odd columns
    j = 2k + 3 and the even columns j = 2k + 2 of row p = jj - k, each one
    formula over jj = 0..r and k = -1..jj-1.  The level-r entries, M and N
    read as zero outside their tables (``_recursion_arrays``) and
    eta^{(m)}_{k,2} as zero off its grid (``EtaTable.get``), so the
    columns j = 0..5 are the k = -1, 0 and 1 passes and the row p = r + 1
    is the k = -1 pass.  The even family's entry (1, 0) re-derives the
    order-rho0 condition and is checked against it.
    """
    r = table.r
    cs, ms, ns = _recursion_arrays(table, ring)
    new: dict = {}

    # leading entries from the two lowest-order vanishing conditions
    n03 = ring.unpack(ns[(0, 3)])
    c1_new = -(n03 * ETA.value(3, 1, 0)).divexact(ring.unpack(ms[(0, 2)]))
    c2_new = -(n03 * ETA.value(3, 1, 1)).divexact(table.entry(0, 1))
    if c1_new != qbinomial(2 * r + 3, 1) or c2_new != qbinomial(2 * r + 3, 2):
        raise AssertionError("vanishing conditions disagree with the q-binomial row")
    for j in range(2 * r + 4):
        new[(0, j)] = qbinomial(2 * r + 3, j)

    # order-rho0 condition on A^{2r} A*^r A A*
    c01 = (table.entry(0, 1) ** 2 - 2 * table.entry(0, 2)
           + (table.entry(0, 3) - table.entry(1, 1)).divexact(table.entry(0, 1))
           + 2 * table.entry(1, 0))
    new[(1, 0)] = c01

    # the formulas below run over the packed level-r entries, M, N, new
    # leading entries and eta values, each packed once; sums holds each
    # result, and all of them are unpacked at the end
    c1_new, c2_new, c01 = ring.pack(c1_new), ring.pack(c2_new), ring.pack(c01)
    zero = ring.zero
    etas, sums = {}, {}

    def c(p, j):
        return cs.get((p, j), zero)

    def m(p, j):
        return ms.get((p, j), zero)

    def n(p, j):
        return ns.get((p, j), zero)

    def eta2(m, k):
        value = etas.get((m, k))
        if value is None:
            value = etas[(m, k)] = ring.pack(ETA.get(m, k, 2))
        return value

    # the odd columns j = 2k + 3 and the even columns j = 2k + 2 of row
    # p = jj - k; eta^{(m)}_{k,2} is first in each product, so a zero eta
    # skips the big product.  The c01 terms share their level-r entry with
    # the c2_new terms, and they run to i = jj - k too, where their eta is
    # off the grid.  (The odd family's N terms run over odd-index N
    # entries; the printed general form shifts them to even indices, which
    # the oracle refutes.)
    for jj in range(r + 1):
        for k in range(-1, jj):
            odd = even = zero
            for i in range(jj - k + 1):
                sgn = _sgn(i + jj + k)
                h = 2 * (jj - i)
                odd = odd + sgn * (
                    eta2(h + 3, k + 1) * n(i, h + 3)
                    + eta2(h + 2, k) * c1_new * m(i, h + 2)
                    + (eta2(h + 1, k) * c2_new - eta2(h + 1, k + 1) * c01) * c(i, h + 1))
                even = even + sgn * (
                    eta2(h + 2, k) * n(i, h + 2)
                    + eta2(h + 1, k) * c1_new * m(i, h + 1)
                    + (eta2(h, k - 1) * c2_new - eta2(h, k) * c01) * c(i, h))
            sums[(jj - k, 2 * k + 3)] = odd
            sums[(jj - k, 2 * k + 2)] = even

    # every bound is known before any entry is unpacked
    ring.check(max(value.sup for value in sums.values()))
    for (p, j), value in sums.items():
        value = ring.unpack(value)
        old = new.get((p, j))
        if old is not None and old != value:
            raise AssertionError(
                f"recursion inconsistency at r={r + 1} (p={p}, j={j})")
        new[(p, j)] = value
    return new


def recursion_coeffs(r_max: int) -> list[CoeffTable]:
    """Tables for r = 1..r_max by induction from the defining relation."""
    if r_max < 1:
        raise ValueError("need r_max >= 1")
    return list(coeff_tables(r_max, "recursion"))


def _recursion_tables(r_max: int):
    """Yield the recursion route's table for r = 1..r_max, one step each."""
    table = None
    for r in range(1, r_max + 1):
        table = seed_table() if r == 1 else advance_table(table)
        yield table


def _steps(r_max: int, route: str):
    """One function per r = 1..r_max, in order, that returns the route's
    table at r; an unknown route raises ``ValueError`` at once.

    The genfun and closed routes multiply one running product by one factor
    per r as the iterator moves, and a function unpacks only its own step.
    The recursion route advances one table per r as the iterator moves; the
    Lusztig route builds each table on its own.
    """
    if route == "genfun":
        return (partial(_reduced_table, r, expansion)
                for r, expansion in enumerate(_reduced_expansions(r_max), 1))
    if route in ("closed", "closed-literal"):
        factors = [_family_factor(s) for s in range(1, r_max + 1)]
        return (partial(_closed_table, r, route == "closed-literal", sums)
                for r, sums in enumerate(running_product({(0, 0): 1}, factors), 1))
    if route == "recursion":
        # the iterator advances the table, and its function hands it over
        return ((lambda table=table: table) for table in _recursion_tables(r_max))
    if route == "lusztig":
        return (partial(lusztig_coeffs, r) for r in range(1, r_max + 1))
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def coeff_tables(r_max: int, route: str = "genfun"):
    """The tables for r = 1..r_max of one route, in order, as an iterator
    that keeps only the current product or table; r_max < 1 yields nothing."""
    return (step() for step in _steps(r_max, route))


def coeff_table(r: int, route: str = "genfun") -> CoeffTable:
    """The table at r of one route: only the last step builds a table."""
    if r < 1:
        raise ValueError("need r >= 1")
    for step in _steps(r, route):
        pass  # build only the last table
    return step()


# ---------------------------------------------------------------------------
# q-binomial theorem
# ---------------------------------------------------------------------------


def qbinom_product_coeffs(r: int) -> list[LaurentPoly]:
    """Coefficients of prod_{m=0}^{2r} (1 - q^{2m} u) as a polynomial in u."""
    factors = [{(0,): 1, (1,): LaurentPoly.q_power(2 * m, -1)} for m in range(2 * r + 1)]
    for prod in running_product({(0,): 1}, factors):
        pass  # unpack only the whole product
    prod = prod()
    return [prod.get((d,), LaurentPoly.zero()) for d in range(2 * r + 2)]


def qbinom_theorem_coeffs(r: int) -> list[LaurentPoly]:
    """The claimed expansion: [2r+1 choose j]_q (-1)^j q^{2jr} for j = 0..2r+1."""
    return [_sgn(j) * LaurentPoly.q_power(2 * j * r) * qbinomial(2 * r + 1, j)
            for j in range(2 * r + 2)]


def qbinomial_theorem_check(r: int) -> bool:
    if r < 1:
        raise ValueError("need r >= 1")
    return qbinom_product_coeffs(r) == qbinom_theorem_coeffs(r)
