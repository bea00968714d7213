"""Assemble the degree-(3r+1) relations and certify them by reduction.

``build_relation_lhs`` turns a coefficient table into the free-algebra
element

    sum_{p=0}^{r} sum_{j=0}^{2(r-p)+1} (-1)^{j+p} rho0^p c_j^{[r,p]}
        A^{2(r-p)+1-j} (A*)^r A^j

(family 1); family 2 is its dagger image.  ``verify_relation`` reduces the
family-1 element to normal form: the relation holds iff the residual is
exactly zero.  Family 2 is certified through the automorphism -- dagger maps
the family-1 identity and the ideal of the installed rule onto the family-2
counterparts -- and the report records that, rather than re-reducing with a
rule the engine deliberately does not install.

A nonzero residual is scientific output (the falsification channel), so the
report carries it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

from .exactring import RingElement
from .freealg import GEN_A, GEN_ASTAR, NcPoly
from .coefficients import CoeffTable, coeff_table, coeff_tables
from .rewrite import normal_form_with_stats


def build_relation_lhs(table: CoeffTable, family: int = 1) -> NcPoly:
    """The relation left-hand side for the table's r; zero in the algebra iff
    the relation holds."""
    if family not in (1, 2):
        raise ValueError("family is 1 or 2")
    r = table.r
    terms = {}
    for p in range(r + 1):
        for j in range(2 * (r - p) + 2):
            c = table.entry(p, j)  # raises on an incomplete table
            if c.is_zero():
                continue
            sign = 1 if (j + p) % 2 == 0 else -1
            coeff = RingElement.rho0(p) * (sign * c)
            word = GEN_A * (2 * (r - p) + 1 - j) + GEN_ASTAR * r + GEN_A * j
            terms[word] = coeff
    lhs = NcPoly(terms)
    return lhs if family == 1 else lhs.dagger()


@dataclass
class VerificationReport:
    r: int
    family: int
    result: str  # "zero" | "nonzero"
    residual_term_count: int
    peak_term_count: int
    elapsed_s: float
    route: str
    certified_by: str = "reduction"  # family 2: "automorphism"
    residual: NcPoly | None = None

    def ok(self) -> bool:
        return self.result == "zero"

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "family": self.family,
            "result": self.result,
            "residual_term_count": self.residual_term_count,
            "peak_term_count": self.peak_term_count,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
            "route": self.route,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def family_two(self) -> "VerificationReport":
        """The family-2 report certified by this family-1 reduction through
        the automorphism: a nonzero residual transports through dagger."""
        return replace(self, family=2, certified_by="automorphism",
                       residual=None if self.residual is None else self.residual.dagger())


def verify_relation(r: int, route: str = "genfun",
                    table: CoeffTable | None = None) -> VerificationReport:
    """Reduce the family-1 relation for this r to normal form.

    ``table`` overrides the route (used by negative controls) and must be
    a table at this r; the report's ``family_two`` is the family-2 report,
    certified by the automorphism from the same reduction.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if table is None:
        table = coeff_table(r, route)
    elif table.r != r:
        raise ValueError(f"a table at r={table.r} does not state the relation at r={r}")
    else:
        route = table.route
    start = time.perf_counter()
    lhs = build_relation_lhs(table, family=1)
    residual, stats = normal_form_with_stats(lhs)
    elapsed = time.perf_counter() - start
    report = VerificationReport(
        r=r,
        family=1,
        result="zero" if residual.is_zero() else "nonzero",
        residual_term_count=residual.term_count(),
        peak_term_count=stats.peak_term_count,
        elapsed_s=elapsed,
        route=route,
        residual=None if residual.is_zero() else residual,
    )
    return report


@dataclass
class RouteMismatch:
    r: int
    p: int
    j: int
    route_a: str
    route_b: str
    value_a: str
    value_b: str


@dataclass
class CrossCheckReport:
    """Outcome of ``cross_check_routes``.  ``checked_entries`` counts the
    compared table pairs (one per route besides the first, per r), not the
    coefficient entries inside them: r_max = 10 gives 20."""

    r_max: int
    routes: tuple
    equal: bool
    first_mismatch: RouteMismatch | None = None
    checked_entries: int = 0

    def to_json_dict(self) -> dict:
        out = {
            "r_max": self.r_max,
            "routes": list(self.routes),
            "equal": self.equal,
            "checked_entries": self.checked_entries,
        }
        if self.first_mismatch is not None:
            m = self.first_mismatch
            out["first_mismatch"] = {
                "r": m.r, "p": m.p, "j": m.j,
                "routes": [m.route_a, m.route_b],
                "values": [m.value_a, m.value_b],
            }
        return out


def cross_check_routes(r_max: int, include_literal: bool = False) -> CrossCheckReport:
    """Entrywise comparison of the three coefficient routes for r = 1..r_max.

    A mismatch is report content, not an exception; with include_literal the
    uncorrected closed-form variant joins the comparison (and is expected
    to diverge first at (3, 0, 3))."""
    if r_max < 1:
        raise ValueError("need r_max >= 1")
    routes = ["genfun", "recursion", "closed"] + (["closed-literal"] if include_literal else [])
    checked = 0
    for reference, *others in zip(*(coeff_tables(r_max, route) for route in routes)):
        for route, table in zip(routes[1:], others):
            mm = reference.first_mismatch(table)
            checked += 1
            if mm is not None:
                p, j, va, vb = mm
                return CrossCheckReport(
                    r_max=r_max, routes=tuple(routes), equal=False,
                    first_mismatch=RouteMismatch(
                        r=reference.r, p=p, j=j, route_a=routes[0], route_b=route,
                        value_a=va.to_string(), value_b=vb.to_string()),
                    checked_entries=checked)
    return CrossCheckReport(r_max=r_max, routes=tuple(routes), equal=True,
                            checked_entries=checked)
