"""Command-line front end.

Subcommands: ``coeffs`` (coefficient tables to JSON/CSV/LaTeX), ``verify``
(reduce the relations to normal form), ``matrix-check`` (exact matrix
realization gate plus relation evaluations), ``reduce`` (normal form of an
input expression).

The negative control is a route, not a flag: ``verify --route
closed-literal`` exits 1 from r = 3 on.

Exit codes: 0 success, 1 relation failure, 2 usage (also an ``--out`` that
cannot be opened, which is opened before any work, or output that cannot be
written), 3 internal integrity (e.g. a non-exact division in the recursion
route), 4 matrix gate failure, 141 when the reader of stdout leaves early.

Data outputs are byte-deterministic for fixed inputs; verification reports
carry wall-clock timings by design.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction

from .exactring import ExactDivisionError, LaurentPoly, signed_join
from .freealg import parse_expression
from .qnumbers import qbinomial
from .coefficients import ROUTES, CoeffTable, coeff_table, coeff_tables
from .rewrite import normal_form, trace_reduction
from .verify import build_relation_lhs, verify_relation
from .matrixrep import CoidealParams, check_qdg, coideal_generators, eval_ncpoly

EXIT_OK = 0
EXIT_RELATION = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_GATE = 4

# The largest r that coeffs --r, verify --r-max and matrix-check --r accept.
# The q-Pascal rows then stop at n = 2r + 3 = 43.  Past the cap, on a 2-vCPU
# Intel Xeon host, the r = 30 genfun table takes 24 s and 187 MiB, and its
# LaTeX export, written entry by entry, peaks at 222 MiB (332 MiB built as one
# string).  An older build took 202 s and 1.28 GiB for r = 40 with the
# term-by-term Laurent product.
MAX_R = 20
# The largest matrix-check --sites.  Each site doubles the dimension and costs about
# 6x the time: in process on the same host --sites 4 / 5 / 6 --r 1 take 0.02 / 0.09 /
# 0.55 s, and --sites 5 --r 5 0.4 s.
MAX_SITES = 5


class UsageError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _int_in(low: int, cap: int, name: str):
    """An argparse type: an int from ``low`` to ``cap``."""
    def value(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n > cap:
            raise argparse.ArgumentTypeError(f"{name} above {cap} is not supported")
        if n < low:
            raise argparse.ArgumentTypeError(f"{name} below {low} is not supported")
        return n
    return value


_r_value = _int_in(1, MAX_R, "r")


def _fraction_list(text: str):
    return tuple(_fraction(part) for part in text.split(","))


def _open_output(path):
    """The stream a subcommand writes to: the file ``--out`` names, or stdout."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write_line(out, line: str) -> None:
    """One report line, flushed, so a long run shows each r as it finishes."""
    out.write(line + "\n")
    out.flush()


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def _json_chunks(table: CoeffTable):
    """The JSON document of ``table`` one entry at a time: the bytes of
    ``json.dumps({"r": .., "route": .., "entries": [..]}, sort_keys=True)``,
    whose sorted top-level keys put the entries first."""
    yield '{"entries":['
    for n, ((p, j), value) in enumerate(table.items_sorted()):
        laurent = {str(e): str(value.terms[e]) for e in sorted(value.terms, reverse=True)}
        entry = {"p": p, "j": j, "laurent": laurent}
        yield ("," if n else "") + json.dumps(entry, sort_keys=True, separators=(",", ":"))
    yield f'],"r":{table.r},"route":{json.dumps(table.route)}}}\n'


def _csv_chunks(table: CoeffTable):
    yield "r,p,j,laurent\n"
    for (p, j), value in table.items_sorted():
        yield f"{table.r},{p},{j},{value.to_string()}\n"


def _laurent_to_latex(value: LaurentPoly) -> str:
    pieces = []
    for e in sorted(value.terms, reverse=True):
        c = value.terms[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qp = "q" if e == 1 else f"q^{{{e}}}"
            body = qp if mag == 1 else f"{mag}{qp}"
        pieces.append((c < 0, body))
    return signed_join(pieces)


def _shape(value: LaurentPoly) -> tuple:
    """A nonzero LaurentPoly's greatest exponent and term count: a key that
    is cheap to compute, unlike the hash of all its terms."""
    return max(value.terms), len(value.terms)


def _qbinom_index(r: int) -> dict:
    """The [n choose k]_q for n <= 2r+2, k <= n/2, as {shape: [(value, (n, k))]}
    in order of n and k (``_shape``)."""
    index = {}
    for n in range(2 * r + 3):
        for k in range(n // 2 + 1):
            value = qbinomial(n, k)
            index.setdefault(_shape(value), []).append((value, (n, k)))
    return index


def _latex_chunks(table: CoeffTable):
    """Rows p, j with the coefficient; entries equal to a Gaussian binomial
    print as \\qbinom{n}{k}, everything else as a raw Laurent polynomial."""
    index = _qbinom_index(table.r)
    one = LaurentPoly.one()
    yield (f"% coefficient table r={table.r}, route={table.route}\n"
           "% \\newcommand{\\qbinom}[2]{\\left[\\begin{smallmatrix}#1\\\\#2\\end{smallmatrix}\\right]_q}\n"
           "\\begin{tabular}{rrl}\n"
           "\\hline\n"
           f"$p$ & $j$ & $c_j^{{[{table.r},p]}}$ \\\\\n"
           "\\hline\n")
    for (p, j), value in table.items_sorted():
        if value.is_zero():
            cell = "0"
        elif value == one:
            cell = "1"
        else:
            # the first equal q-binomial, else the raw polynomial
            cell = next((f"\\qbinom{{{n}}}{{{k}}}" for binom, (n, k) in index.get(_shape(value), ())
                         if binom == value), None) or _laurent_to_latex(value)
        yield f"{p} & {j} & ${cell}$ \\\\\n"
    yield "\\hline\n\\end{tabular}\n"


# Each export is written one entry at a time (``coeffs``); table_to_* join the
# same chunks for library callers.
_CHUNKS = {"json": _json_chunks, "csv": _csv_chunks, "latex": _latex_chunks}


def table_to_json(table: CoeffTable) -> str:
    return "".join(_json_chunks(table))


def table_to_csv(table: CoeffTable) -> str:
    return "".join(_csv_chunks(table))


def table_to_latex(table: CoeffTable) -> str:
    return "".join(_latex_chunks(table))


def cmd_coeffs(args, out) -> int:
    out.writelines(_CHUNKS[args.format](coeff_table(args.r, args.route)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args, out) -> int:
    families = (1, 2) if args.family == "both" else (int(args.family),)
    all_zero = True
    for table in coeff_tables(args.r_max, args.route):
        first = verify_relation(table.r, table=table)
        for family in families:
            report = first if family == 1 else first.family_two()
            doc = report.to_json_dict()
            if not report.ok():
                all_zero = False
                doc["residual"] = report.residual.to_string()
            _write_line(out, json.dumps(doc, sort_keys=True))
    return EXIT_OK if all_zero else EXIT_RELATION


# ---------------------------------------------------------------------------
# matrix-check
# ---------------------------------------------------------------------------


def cmd_matrix_check(args, out) -> int:
    v = args.v if args.v is not None else tuple(Fraction(i) for i in range(1, args.sites + 1))
    if len(v) != args.sites:
        raise UsageError(f"--v needs exactly {args.sites} spectral parameters")
    params = CoidealParams(t=args.t, v=v, c0=args.c0, c1=args.c1,
                           cbar0=args.cbar0, cbar1=args.cbar1,
                           eps0=args.eps0, eps1=args.eps1)
    real = coideal_generators(params)
    rho0 = params.rho0 if args.rho0 is None else args.rho0
    rho1 = params.rho1 if args.rho1 is None else args.rho1
    _write_line(out, json.dumps({
        "sites": args.sites, "dim": real.dim, "q": str(real.q),
        "rho0": str(rho0), "rho1": str(rho1)}, sort_keys=True))
    if not check_qdg(real.A, real.Astar, rho0, rho1, real.q):
        _write_line(out, json.dumps({"gate": "failed"}, sort_keys=True))
        return EXIT_GATE
    _write_line(out, json.dumps({"gate": "passed"}, sort_keys=True))
    all_zero = True
    for table in coeff_tables(args.r, args.route):
        r = table.r
        for family in (1, 2):
            lhs = build_relation_lhs(table, family=family)
            image = eval_ncpoly(lhs, real.A, real.Astar, real.q, rho0, rho1)
            zero = image.is_zero()
            all_zero = all_zero and zero
            _write_line(out, json.dumps(
                {"r": r, "family": family, "zero_matrix": zero}, sort_keys=True))
    return EXIT_OK if all_zero else EXIT_RELATION


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def cmd_reduce(args, out) -> int:
    expr = parse_expression(args.expression)
    if args.trace:
        trace = trace_reduction(expr)
        out.writelines(line + "\n" for line in trace.lines())
        out.write(trace.final.to_string() + "\n")
    else:
        out.write(normal_form(expr).to_string() + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qonsager",
        description="Exact coefficient tables and verification of the "
                    "higher-order relations of the q-Onsager algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="emit a coefficient table")
    p_coeffs.add_argument("--r", type=_r_value, required=True)
    p_coeffs.add_argument("--route", choices=ROUTES, default="genfun")
    p_coeffs.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p_coeffs.add_argument("--out", default=None, metavar="PATH")
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_verify = sub.add_parser("verify", help="reduce the relations to normal form")
    p_verify.add_argument("--r-max", type=_r_value, required=True, dest="r_max")
    p_verify.add_argument("--route", choices=ROUTES, default="genfun")
    p_verify.add_argument("--family", choices=("1", "2", "both"), default="1")
    p_verify.add_argument("--out", default=None, metavar="PATH")
    p_verify.set_defaults(func=cmd_verify)

    p_matrix = sub.add_parser("matrix-check", help="exact matrix realization checks")
    p_matrix.add_argument("--sites", type=_int_in(1, MAX_SITES, "sites"), default=1)
    p_matrix.add_argument("--t", type=_fraction, default=Fraction(3, 2))
    p_matrix.add_argument("--v", type=_fraction_list, default=None,
                          help="comma-separated spectral parameters, one per site")
    p_matrix.add_argument("--r", type=_r_value, default=2)
    p_matrix.add_argument("--route", choices=ROUTES, default="genfun")
    for name, default in (("c0", "1"), ("c1", "1"), ("cbar0", "1"),
                          ("cbar1", "1"), ("eps0", "0"), ("eps1", "0")):
        p_matrix.add_argument(f"--{name}", type=_fraction, default=Fraction(default))
    p_matrix.add_argument("--rho0", type=_fraction, default=None,
                          help="override the c0*cbar0*(q+1/q)^2 identification")
    p_matrix.add_argument("--rho1", type=_fraction, default=None)
    p_matrix.add_argument("--out", default=None, metavar="PATH")
    # A rational value may start with a minus sign (--t -3/2, --v -1,2);
    # argparse reads only integers and decimals there as values, everything
    # else that starts with "-" as an option.
    p_matrix._negative_number_matcher = re.compile(r"^-\.?\d")
    p_matrix.set_defaults(func=cmd_matrix_check)

    p_reduce = sub.add_parser("reduce", help="normal form of an expression")
    p_reduce.add_argument("expression")
    p_reduce.add_argument("--trace", action="store_true")
    p_reduce.add_argument("--out", default=None, metavar="PATH")
    # An expression may start with a minus sign (-A, -2A, -rho0*A); read
    # "-" followed by anything but "-" as a value unless it is an option
    # (-h).  Set after the options, so that -h does not count as a negative
    # number option.
    p_reduce._negative_number_matcher = re.compile(r"^-[^-]")
    p_reduce.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # opened before any work, so an unwritable --out costs nothing
        output = _open_output(args.out)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with output as out:
            try:
                return args.func(args, out)
            except (ExactDivisionError, AssertionError) as exc:
                print(f"integrity error: {exc}", file=sys.stderr)
                return EXIT_INTEGRITY
            except ValueError as exc:  # UsageError and ParseError too
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
    except BrokenPipeError:
        # the reader left early (`| head`): stop quietly with the status
        # SIGPIPE would give (128 + 13), and send the final flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # a write, flush or close failed, as on a full disk
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
