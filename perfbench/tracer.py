"""Span tracing around the calls into each qonsager layer.

The tracer replaces selected package functions and methods by timing
wrappers, from outside the package: every module global (and class
attribute) that refers to the original is rebound, so calls between
layers are seen as well as the benchmark's own calls.

Each wrapped call gets a span: name, start, end, parent span and run id.
Spans stay in memory and are returned by ``spans()`` at the end.  The
hot arithmetic methods (``leaf=True``) take part in the self-time
accounting and the call counts but keep no individual span record: at
about 10^5 calls per run their records would outweigh the workload.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

LAYERS = ("exactring", "qnumbers", "freealg", "rewrite", "coefficients",
          "verify", "matrixrep", "cli")


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock         # ns; the worker's clock leaves out speed samples
        self.records = []          # (id, name, parent id, start ns, end ns)
        self.stack = []            # [span id, child ns]
        self.next_id = 1
        self.calls = defaultdict(int)      # span name -> calls
        self.total_ns = defaultdict(int)   # span name -> inclusive ns
        self.self_ns = defaultdict(int)    # layer -> self ns
        self.layer_calls = defaultdict(int)
        self.counts = defaultdict(int)     # counter name -> value
        self.maxima = defaultdict(int)     # counter name -> largest value seen
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _enter(self):
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([span_id, 0])
        return span_id, self.clock()

    def _exit(self, name, layer, span_id, start, record):
        end = self.clock()
        _, child_ns = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        self.self_ns[layer] += dur - child_ns
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.layer_calls[layer] += 1
        if record:
            parent = self.stack[-1][0] if self.stack else 0
            self.records.append((span_id, name, parent, start, end))

    @contextlib.contextmanager
    def phase(self, name):
        """A root span around the benchmark's own code."""
        span_id, start = self._enter()
        try:
            yield
        finally:
            self._exit(name, "bench", span_id, start, True)

    def seconds(self, name) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def spans(self):
        return [{"id": i, "name": n, "parent": p, "start_ns": s, "end_ns": e,
                 "run": self.run_id} for (i, n, p, s, e) in self.records]

    # -- instrumentation -------------------------------------------------

    def wrap(self, modules, owner, attr, name, leaf=False, observe=None, call=None):
        """Replace ``owner.attr`` (and every module global bound to the same
        object) by a traced wrapper that runs ``call`` (default: the original).

        ``observe(tracer, result, args, kwargs)`` runs after the call, outside
        the span, to update counters from the call's inputs and result.
        """
        original = getattr(owner, attr)
        body = call or original
        layer = name.split(".", 1)[0]
        tracer = self
        record = not leaf

        def traced(*args, **kwargs):
            span_id, start = tracer._enter()
            try:
                result = body(*args, **kwargs)
            finally:
                tracer._exit(name, layer, span_id, start, record)
            if observe is not None:
                observe(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = original
        targets = [(owner, attr)]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        if isinstance(owner, type):
            targets += [(owner, key) for key, value in list(vars(owner).items())
                        if value is original and key != attr]
        for obj, key in targets:
            self._patches.append((obj, key, original))
            setattr(obj, key, traced)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# What is traced in qonsager, and the per-layer metrics derived from it
# ---------------------------------------------------------------------------


def _bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


def note_coeffs(tracer, polys):
    """Track the widest coefficient (terms, bits) among the given LaurentPolys."""
    for poly in polys:
        tracer.maxima["exactring.max_coeff_terms"] = max(
            tracer.maxima["exactring.max_coeff_terms"], len(poly.terms))
        tracer.maxima["exactring.max_coeff_bits"] = max(
            tracer.maxima["exactring.max_coeff_bits"], _bits(poly))


def _on_laurent_mul(tracer, result, args, kwargs):
    if result is NotImplemented:
        return
    a, b = args
    tracer.counts["exactring.laurent_mul_calls"] += 1
    tracer.counts["exactring.laurent_term_products"] += (
        len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))


def _on_ring_mul(tracer, result, args, kwargs):
    if result is not NotImplemented:
        tracer.counts["exactring.ring_mul_calls"] += 1


def _on_table(tracer, result, args, kwargs):
    tables = result if isinstance(result, list) else [result]
    for table in tables:
        note_coeffs(tracer, table.entries.values())


def _on_nf(tracer, result, args, kwargs):
    nf, stats = result if isinstance(result, tuple) else (result, None)
    tracer.counts["rewrite.nf_terms"] += nf.term_count()
    if stats is not None:
        tracer.counts["rewrite.replacements"] += stats.replacements
        tracer.maxima["rewrite.peak_live_terms"] = max(
            tracer.maxima["rewrite.peak_live_terms"], stats.peak_term_count)


def _on_relation(tracer, result, args, kwargs):
    key = ("verify.relation_s.r%d" % result.r if result.route == "genfun"
           else "verify.control_s")
    _, _, _, start, end = tracer.records[-1]  # this call's span
    tracer.counts[key] += end - start


def _on_lhs(tracer, result, args, kwargs):
    tracer.counts["verify.lhs_terms"] += result.term_count()


def _on_parse(tracer, result, args, kwargs):
    tracer.counts["freealg.input_terms"] += result.term_count()


def _on_export(tracer, result, args, kwargs):
    tracer.counts["cli.export_bytes"] += len(result.encode("utf-8"))


def _on_eval(tracer, result, args, kwargs):
    tracer.counts["matrixrep.eval_words"] += args[0].term_count()
    tracer.maxima["matrixrep.dim"] = max(tracer.maxima["matrixrep.dim"], result.n)


def _on_matmul(tracer, result, args, kwargs):
    if result is not NotImplemented:
        tracer.counts["matrixrep.matmul_calls"] += 1


def install(tracer: Tracer, pkg) -> None:
    """Wrap the public entry points of every layer (and the hot arithmetic)."""
    mods = [pkg.exactring, pkg.qnumbers, pkg.freealg, pkg.rewrite, pkg.coefficients,
            pkg.verify, pkg.matrixrep, pkg.cli, pkg.qonsager]
    er, qn, fa, rw, co = pkg.exactring, pkg.qnumbers, pkg.freealg, pkg.rewrite, pkg.coefficients
    vf, mr, cli = pkg.verify, pkg.matrixrep, pkg.cli
    w = tracer.wrap
    w(mods, er.LaurentPoly, "__mul__", "exactring.laurent_mul", leaf=True,
      observe=_on_laurent_mul)
    w(mods, er.RingElement, "__mul__", "exactring.ring_mul", leaf=True, observe=_on_ring_mul)
    w(mods, er.LaurentPoly, "divexact", "exactring.divexact", leaf=True)
    w(mods, qn, "qbinomial", "qnumbers.qbinomial")
    w(mods, qn, "beta_s", "qnumbers.beta_s", leaf=True)
    w(mods, fa, "parse_expression", "freealg.parse_expression", observe=_on_parse)
    with_stats = rw.normal_form_with_stats

    def normal_form(x):
        # same engine as normal_form, plus its replacement and live-term counts
        nf, stats = with_stats(x)
        _on_nf(tracer, (nf, stats), (x,), {})
        return nf

    w(mods, rw, "normal_form", "rewrite.normal_form", call=normal_form)
    w(mods, rw, "normal_form_with_stats", "rewrite.normal_form_with_stats", observe=_on_nf)
    w(mods, rw.EtaTable, "value", "rewrite.eta_value", leaf=True)
    for name in ("coeff_table", "reduced_genfun_coeffs", "closedform_table"):
        w(mods, co, name, "coefficients." + name, observe=_on_table)
    w(mods, co, "recursion_coeffs", "coefficients.recursion_coeffs", observe=_on_table)
    w(mods, co, "qbinomial_theorem_check", "coefficients.qbinomial_theorem_check")
    w(mods, vf, "verify_relation", "verify.verify_relation", observe=_on_relation)
    w(mods, vf, "build_relation_lhs", "verify.build_relation_lhs", observe=_on_lhs)
    w(mods, vf, "cross_check_routes", "verify.cross_check_routes")
    w(mods, mr, "coideal_generators", "matrixrep.coideal_generators")
    w(mods, mr, "check_qdg", "matrixrep.check_qdg")
    w(mods, mr, "eval_ncpoly", "matrixrep.eval_ncpoly", observe=_on_eval)
    w(mods, mr.ExactMatrix, "__mul__", "matrixrep.matmul", leaf=True, observe=_on_matmul)
    for name in ("table_to_json", "table_to_csv", "table_to_latex"):
        w(mods, cli, name, "cli." + name, observe=_on_export)


# metric name -> the span name(s) whose inclusive time it reports
_SPAN_SECONDS = {
    "qnumbers.qbinomial_s": "qnumbers.qbinomial",
    "freealg.parse_s": "freealg.parse_expression",
    "rewrite.normal_form_s": ("rewrite.normal_form", "rewrite.normal_form_with_stats"),
    "verify.build_lhs_s": "verify.build_relation_lhs",
    "coefficients.genfun_s": "coefficients.reduced_genfun_coeffs",
    "coefficients.closed_s": "coefficients.closedform_table",
    "coefficients.recursion_s": "coefficients.recursion_coeffs",
    "coefficients.cross_check_s": "verify.cross_check_routes",
    "coefficients.qbinomial_theorem_s": "coefficients.qbinomial_theorem_check",
    "cli.latex_s": "cli.table_to_latex",
    "matrixrep.generators_s": "matrixrep.coideal_generators",
    "matrixrep.gate_s": "matrixrep.check_qdg",
    "matrixrep.eval_s": "matrixrep.eval_ncpoly",
}
_COUNTS = ("exactring.laurent_mul_calls", "exactring.laurent_term_products",
           "exactring.ring_mul_calls", "rewrite.replacements", "rewrite.nf_terms",
           "verify.lhs_terms", "freealg.input_terms", "cli.export_bytes",
           "matrixrep.eval_words", "matrixrep.matmul_calls")
_MAXIMA = ("exactring.max_coeff_terms", "exactring.max_coeff_bits",
           "rewrite.peak_live_terms", "matrixrep.dim")


def metric_units(verify_r: int) -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in _SPAN_SECONDS}
    units.update({name: "count" for name in _COUNTS + _MAXIMA})
    units["qnumbers.qbinomial_calls"] = "count"
    units["exactring.max_coeff_bits"] = "bits"
    units["cli.export_bytes"] = "bytes"
    units.update({f"verify.relation_s.r{r}": "s" for r in range(1, verify_r + 1)})
    units["verify.control_s"] = "s"
    units.update({"rewrite.memo_build_s": "s", "rewrite.memo_entries": "count",
                  "rewrite.memo_words": "count"})
    for layer in LAYERS + ("bench",):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({"trace.overhead_s": "s", "trace.untraced_wall_s": "s",
                  "trace.traced_wall_s": "s", "trace.spans": "count"})
    return units


def layer_metrics(tracer: Tracer, verify_r: int) -> dict:
    """Per-layer numbers of one traced repetition (the trace.* entries and the
    memo figures are filled in by the caller)."""
    out = {}
    for metric, spans in _SPAN_SECONDS.items():
        spans = (spans,) if isinstance(spans, str) else spans
        out[metric] = sum(tracer.seconds(s) for s in spans)
    for name in _COUNTS:
        out[name] = tracer.counts.get(name, 0)
    for name in _MAXIMA:
        out[name] = tracer.maxima.get(name, 0)
    out["qnumbers.qbinomial_calls"] = tracer.calls.get("qnumbers.qbinomial", 0)
    for r in range(1, verify_r + 1):
        out[f"verify.relation_s.r{r}"] = tracer.counts.get(f"verify.relation_s.r{r}", 0) / 1e9
    out["verify.control_s"] = tracer.counts.get("verify.control_s", 0) / 1e9
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = tracer.self_ns.get(layer, 0) / 1e9
        out[f"{layer}.calls"] = tracer.layer_calls.get(layer, 0)
    out["trace.spans"] = len(tracer.records)
    return out
