"""One repetition of one workload, in a fresh single-threaded process.

Started by run.py; prints one JSON object on stdout.  Set-up (interpreter
start, import, input generation) is measured from the parent's spawn time
on the system-wide monotonic clock; the timed region runs from the first
call into the package to the last verdict.  The oracle runs after it.

Both times are reported raw and in reference seconds (speed.py): set-up
scaled by the kernel speed sampled right after it, the timed region by the
speed sampled from a timer while it runs.  Every interval after set-up,
and every span of a traced repetition, is measured on a clock that leaves
out the samples' own time; a traced repetition's per-layer times are in
reference seconds too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

MODULES = ("exactring", "qnumbers", "freealg", "rewrite", "coefficients", "verify",
           "matrixrep", "cli")


def import_package():
    """Import qonsager from ./src of the current directory, and nowhere else."""
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, src)
    pkg = types.SimpleNamespace(qonsager=importlib.import_module("qonsager"))
    if not os.path.realpath(pkg.qonsager.__file__).startswith(src + os.sep):
        raise ImportError(f"qonsager imported from {pkg.qonsager.__file__}, not {src}")
    for name in MODULES:
        setattr(pkg, name, importlib.import_module("qonsager." + name))
    return pkg


def warm_memo(pkg, ns, tr):
    """Build the A^n A* memo through normal_form for each n, untraced; the
    outputs are the memo's contents."""
    start = tr.clock()
    outputs = [pkg.rewrite.normal_form(pkg.freealg.parse_expression(f"A^{n} A*"))
               for n in ns]
    elapsed = (tr.clock() - start) / 1e9
    for nf in outputs:
        tracing.note_coeffs(tr, (p for c in nf.terms.values() for p in c.terms.values()))
    return {"rewrite.memo_build_s": elapsed, "rewrite.memo_entries": len(ns),
            "rewrite.memo_words": sum(nf.term_count() for nf in outputs)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--warm", default="", help="comma-separated n for the memo warm-up")
    ap.add_argument("--first", action="store_true", help="also check reference digests")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pkg = import_package()
    size = SIZES[args.size]
    wl = WORKLOADS[args.workload]
    inp = wl.inputs(args.seed, size)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    calibration = speed.calibrate()
    setup_ref_s = setup_s * speed.relative_speed(calibration)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    result = {}
    sampler = speed.SpeedSampler()
    tr = None
    with sampler:
        if args.trace:
            tr = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}",
                                clock=sampler.clock_ns)
            if args.warm:
                result["layers"] = warm_memo(pkg, [int(n) for n in args.warm.split(",")], tr)
            tracing.install(tr, pkg)
            t0 = sampler.clock_ns()
            with tr.phase("bench.workload"):
                out = wl.run(pkg, inp)
        else:
            t0 = sampler.clock_ns()
            out = wl.run(pkg, inp)
        wall_s = (sampler.clock_ns() - t0) / 1e9
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rel_speed = speed.relative_speed(sampler.samples or calibration)
    # the n of every A^n A* the memo had to build, for the traced warm-up
    memo_n = sorted(getattr(pkg.rewrite, "_POW_NF", {}))

    if tr is not None:
        layers = result.setdefault("layers", {})
        layers.update(tracing.layer_metrics(tr, SIZES["full"]["verify_r"]))
        units = tracing.metric_units(SIZES["full"]["verify_r"])
        for name, value in layers.items():
            if units.get(name) == "s":
                layers[name] = value * rel_speed
        result["spans"] = tr.spans()
        tr.uninstall()

    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh).get(args.size, {})
    checks = wl.check(pkg, inp, out, golden, args.first)
    failures = [label for label, ok in checks if not ok]
    result.update({
        "setup_s": setup_s, "setup_ref_s": setup_ref_s, "wall_s": wall_s,
        "wall_ref_s": wall_s * rel_speed, "speed": rel_speed,
        "speed_samples": len(sampler.samples), "peak_rss_mib": rss_mib,
        "attempted": len(checks), "failed": len(failures), "failures": failures,
        "memo_n": memo_n,
    })
    if hasattr(wl, "digests"):
        result["digests"] = wl.digests(out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
