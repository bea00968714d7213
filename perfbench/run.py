"""The qonsager benchmark.

    python3 perfbench/run.py --workload {verify,coeffs,matrix,reduce} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root.  Each repetition is a fresh single-threaded
Python process (perfbench/worker.py), so the package's process-global
caches start cold as they do for every command-line user; repetitions run
one after another, at least two untraced, and no new one starts that would
end past S seconds.  Every verdict is checked against an independently
known answer.

--trace 0 reports the end-to-end metrics (medians over repetitions):
    wall_ref_s   first call into the package to the last verdict
    setup_s      interpreter start, import and input generation
    peak_rss_mb  peak resident memory of the worker (MiB)
Both times are in reference seconds: seconds scaled by the machine's speed
on a fixed kernel, sampled while the work runs (perfbench/speed.py), so
that runs on a host whose speed drifts stay comparable.  The raw seconds
are in the run record.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (times in reference seconds too),
plus the tracing overhead.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the full record (per-repetition samples, spans, seed, commit,
Python version, nproc) goes to perfbench/out/.  Exits 1 if any verdict is
wrong, 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import metric_units  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
MIN_REPS = 2              # untraced repetitions per run at least
SETUP_PROBES = 8          # extra set-up-only processes per run, for a steady setup_s
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def spawn(args, trace=0, **flags):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(trace)]
    for key, value in flags.items():
        if value is True:
            cmd.append("--" + key.replace("_", "-"))
        elif value:
            cmd += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def git_commit():
    """HEAD of the repository in the current directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(args):
    """Run repetitions for args.seconds; returns (untraced, traced, setup probes).

    A repetition (a pair when traced) starts only if one as long as the last
    would end within the time, so that a run lasts about args.seconds.
    """
    untraced, traced = [], []
    min_reps = 1 if args.trace else MIN_REPS
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        rep = spawn(args, first=not untraced)
        untraced.append(rep)
        if args.trace:
            traced.append(spawn(args, trace=1, warm=",".join(map(str, rep["memo_n"]))))
        now = time.monotonic()
        if len(untraced) >= min_reps and now - start + (now - rep_start) > args.seconds:
            break
    probes = [spawn(args, setup_only=True)["setup_ref_s"] for _ in range(SETUP_PROBES)]
    return untraced, traced, probes


def summarize(untraced, traced, probes):
    """The result line's metrics and verdict counts."""
    med = statistics.median
    workers = untraced + traced
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if not traced:
        values = {"wall_ref_s": med(w["wall_ref_s"] for w in untraced),
                  "setup_s": med([w["setup_ref_s"] for w in untraced] + probes),
                  "peak_rss_mb": med(w["peak_rss_mib"] for w in untraced)}
        units = END_TO_END_UNITS
    else:
        units = metric_units(SIZES["full"]["verify_r"])
        values = {name: med(w["layers"].get(name, 0) for w in traced) for name in units}
        untraced_wall = med(w["wall_ref_s"] for w in untraced)
        traced_wall = med(w["wall_ref_s"] + w["layers"].get("rewrite.memo_build_s", 0)
                          for w in traced)
        values.update({"trace.untraced_wall_s": untraced_wall,
                       "trace.traced_wall_s": traced_wall,
                       "trace.overhead_s": traced_wall - untraced_wall})
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        untraced, traced, probes = measure(args)
    except (BenchError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = summarize(untraced, traced, probes)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": git_commit(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "error_rate": result["failed"] / result["attempted"],
        **result,
        "setup_probes_s": probes, "untraced": untraced, "traced": traced,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                 f"-{args.size}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for w in untraced + traced:
        for label in w["failures"]:
            print(f"WRONG VERDICT: {label}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        raw = statistics.median(w["wall_s"] for w in untraced)
        rel = statistics.median(w["speed"] for w in untraced)
        print(f"{'raw wall_s':40s} {raw:.6g} s at relative speed {rel:.3g}")
    print(f"verdicts {result['attempted']}, wrong {result['failed']}, "
          f"error_rate {record['error_rate']:.6g}, record {os.path.relpath(path)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
