"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py     (from the repository root)

Runs every workload in both modes, checks the result line against
BENCHMARK.json, shows that a wrong verdict counts as an error, that the
speed sampler's own time stays out of measured intervals, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in line["metrics"].items()}


def _tiny(name, seed=7):
    pkg = worker.import_package()
    wl = WORKLOADS[name]
    inp = wl.inputs(seed, SIZES["tiny"])
    with open(worker.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["tiny"]
    return pkg, wl, inp, wl.run(pkg, inp), golden


def _corrupt(name, pkg, out):
    if name == "verify":
        out["control"] = out["reports"][0]          # a zero residual as the control
    elif name == "coeffs":
        out["export"]["csv"] += " "                 # one byte off
    elif name == "matrix":
        out["perturbed"] = True                     # the perturbed gate "passes"
    else:
        out["nfs"][0] = out["nfs"][0] + pkg.freealg.ASTAR  # a wrong normal form


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_verdict_counts_as_error(name):
    pkg, wl, inp, out, golden = _tiny(name)
    assert all(ok for _, ok in wl.check(pkg, inp, out, golden, True))
    _corrupt(name, pkg, out)
    failed = [label for label, ok in wl.check(pkg, inp, out, golden, True) if not ok]
    assert failed, "the corrupted verdict went unnoticed"
    sample = {"wall_ref_s": 1.0, "setup_ref_s": 0.1, "peak_rss_mib": 20.0,
              "attempted": 10, "failed": len(failed)}
    result = run.summarize([sample], [], [0.1])
    assert result["correct"] is False and result["failed"] == len(failed)


def test_speed_samples_stay_out_of_the_clock():
    assert speed.relative_speed([speed.KERNEL_REF_S, speed.KERNEL_REF_S / 2]) == 1.5
    sampler = speed.SpeedSampler(interval_s=0.01)
    with sampler:
        t0, c0 = time.perf_counter_ns(), sampler.clock_ns()
        while time.perf_counter_ns() - t0 < 200_000_000:
            pass
        elapsed, clocked = time.perf_counter_ns() - t0, sampler.clock_ns() - c0
    assert len(sampler.samples) >= 5 and sampler.overhead_ns > 0
    assert abs(elapsed - clocked - sampler.overhead_ns) < 1_000_000


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "verify", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
