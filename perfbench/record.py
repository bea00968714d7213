"""Fold the run records in perfbench/out/ into one point of the trajectory.

    python3 perfbench/record.py perfbench/trajectory/BENCH_<commit>.json

For every workload: median and quartiles over the untraced runs (one per
seed) of each end-to-end metric, and the median over the traced runs of
each per-layer metric, with the runs' seeds, commit, Python and nproc.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in sorted(glob.glob(os.path.join(HERE, "out", "*-full.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        print("no full-size run records in perfbench/out/", file=sys.stderr)
        return 2
    point = {key: records[0][key] for key in ("commit", "python", "nproc", "machine")}
    point["workloads"] = {}
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name]
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        entry = {"seeds": sorted(r["seed"] for r in plain),
                 "seconds": sorted({r["seconds"] for r in runs}),
                 "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)}
        if plain:
            entry["end_to_end"] = {
                metric: {**quartiles([r["metrics"][metric]["value"] for r in plain]),
                         "unit": m["unit"]}
                for metric, m in plain[0]["metrics"].items()}
        if traced:
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
            entry["per_layer"] = {
                metric: {"value": statistics.median(r["metrics"][metric]["value"]
                                                    for r in traced), "unit": m["unit"]}
                for metric, m in traced[0]["metrics"].items()}
        point["workloads"][name] = entry
    os.makedirs(os.path.dirname(os.path.abspath(argv[0])), exist_ok=True)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
