#!/usr/bin/env python3
"""Compare two result sets under the bounds ``BENCHMARK.json`` fixes.

    python3 bench/compare.py bench/results/a bench/results/b

A result set is a directory of ``<workload>.jsonl`` files as
``run.py --out DIR`` appends them, ideally ten or more untraced runs
per workload.  ``A`` is the reference (the parent commit, or the first
set of a repeatability check) and ``B`` the candidate.  One row per
workload x end-to-end metric:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is worse by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range over the
                  median) of either set exceeds the bound, so the sets
                  cannot tell — unless every run of B beats every run
                  of A (``ok``) or loses to it by more than the bound
                  (``worse``).

Further rows check that no run failed a unit or was invalid, and that
the exact-count per-layer metrics of traced runs with the same seed
are identical.  Exits 1 on any ``worse``, ``failed`` or ``differs``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that are counts of deterministic work: they must
#: repeat exactly for the same workload and seed.
EXACT_COUNTS = (
    "net.wire.frames_per_request",
    "net.wire.bytes_per_request",
    "kernel.msgs_per_request",
    "durability.records_per_request",
    "durability.fsyncs_per_request",
    "durability.fsyncs_per_request_always",
)


def load_set(directory: str) -> "Dict[str, List[Dict[str, Any]]]":
    """workload -> its runs, in the order they were appended."""
    runs: "Dict[str, List[Dict[str, Any]]]" = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
        if os.path.basename(path).startswith("trace-"):
            continue  # span files, not results
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    run = json.loads(line)
                    runs.setdefault(run["workload"], []).append(run)
    if not runs:
        raise SystemExit(f"no result lines under {directory}")
    return runs


def values_of(runs: "List[Dict[str, Any]]", metric: str) -> "List[float]":
    return [run["metrics"][metric]["value"]
            for run in runs if not run["trace"]]


def spread(values: "List[float]") -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def judge(a: "List[float]", b: "List[float]", lower_is_better: bool,
          bound: float) -> "Tuple[str, float]":
    """Verdict and the share by which B's median is worse than A's."""
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (statistics.median(b) - statistics.median(a)) \
        / statistics.median(a)
    cost_a = [sign * v for v in a]
    cost_b = [sign * v for v in b]
    if max(cost_b) < min(cost_a):
        return "ok", worse_by
    if max(spread(a), spread(b)) > bound:
        if min(cost_b) > max(cost_a) and worse_by > bound:
            return "worse", worse_by
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def main(argv: "List[str]") -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    set_a, set_b = load_set(argv[0]), load_set(argv[1])
    bad = 0
    print(f"{'workload':<14}{'metric':<13}{'unit':<5}{'median A':>12}"
          f"{'median B':>12}{'B worse by':>11}{'spread A':>9}"
          f"{'spread B':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        runs_a, runs_b = set_a.get(workload, []), set_b.get(workload, [])
        for metric in contract["end_to_end"]:
            a = values_of(runs_a, metric["name"])
            b = values_of(runs_b, metric["name"])
            if not a or not b:
                print(f"{workload:<14}{metric['name']:<13}  missing from "
                      f"{'A' if not a else 'B'}")
                bad += 1
                continue
            verdict, worse_by = judge(
                a, b, metric["better"] == "lower", metric["bound"]
            )
            bad += verdict == "worse"
            print(f"{workload:<14}{metric['name']:<13}{metric['unit']:<5}"
                  f"{statistics.median(a):>12.4f}"
                  f"{statistics.median(b):>12.4f}{worse_by:>+11.1%}"
                  f"{spread(a):>9.1%}{spread(b):>9.1%}"
                  f"{metric['bound']:>7.0%}  {verdict}  "
                  f"(n={len(a)}/{len(b)})")
        for label, runs in (("A", runs_a), ("B", runs_b)):
            failed = sum(run["failed"] for run in runs)
            invalid = sum(1 for run in runs
                          if not (run["valid"] and run["correct"]))
            verdict = "failed" if failed or invalid else "ok"
            bad += verdict == "failed"
            print(f"{workload:<14}units failed in {label}: {failed}, "
                  f"runs invalid or incorrect: {invalid} of {len(runs)}  "
                  f"{verdict}")
        traced_a = {run["seed"]: run for run in runs_a if run["trace"]}
        for run in (run for run in runs_b if run["trace"]):
            twin = traced_a.get(run["seed"])
            if twin is None:
                continue
            for name in EXACT_COUNTS:
                one = twin["metrics"][name]["value"]
                other = run["metrics"][name]["value"]
                if not one and not other:
                    continue  # a layer this workload never enters
                verdict = "exact" if one == other else "differs"
                bad += verdict == "differs"
                print(f"{workload:<14}{name:<38}seed {run['seed']:<4}"
                      f"{one:>12.4f}{other:>12.4f}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
