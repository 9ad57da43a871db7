#!/usr/bin/env python3
"""The platform benchmark: one command, four workloads, every metric.

    python3 bench/run.py                       # everything, untraced then traced
    python3 bench/run.py --workload wire_chain --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --smoke               # ~1/50 size, for the smoke test

Each (workload, trace) pair is one *run*: the runner starts fresh child
interpreters that build the workload from nothing (``setup_s`` is the
median over them, measured from before the child starts to the end of
its warm-up), and the last child goes on to measure.  End-to-end
metrics come from untraced runs only; ``--trace 1`` repeats the
workload with spans and probes and reports the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose load
generator fell behind, that lost requests or that left a process,
thread or file descriptor behind says ``valid: false`` and exits
non-zero.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

WORKLOAD_NAMES = ("wire_chain", "wire_durable", "local_travel",
                  "deploy_churn")
#: Fresh builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SMOKE_SCALE = 0.02
#: Wall-clock cap of one run, all its children together.
RUN_TIMEOUT_S = 170.0
#: Generator health limits of an open-loop phase.
MAX_LATE_P95_MS = 1.0
MIN_RATE_ACHIEVED = 0.99


def load_contract() -> "Dict[str, Any]":
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


# ---------------------------------------------------------------------------
# Child: build one workload in this process, maybe measure it
# ---------------------------------------------------------------------------


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def leftovers() -> "List[str]":
    """Processes and threads still alive after ``close()``."""
    import multiprocessing
    import threading
    from multiprocessing import resource_tracker

    # The spawn context starts a stdlib helper process that otherwise
    # outlives this one by a moment; stopping it closes its pipe and
    # waits for it, so nothing started here is left running.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    found = [f"process {p.name}" for p in multiprocessing.active_children()]
    found += [f"thread {t.name}" for t in threading.enumerate()
              if t is not threading.main_thread() and t.is_alive()]
    return found


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    contract = load_contract()
    os.makedirs(WORK_DIR, exist_ok=True)
    fds_before = open_fds()
    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](
        args.seed, args.scale, tracer, WORK_DIR
    )
    doc: "Dict[str, Any]" = {}
    try:
        workload.setup()
        doc["setup_s"] = time.monotonic() - args.t0
        if args.role == "measure":
            measure(workload, args, contract, doc)
    finally:
        workload.close()
    return emit_child(doc, workload, fds_before)


def measure(workload: Any, args: argparse.Namespace,
            contract: "Dict[str, Any]", doc: "Dict[str, Any]") -> None:
    from workloads import percentile, segment_percentile

    workload.measure(args.seconds)
    workload.finish()
    latencies = workload.latencies_ms
    chunks = workload.latency_segments
    untraced = [rate for traced, rate in workload.segments if not traced]
    end_to_end = {
        "lat_p50_ms": segment_percentile(latencies, 0.50, chunks),
        "lat_p95_ms": segment_percentile(latencies, 0.95, chunks),
        "closed_rps": statistics.median(untraced),
        "rss_peak_mb": workload.rss_peak_mb(),
    }
    if args.trace:
        import layers

        measured = layers.layer_metrics(workload)
        unknown = set(measured) - {m["name"] for m in contract["per_layer"]}
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: "
                             f"{sorted(unknown)}")
        # A layer this workload never enters did no work here: 0.
        doc["metrics"] = {
            m["name"]: {"value": measured.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in contract["per_layer"]
        }
        doc["end_to_end_while_traced"] = end_to_end
        os.makedirs(args.out, exist_ok=True)
        workload.tracer.write(
            os.path.join(args.out, f"trace-{args.workload}.jsonl")
        )
        doc["spans"] = len(workload.tracer.spans)
    else:
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        doc["metrics"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in end_to_end.items()
        }
    late = sorted(getattr(workload, "late_ms", []))
    if late:
        late_p95 = percentile(late, 0.95)
        doc["late_p95_ms"] = late_p95
        doc["rate_achieved"] = workload.rate_achieved
        if late_p95 > MAX_LATE_P95_MS:
            workload.invalid.append(f"generator late: p95 {late_p95:.3f} ms")
        if workload.rate_achieved < MIN_RATE_ACHIEVED:
            workload.invalid.append(
                f"rate achieved {workload.rate_achieved:.4f}")
    doc["latency_samples"] = len(latencies)
    doc["segments_rps"] = workload.segments


def emit_child(doc: "Dict[str, Any]", workload: Any, fds_before: int) -> int:
    """Post-``close()`` hygiene checks, then the child's one JSON line."""
    invalid = list(workload.invalid)
    invalid += [f"left behind: {what}" for what in leftovers()]
    if open_fds() > fds_before:
        invalid.append(f"{open_fds() - fds_before} file descriptor(s) leaked")
    if workload.failed:
        invalid.append(f"{workload.failed} unit(s) lost or wrong")
    doc.update({
        "attempted": workload.attempted,
        "failed": workload.failed,
        "correct": workload.failed == 0 and not workload.errors,
        "errors": workload.errors,
        "valid": not invalid,
        "invalid": invalid,
        "info": workload.info,
    })
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# Parent: orchestrate the children of one run, print and record it
# ---------------------------------------------------------------------------


def spawn_child(role: str, workload: str, trace: int,
                args: argparse.Namespace, scale: float,
                seconds: float, deadline: float) -> "Dict[str, Any]":
    command = [
        sys.executable, os.path.abspath(__file__),
        "--role", role, "--workload", workload, "--trace", str(trace),
        "--seed", str(args.seed), "--seconds", repr(seconds),
        "--scale", repr(scale), "--out", args.out,
        "--t0", repr(time.monotonic()),
    ]
    # Its own process group, so that whatever happens to the child,
    # the shard processes it started can be swept up with it.
    # A fixed hash seed takes one source of run-to-run variation (dict
    # and set layout differing per interpreter) out of the numbers.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True,
                             env=dict(os.environ, PYTHONHASHSEED="0"))
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload}: {role} child failed (exit {child.returncode})"
        )
    return json.loads(lines[-1])


def run_one(workload: str, trace: int, args: argparse.Namespace,
            contract: "Dict[str, Any]") -> bool:
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    seconds *= scale
    repeats = 1 if args.smoke else SETUP_REPEATS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [
        spawn_child("setup", workload, trace, args, scale, seconds, deadline)
        for _ in range(repeats - 1)
    ]
    doc = spawn_child("measure", workload, trace, args, scale, seconds,
                      deadline)
    setups.append(doc)
    for probe in setups[:-1]:
        doc["valid"] = doc["valid"] and probe["valid"]
        doc["invalid"] += probe["invalid"]
        doc["correct"] = doc["correct"] and probe["correct"]
        doc["attempted"] += probe["attempted"]
        doc["failed"] += probe["failed"]
    setup_samples = [s["setup_s"] for s in setups]
    setup_s = statistics.median(setup_samples)
    if trace:
        doc["end_to_end_while_traced"]["setup_s"] = setup_s
    else:
        doc["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    doc.pop("setup_s")
    doc.update({
        "workload": workload, "seed": args.seed, "seconds": seconds,
        "trace": trace, "smoke": args.smoke,
        "setup_samples_s": setup_samples,
        "network": "host loopback (127.0.0.1), one TCP connection",
        "work_fs": filesystem_of(WORK_DIR),
    })

    print(f"== {workload}  seed={args.seed}  seconds={seconds:g}  "
          f"{'traced' if trace else 'untraced'}"
          f"{'  (smoke)' if args.smoke else ''}")
    print(f"   traffic: {doc['network']}; WAL/temp filesystem: "
          f"{doc['work_fs']}")
    for name, metric in doc["metrics"].items():
        print(f"   {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    print(f"   attempted={doc['attempted']} failed={doc['failed']} "
          f"correct={str(doc['correct']).lower()} "
          f"valid: {str(doc['valid']).lower()}"
          + (f"  {doc['invalid'] + doc['errors']}"
             if doc["invalid"] or doc["errors"] else ""))

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{workload}.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(doc) + "\n")
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"], "metrics": doc["metrics"],
    }), flush=True)
    return doc["valid"] and doc["correct"]


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the generated inputs (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end metrics, 1 = spans and "
                             "per-layer metrics (default: both in turn)")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/50 size: checks the plumbing, not speed")
    parser.add_argument("--out",
                        default=os.path.join(BENCH_DIR, "results", "last"),
                        help="directory the result lines are appended in")
    # Internal: the runner re-invokes itself for each fresh build.
    parser.add_argument("--role", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.role:
        return child_main(args)

    # Die through ``finally`` blocks, so children are swept up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    traces = [args.trace] if args.trace is not None else [0, 1]
    good = True
    for workload in workloads:
        for trace in traces:
            good = run_one(workload, trace, args, contract) and good
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass
    return 0 if good else 3


if __name__ == "__main__":
    # The guard matters: shard processes use the ``spawn`` context,
    # which re-imports this module in every child.
    sys.exit(main())
