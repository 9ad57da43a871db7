"""Per-layer numbers of a traced run, measured from outside the program.

Three sources, in order of preference:

* **spans** the workload recorded around its own calls (self time per
  span name);
* **counters** the program already keeps (wire counters, traffic
  stats, simulator events, cache stats, WAL segment counters);
* **probes**: direct calls of a layer's public functions over the
  run's own data — the messages the live run sent, the charts the
  churn cycles deployed.

A shard process is opaque from here, so the wire workloads get their
shard-side numbers from an *in-process replica*: the same platform the
shard builds (``node_runner._deploy_topology``, through public calls
only), fed the same request sequence.  What the replica and the probes
do not explain of the live latency is reported as
``fleet.unattributed_us`` rather than spread over the layers.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from spans import NullTracer, self_times
from workloads import (
    CHAIN_OUTPUTS,
    DESTINATIONS,
    DeployChurn,
    LocalTravel,
    TRAVEL_WINDOW,
    WireWorkload,
    percentile,
    segment_percentile,
)

from repro import Platform, PlatformConfig
from repro.durability.config import DurabilityConfig
from repro.durability.segments import SegmentStore
from repro.durability.wal import WriteAheadLog
from repro.expr import compile_expression, default_registry
from repro.kernel.actor import Actor, ActorKernel, handles
from repro.kernel.envelopes import ENVELOPE_TYPES, Execute, ExecuteResult
from repro.net.message import Message
from repro.net.wire.codec import decode_message, encode_message
from repro.net.wire.frames import FrameDecoder, encode_frame
from repro.perf.plan import compile_routing_plan
from repro.routing.generation import generate_routing_tables
from repro.statecharts.flatten import flatten
from repro.workload.generator import make_chain_workload
from repro.workload.harness import composite_for_workload

#: Operations a micro-probe repeats, so one timing is tens of
#: milliseconds and not a handful of clock ticks.
PROBE_OPS = 20_000


def best_us(call: "Callable[[Any], Any]", items: "Sequence[Any]",
            ops: int = PROBE_OPS) -> float:
    """Microseconds per item of ``call(item)``: best of three rounds of
    about ``ops`` calls (best-of rejects scheduler noise, which only
    ever adds time)."""
    if not items:
        return 0.0
    repeats = max(1, math.ceil(ops / len(items)))
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(repeats):
            for item in items:
                call(item)
        best = min(best, time.perf_counter() - started)
    return best / (repeats * len(items)) * 1e6


def span_mean_us(totals: "Dict[str, Tuple[int, float]]", name: str) -> float:
    count, total = totals.get(name, (0, 0.0))
    return total / count * 1e6 if count else 0.0


def span_median_us(spans: "Sequence[Any]", name: str) -> float:
    """Median duration of the (childless) spans called ``name``."""
    durations = [span[2] - span[1] for span in spans
                 if span is not None and span[0] == name]
    return statistics.median(durations) * 1e6 if durations else 0.0


# ---------------------------------------------------------------------------
# The in-process replica of a wire shard
# ---------------------------------------------------------------------------


def build_chain_replica(durability: Any = None) -> "Tuple[Any, Any, Dict[str, Any]]":
    """What ``WireFleet(shards=1, composites=4, tasks=3)``'s one shard
    builds at boot, rebuilt here call for call."""
    platform = Platform(PlatformConfig(
        seed=0, processing_ms=1.0, trace=False, durability=durability,
    ))
    deployments = {}
    for index in range(4):
        name = f"WireChain{index:02d}"
        workload = make_chain_workload(
            3, seed=index, service_latency_ms=5.0,
            service_prefix=f"{name}Svc",
        )
        for position, service in enumerate(workload.services):
            platform.deployer.deploy_elementary(
                service, f"{name.lower()}-svc-{position:02d}"
            )
        deployments[name] = platform.deployer.deploy_composite(
            composite_for_workload(workload, name=name),
            f"{name.lower()}-host",
        )
    return platform, platform.session("ingress-0", "ingress-host-0"), deployments


def replay(replica: "Tuple[Any, Any, Dict[str, Any]]",
           sequence: "Sequence[str]", window: int, tracer: Any,
           capture: int = 0) -> "Dict[str, Any]":
    """Feed ``sequence`` to the replica ``window`` requests at a time,
    the way the shard's ingress submits a drain window and pumps once.

    Returns per-request time, message and simulator-event counts, and
    the first ``capture`` requests' delivered messages."""
    platform, session, deployments = replica
    stats = platform.transport.stats
    simulator = platform.transport.simulator
    captured: "List[Message]" = []
    tap = platform.kernel.add_tap(
        lambda message, time_ms: captured.append(message)
    ) if capture else None
    sent, events = stats.sent_total, simulator.processed_events
    wrong = 0
    started = time.perf_counter()
    for offset in range(0, len(sequence), window):
        if tap is not None and offset >= capture:
            platform.kernel.remove_tap(tap)
            tap = None
        with tracer.span("replica.window", offset):
            pending = []
            for name in sequence[offset:offset + window]:
                with tracer.span("api.submit"):
                    pending.append(session.submit(
                        deployments[name], "run", {}, deadline_ms=None
                    ))
            with tracer.span("runtime.pump"):
                platform.wait_for(
                    lambda: all(handle.done() for handle in pending),
                    timeout_ms=120_000.0,
                )
        wrong += sum(
            1 for handle in pending
            if handle.peek() is None or handle.peek().outputs != CHAIN_OUTPUTS
        )
    elapsed = time.perf_counter() - started
    if tap is not None:
        platform.kernel.remove_tap(tap)
    requests = len(sequence)
    messages = (stats.sent_total - sent) / requests
    return {
        "exec_us": elapsed / requests * 1e6,
        "msgs_per_request": messages,
        "events_per_request": (
            (simulator.processed_events - events) / requests
        ),
        "wrong": wrong,
        "captured": captured,
    }


# ---------------------------------------------------------------------------
# Probes over the run's own messages
# ---------------------------------------------------------------------------


def wire_codec_probe(samples: "Sequence[Tuple[str, str, Any]]") -> "Dict[str, float]":
    """Codec and framing cost of the Execute + ExecuteResult pair of
    each sampled live request, rebuilt exactly as ``WireFleet`` and the
    shard's ingress build them."""
    requests = [
        Message(
            kind=Execute.KIND, source="wirefront",
            source_endpoint="collector", target="wireshard-0",
            target_endpoint=composite,
            body=Execute(operation="run", arguments={},
                         request_key=key, timeout_ms=None).to_body(),
        )
        for composite, key, _ in samples
    ]
    replies = [
        Message(
            kind=ExecuteResult.KIND, source="wireshard-0",
            source_endpoint=composite, target="wirefront",
            target_endpoint="collector",
            body=ExecuteResult(
                execution_id=result.execution_id, status=result.status,
                outputs=dict(result.outputs), fault=result.fault,
                request_key=key,
            ).to_body(),
        )
        for composite, key, result in samples
    ]
    request_payloads = [encode_message(m) for m in requests]
    reply_payloads = [encode_message(m) for m in replies]
    payloads = request_payloads + reply_payloads
    frames = [encode_frame(p) for p in payloads]
    encode_request = best_us(encode_message, requests)
    frame_encode = best_us(encode_frame, payloads)
    return {
        "encode_request_us": encode_request,
        "codec_us_per_request": (
            encode_request
            + best_us(decode_message, request_payloads)
            + best_us(encode_message, replies)
            + best_us(decode_message, reply_payloads)
        ),
        # Two frames per request, each framed once and unframed once.
        "frame_encode_us": frame_encode,
        "frame_us_per_request": 2.0 * (
            frame_encode + best_us(FrameDecoder().feed, frames)
        ),
    }


class _Sink(Actor):
    """An actor that accepts every protocol verb and does nothing, so a
    drain over it costs the mailbox pipeline alone."""

    endpoint_name = "bench-sink"

    for _envelope in ENVELOPE_TYPES.values():
        locals()[f"_on_{_envelope.KIND}"] = handles(_envelope)(
            lambda self, envelope, message: None
        )
    del _envelope


def kernel_probe(platform: Any, captured: "Sequence[Message]") -> "Dict[str, float]":
    """Envelope codec and mailbox pipeline cost over the kind mix the
    workload's own executions delivered."""
    messages = [
        Message(kind=m.kind, source=m.source,
                source_endpoint=m.source_endpoint, target=m.target,
                target_endpoint=m.target_endpoint, body=dict(m.body))
        for m in captured if m.kind in ENVELOPE_TYPES
    ]
    if not messages:
        return {"envelope_codec_us": 0.0, "mailbox_us": 0.0}
    sink = _Sink("bench-sink-host", platform.transport,
                 ActorKernel(platform.transport))
    windows = [messages[i:i + 16] for i in range(0, len(messages), 16)]
    per_window = best_us(sink.mailbox.deliver_batch, windows,
                         ops=PROBE_OPS // 16)
    return {
        "envelope_codec_us": best_us(
            lambda m: ENVELOPE_TYPES[m.kind].from_body(m.body).to_body(),
            messages,
        ),
        "mailbox_us": per_window * len(windows) / len(messages),
    }


def expr_probe(pairs: "Sequence[Tuple[str, Dict[str, Any]]]") -> "Dict[str, float]":
    """Compile and evaluate cost of the workload's guard expressions,
    each evaluated against an environment it really met."""
    registry = default_registry()
    texts = sorted({text for text, _ in pairs})
    compiled = {text: compile_expression(text, registry) for text in texts}
    return {
        "compile_us": best_us(
            lambda text: compile_expression(text, registry), texts,
            ops=PROBE_OPS // 10,
        ),
        "evaluate_us": best_us(
            lambda pair: compiled[pair[0]](pair[1]), pairs
        ),
    }


def generate_us(draw: "Callable[[], Any]", draws: int = 1000) -> float:
    """Cost of generating one unit's inputs (the benchmark's own)."""
    started = time.perf_counter()
    for _ in range(draws):
        draw()
    return (time.perf_counter() - started) / draws * 1e6


# ---------------------------------------------------------------------------
# Durability probes
# ---------------------------------------------------------------------------


def wal_counts(workload: WireWorkload, scratch: str, fsync: str,
               window: int) -> "Dict[str, Any]":
    """Records, bytes and syncs per request of a replica logging under
    ``fsync`` (exact: the replica is deterministic)."""
    replica = build_chain_replica(DurabilityConfig(
        dir=os.path.join(scratch, f"replica-{fsync}"), fsync=fsync,
    ))
    store = replica[0].durability.store
    sequence = workload.sequence[:workload.count(256, floor=16)]
    before = (store.records_appended, store.bytes_appended, store.syncs)
    run = replay(replica, sequence, window, NullTracer(), capture=32)
    after = (store.records_appended, store.bytes_appended, store.syncs)
    replica[0].durability.wal.close()
    records, size, syncs = (
        (b - a) / len(sequence) for a, b in zip(before, after)
    )
    return {"records": records, "bytes": size, "syncs": syncs,
            "wrong": run["wrong"], "captured": run["captured"]}


def durability_probe(workload: WireWorkload,
                     window: int) -> "Dict[str, float]":
    """WAL work per request (exact counts, from replicas logging with
    the live policy and with ``always``) and the cost of its two
    primitives on the filesystem the live run logged to."""
    scratch = tempfile.mkdtemp(prefix="probe-", dir=workload.workdir)
    try:
        live = wal_counts(workload, scratch, "interval", window)
        always = wal_counts(workload, scratch, "always", window)

        lazy = WriteAheadLog(SegmentStore(
            os.path.join(scratch, "never"), fsync="never",
        ))
        append_us = best_us(
            lambda message: lazy.append_delivery(message, 0.0),
            live["captured"], ops=PROBE_OPS // 4,
        )
        lazy.close()

        # One sync's payload: what the live policy buffers between syncs.
        payload = b"x" * max(1, int(live["bytes"] / max(live["syncs"], 1)))
        rounds = workload.count(300, floor=20)
        with open(os.path.join(scratch, "fsync.bin"), "ab") as handle:
            started = time.perf_counter()
            for _ in range(rounds):
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            fsync_us = (time.perf_counter() - started) / rounds * 1e6
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "records_per_request": live["records"],
        "bytes_per_request": live["bytes"],
        "fsyncs_per_request": live["syncs"],
        "fsyncs_per_request_always": always["syncs"],
        "append_us_never": append_us,
        "fsync_us": fsync_us,
        "wrong": live["wrong"] + always["wrong"],
    }


# ---------------------------------------------------------------------------
# Per-workload assembly
# ---------------------------------------------------------------------------


def overhead_x(segments: "Sequence[Tuple[bool, float]]") -> float:
    """Untraced over traced throughput of the alternating segments."""
    untraced = [rate for traced, rate in segments if not traced]
    traced = [rate for traced, rate in segments if traced]
    if not untraced or not traced:
        return 0.0
    return statistics.mean(untraced) / statistics.mean(traced)


def wire_layers(workload: WireWorkload) -> "Dict[str, float]":
    tracer = workload.tracer
    p50_us = segment_percentile(
        workload.latencies_ms, 0.50, workload.latency_segments
    ) * 1000.0
    latencies = sorted(workload.latencies_ms)
    requests = workload.latency_requests
    delta = workload.wire_delta
    window = max(1, round(workload.inflight_mean))

    sequence = workload.sequence[:workload.count(2000, floor=32)]
    replica = build_chain_replica()
    run = replay(replica, sequence, window, tracer, capture=32)
    kernel = kernel_probe(replica[0], run["captured"])
    codec = wire_codec_probe(workload.samples)
    if workload.durable:
        wal = durability_probe(workload, window)
        if wal["wrong"]:
            workload.errors.append("durable replica produced wrong outputs")
    else:
        wal = dict.fromkeys(
            ("records_per_request", "bytes_per_request",
             "fsyncs_per_request", "fsyncs_per_request_always",
             "append_us_never", "fsync_us"), 0.0,
        )
    if run["wrong"]:
        workload.errors.append("replica produced wrong outputs")

    totals = self_times(tracer.spans)
    # Medians, to set against the latency phase's median: the caller
    # of submit sometimes waits a whole GIL switch interval behind the
    # wire thread it has just woken, and a mean would be mostly that.
    submit_us = span_median_us(tracer.spans, "fleet.submit")
    # WireFleet.submit encodes and frames the Execute on the caller's
    # thread, so that much of the codec probe is already inside
    # fleet.submit_us and must not be counted twice.
    attributed = (
        submit_us
        + codec["codec_us_per_request"] - codec["encode_request_us"]
        + codec["frame_us_per_request"] - codec["frame_encode_us"]
        + run["exec_us"]
        + wal["records_per_request"] * wal["append_us_never"]
        + wal["fsyncs_per_request"] * wal["fsync_us"]
    )
    info = workload.info
    replay_us = 0.0
    if workload.durable and info["recovery"]["records_total"]:
        # Respawn with replay, less a spawn without, per record replayed.
        replay_us = (
            max(0.0, info["recover_call_s"] - info["fresh_spawn_s"])
            / info["recovery"]["records_total"] * 1e6
        )
    return {
        "fleet.submit_us": submit_us,
        "fleet.submit_closed_us": span_median_us(
            tracer.spans, "fleet.submit.closed"
        ),
        "fleet.unattributed_us": p50_us - attributed,
        "fleet.unattributed_share": (
            (p50_us - attributed) / p50_us if p50_us else 0.0
        ),
        "fleet.lat_p99_ms": percentile(latencies, 0.99),
        "fleet.lat_samples": len(latencies),
        "fleet.inflight_mean": workload.inflight_mean,
        "net.wire.frames_per_request": (
            (delta["frames_sent"] + delta["frames_received"]) / requests
        ),
        "net.wire.bytes_per_request": (
            (delta["bytes_sent"] + delta["bytes_received"]) / requests
        ),
        "net.wire.errors": info["wire_errors"],
        "net.wire.codec_us_per_request": codec["codec_us_per_request"],
        "net.wire.frame_us_per_request": codec["frame_us_per_request"],
        "kernel.msgs_per_request": run["msgs_per_request"],
        "kernel.envelope_codec_us_per_msg": kernel["envelope_codec_us"],
        "kernel.mailbox_us_per_msg": kernel["mailbox_us"],
        "runtime.exec_us_per_request": run["exec_us"],
        "runtime.us_per_msg": run["exec_us"] / run["msgs_per_request"],
        "sim.events_per_request": run["events_per_request"],
        "api.submit_us": span_mean_us(totals, "api.submit"),
        "durability.records_per_request": wal["records_per_request"],
        "durability.bytes_per_request": wal["bytes_per_request"],
        "durability.fsyncs_per_request": wal["fsyncs_per_request"],
        "durability.fsyncs_per_request_always": (
            wal["fsyncs_per_request_always"]
        ),
        "durability.append_us_per_record_never": wal["append_us_never"],
        "durability.fsync_us": wal["fsync_us"],
        "durability.snapshot_s": info.get("snapshot_s", 0.0),
        "durability.snapshot_bytes": info.get("snapshot_bytes", 0),
        "durability.recover_s": info.get("recover_s", 0.0),
        "durability.replay_us_per_record": replay_us,
        "loadgen.late_p95_ms": percentile(sorted(workload.late_ms), 0.95),
        "loadgen.rate_achieved": workload.rate_achieved,
        "workload.generate_us": generate_us(workload.next_input),
    }


def travel_layers(workload: LocalTravel) -> "Dict[str, float]":
    totals = self_times(workload.tracer.spans)
    platform = workload.platform
    # One more execution per destination, tapped: the kind mix for the
    # kernel probe and real environments for the guard probe.
    captured: "List[Message]" = []
    environments = []
    tap = platform.kernel.add_tap(lambda m, time_ms: captured.append(m))
    for destination in DESTINATIONS:
        arguments = dict(workload.next_input(), destination=destination)
        result = workload.session.execute(
            workload.target, "arrangeTrip", arguments
        )
        workload.check(arguments, result)
        environments.append(dict(result.outputs, destination=destination))
    platform.kernel.remove_tap(tap)
    kernel = kernel_probe(platform, captured)
    expr = expr_probe([
        (guard, env)
        for guard in ("domestic(destination)", "not domestic(destination)",
                      "near(major_attraction, accommodation)",
                      "not near(major_attraction, accommodation)")
        for env in environments
    ])
    # A request span has exactly one submit and one pump child, so the
    # three self times add up to the mean submit-to-done duration.
    exec_us = sum(span_mean_us(totals, name)
                  for name in ("request", "api.submit", "runtime.pump"))
    gathers, gather_s = totals.get("api.gather", (0, 0.0))
    messages = workload.info["msgs_per_request"]
    return {
        "api.submit_us": span_mean_us(totals, "api.submit"),
        "api.gather_us_per_exec": (
            gather_s / (gathers * TRAVEL_WINDOW) * 1e6 if gathers else 0.0
        ),
        "kernel.msgs_per_request": messages,
        "kernel.envelope_codec_us_per_msg": kernel["envelope_codec_us"],
        "kernel.mailbox_us_per_msg": kernel["mailbox_us"],
        "runtime.exec_us_per_request": exec_us,
        "runtime.us_per_msg": exec_us / messages,
        "sim.events_per_request": workload.info["events_per_request"],
        "expr.compile_us": expr["compile_us"],
        "expr.evaluate_us": expr["evaluate_us"],
        "workload.generate_us": generate_us(workload.next_input),
    }


def churn_layers(workload: DeployChurn) -> "Dict[str, float]":
    tracer = workload.tracer
    guards: "List[Tuple[str, Dict[str, Any]]]" = []
    for name, generated in workload.probe_inputs[:workload.count(60, floor=2)]:
        with tracer.span("probe", name):
            with tracer.span("statecharts.flatten"):
                graph = flatten(generated.chart)
            with tracer.span("routing.generate"):
                tables = generate_routing_tables(graph)
            with tracer.span("perf.compile_plan"):
                compile_routing_plan(tables, name, "run", None)
        for variable in generated.request_args:
            guards.append((f"{variable} = true", generated.request_args))
            guards.append((f"{variable} != true", generated.request_args))
    expr = expr_probe(guards)
    totals = self_times(tracer.spans)
    cycles = workload.latencies_ms
    decile = max(1, len(cycles) // 10)
    metrics = {
        f"{layer}_us": span_mean_us(totals, layer)
        for layer in (
            "statecharts.flatten", "routing.generate", "perf.compile_plan",
            "deployment.deploy_composite", "deployment.deploy_elementary",
            "deployment.undeploy", "discovery.publish",
            "discovery.locate_miss", "discovery.locate_hit",
            "api.first_execute", "workload.generate",
        )
    }
    metrics.update({
        "discovery.cache_hit_ratio": workload.info["cache_hit_ratio"],
        "deployment.cycle_growth_x": (
            statistics.median(cycles[-decile:])
            / statistics.median(cycles[:decile])
        ),
        "expr.compile_us": expr["compile_us"],
        "expr.evaluate_us": expr["evaluate_us"],
    })
    return metrics


def layer_metrics(workload: Any) -> "Dict[str, float]":
    """Every per-layer number this workload can measure; the runner
    fills the names a workload does not touch with 0."""
    if isinstance(workload, WireWorkload):
        metrics = wire_layers(workload)
    elif isinstance(workload, LocalTravel):
        metrics = travel_layers(workload)
    else:
        metrics = churn_layers(workload)
    metrics["trace.overhead_x"] = overhead_x(workload.segments)
    return metrics
