"""CLAIM-KERNEL — the actor kernel's dispatch overhead, measured.

PR 4 rebuilt every runtime participant on the ``repro.kernel`` actor
substrate: inbound messages now pass decode (typed envelope, unknown
fields rejected) -> middleware chain -> verb-table dispatch before the
handler runs.  That rigour must not tax the hot path, so this benchmark
drives notifications through one decision-heavy FORK coordinator and
compares three paths:

* **handler-direct** — a pre-decoded envelope handed straight to the
  coordinator's handler: the PR 3 fast-path cost with zero kernel
  involvement (the reference; strictly *harsher* than the real PR 3
  coordinator, which paid its own kind-chain and dict accesses).
* **kernel dispatch** — the full mailbox pipeline (``on_message``),
  compiled dispatch, no middleware: the refactor's mandatory cost.
* **kernel + counters** — the default platform configuration (the
  ``KernelCounters`` perf tap installed): the observability tax,
  reported separately because it is a feature, not dispatch overhead.

Claim: kernel-dispatch firing throughput within 10% of the fast path.
"""

import time

from repro.kernel import ActorKernel, Notify
from repro.net.message import Message
from repro.net.simnet import SimTransport
from repro.perf import compile_dispatch
from repro.routing.tables import (
    FiringMode,
    Postprocessing,
    PostprocessingRow,
    Precondition,
    PreconditionEntry,
    RoutingTable,
)
from repro.runtime.coordinator import Coordinator
from repro.runtime.directory import ServiceDirectory
from repro.runtime.protocol import (
    MessageKinds,
    coordinator_endpoint,
    wrapper_endpoint,
)
from repro.statecharts.flatten import NodeKind

from _ledger import metric, write_ledger
from _utils import write_result

FAN_OUT = 8                 # postprocessing rows of the microbench hub
FIRINGS = 2_000             # notifications driven through the hub
ROUNDS = 5                  # best-of rounds per path
CODEC_OPS = 20_000          # encode/decode pairs for the codec row

#: Acceptance bound: kernel dispatch within 10% of the handler-direct
#: fast path (a little slack absorbs shared-runner wall-clock jitter).
MAX_OVERHEAD = 1.10

#: Sanity bound on the *optional* default-counters middleware (one
#: locked dict increment per handled/sent message).
MAX_COUNTERS_OVERHEAD = 1.30


def _hub_table():
    """A FORK hub with FAN_OUT unconditional rows (decision-heavy)."""
    rows = tuple(
        PostprocessingRow(
            edge_id=f"out{i}", target_node=f"t{i}", fire_always=True,
        )
        for i in range(FAN_OUT)
    )
    return RoutingTable(
        node_id="hub",
        kind=NodeKind.FORK,
        precondition=Precondition(
            mode=FiringMode.ANY,
            entries=(PreconditionEntry(edge_id="in", source_node="src"),),
        ),
        postprocessing=Postprocessing(rows=rows),
    )


def _build_hub(counters=True):
    table = _hub_table()
    transport = SimTransport()
    transport.add_node("h")
    node = transport.node("h")

    def sink(message):
        pass

    node.register(wrapper_endpoint("w"), sink)
    for i in range(FAN_OUT):
        node.register(coordinator_endpoint("c", "op", f"t{i}"), sink)
    coordinator = Coordinator(
        table=table,
        composite="c",
        operation="op",
        host="h",
        transport=transport,
        directory=ServiceDirectory(),
        wrapper_address=("h", wrapper_endpoint("w")),
        dispatch=compile_dispatch(table, "c", "op"),
        kernel=ActorKernel(transport, counters=counters),
    )
    coordinator.start()
    notify = Message(
        kind=MessageKinds.NOTIFY,
        source="h",
        source_endpoint=coordinator_endpoint("c", "op", "src"),
        target="h",
        target_endpoint=coordinator.endpoint_name,
        body=Notify(execution_id="x", edge_id="in",
                    from_node="src").to_body(),
    )
    return transport, coordinator, notify


def _time_kernel_path(counters=False):
    """Seconds for FIRINGS notifications through the mailbox pipeline."""
    transport, coordinator, notify = _build_hub(counters)
    started = time.perf_counter()
    for _ in range(FIRINGS):
        coordinator.on_message(notify)
        transport.run_until_idle()
    return time.perf_counter() - started


def _time_handler_direct():
    """Seconds for FIRINGS pre-decoded envelopes handed to the handler.

    This is the PR 3 fast-path reference: no decode, no middleware (an
    empty chain, so sends pay no hooks either), no verb-table lookup —
    only the firing itself.
    """
    transport, coordinator, notify = _build_hub(counters=False)
    envelope = Notify.from_body(notify.body)
    handler = coordinator._on_notify
    started = time.perf_counter()
    for _ in range(FIRINGS):
        handler(envelope, notify)
        transport.run_until_idle()
    return time.perf_counter() - started


def _time_codec():
    """(encode_us, decode_us) per notify envelope."""
    envelope = Notify(execution_id="e", edge_id="in", from_node="src",
                      env={"a": 1, "b": "two"})
    started = time.perf_counter()
    for _ in range(CODEC_OPS):
        body = envelope.to_body()
    encode = (time.perf_counter() - started) / CODEC_OPS
    started = time.perf_counter()
    for _ in range(CODEC_OPS):
        Notify.from_body(body)
    decode = (time.perf_counter() - started) / CODEC_OPS
    return encode * 1e6, decode * 1e6


def test_bench_kernel_dispatch(benchmark):
    # Interleave the paths round-robin so slow drift in machine load
    # biases none of them; best-of per path as usual.
    handler_times, kernel_times, counted_times = [], [], []
    for _ in range(ROUNDS):
        handler_times.append(_time_handler_direct())
        kernel_times.append(_time_kernel_path())
        counted_times.append(_time_kernel_path(counters=True))
    handler = min(handler_times) / FIRINGS
    kernel = min(kernel_times) / FIRINGS
    counted = min(counted_times) / FIRINGS

    overhead = kernel / handler
    assert overhead <= MAX_OVERHEAD, (
        f"kernel dispatch {overhead:.2f}x the handler-direct fast path "
        f"(claim: <= {MAX_OVERHEAD:.2f}x)"
    )
    assert counted / handler <= MAX_COUNTERS_OVERHEAD, (
        f"default counters middleware {counted / handler:.2f}x the fast "
        f"path (sanity bound: <= {MAX_COUNTERS_OVERHEAD:.2f}x)"
    )

    encode_us, decode_us = _time_codec()

    rows = [
        ("firing, handler-direct (us)", f"{handler * 1e6:.1f}", "1.00x"),
        ("firing, kernel dispatch (us)", f"{kernel * 1e6:.1f}",
         f"{overhead:.2f}x"),
        ("firing, kernel + counters (us)", f"{counted * 1e6:.1f}",
         f"{counted / handler:.2f}x"),
        ("notify encode to_body (us)", f"{encode_us:.2f}", "-"),
        ("notify decode from_body (us)", f"{decode_us:.2f}", "-"),
    ]
    write_result(
        "CLAIM-KERNEL",
        "actor-kernel dispatch vs. the PR 3 fast path",
        ["metric", "value", "vs. handler-direct"],
        rows,
        notes=(
            "{firings} notifications through one FORK coordinator with "
            "{fan} unconditional rows, interleaved rounds, best of "
            "{rounds}.  handler-direct = pre-decoded envelope straight "
            "to the handler (PR 3 fast path, no kernel; harsher than "
            "the real PR 3 coordinator, which measured ~equal to "
            "kernel+counters side by side).  kernel dispatch = "
            "on_message: envelope decode (unknown-field rejection) -> "
            "hook lists (empty) -> verb-table dispatch; claim: within "
            "{bound:.0%} of handler-direct.  kernel + counters adds the "
            "default KernelCounters perf tap (one locked dict increment "
            "per handled/sent message) — an optional feature, bounded "
            "at {cbound:.0%}.  Codec rows: {codec} encode/decode ops."
        ).format(firings=FIRINGS, fan=FAN_OUT, rounds=ROUNDS,
                 bound=MAX_OVERHEAD - 1.0,
                 cbound=MAX_COUNTERS_OVERHEAD - 1.0, codec=CODEC_OPS),
    )
    write_ledger(
        "BENCH_KERNEL",
        "actor-kernel dispatch overhead vs. the handler-direct path",
        "benchmarks/test_bench_kernel.py",
        metrics={
            # Same-run ratios (machine load cancels out): gated.
            "kernel_overhead_x": metric(round(overhead, 3), "x", "lower"),
            "counters_overhead_x": metric(
                round(counted / handler, 3), "x", "lower"
            ),
            # Wall-clock microseconds move with the machine: recorded
            # for trend analysis, never gated.
            "firing_handler_direct_us": metric(
                round(handler * 1e6, 2), "us", "info"
            ),
            "firing_kernel_us": metric(round(kernel * 1e6, 2), "us", "info"),
            "firing_counters_us": metric(
                round(counted * 1e6, 2), "us", "info"
            ),
            "codec_encode_us": metric(round(encode_us, 3), "us", "info"),
            "codec_decode_us": metric(round(decode_us, 3), "us", "info"),
        },
        meta={
            "firings": FIRINGS,
            "fan_out": FAN_OUT,
            "rounds": ROUNDS,
            "codec_ops": CODEC_OPS,
            "max_overhead_x": MAX_OVERHEAD,
            "max_counters_overhead_x": MAX_COUNTERS_OVERHEAD,
        },
    )

    # pytest-benchmark unit: one kernel-path firing on a warm hub.
    transport, coordinator, notify = _build_hub()

    def one_firing():
        coordinator.on_message(notify)
        transport.run_until_idle()

    benchmark(one_firing)
