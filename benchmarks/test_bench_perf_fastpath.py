"""CLAIM-FASTPATH — the ``repro.perf`` fast path, knobs off vs. on.

Three layers, three numbers (plus the discovery traffic counts):

* **locate** — repeated ``locate()`` throughput: without the cache each
  resolution pays three SOAP/XML round trips; the cache serves repeats from a
  generation-checked dict.  Claim: **>= 2x** repeated-locate throughput
  (in practice far more).
* **wire arrivals** — per-execution message count on the simulated
  network: a coalescing delivery window hands each host its window's
  messages in one flush.  Claim: fewer physical arrival events per
  execution for the *same* logical message count and the same results.
* **dispatch** — coordinator decision cost per firing on the compiled
  routing plan, measured on a fan-out coordinator (the shape where
  routing work concentrates).
* **discovery traffic** (ledger only) — SOAP round trips of one
  ``publish`` and reply bytes of one ``locate()`` miss behind a
  registry of 5 000 services under one provider: exact counts, which
  rise if an inquiry stops being answered from an index or a reply
  starts carrying records nobody asked for.
"""

import time

import pytest

from repro.api import Platform, PlatformConfig
from repro.demo.travel import deploy_travel_scenario
from repro.discovery.engine import ServiceDiscoveryEngine
from repro.kernel import Notify
from repro.net.latency import FixedLatency
from repro.net.simnet import SimTransport
from repro.perf import PerfConfig, compile_dispatch
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
from repro.net.message import Message
from repro.services.description import (
    OperationSpec,
    Parameter,
    ParameterType,
    ServiceDescription,
)
from repro.services.elementary import ElementaryService
from repro.statecharts.flatten import NodeKind

from _ledger import metric, write_ledger
from _utils import write_result

SERVICES = 12
LOCATE_ROUNDS = 40          # repeated locates per service per side
EXECUTIONS = 12
FAN_OUT = 8                 # postprocessing rows of the microbench hub
FIRINGS = 2_000             # notifications driven through the hub
REGISTRY_SERVICES = 5_000   # one provider's catalogue, discovery traffic


def _echo_service(index):
    description = ServiceDescription(
        name=f"Echo{index:02d}", provider=f"Provider{index % 4}"
    )
    description.add_operation(OperationSpec(
        name="ping",
        inputs=(Parameter("x", ParameterType.STRING),),
        outputs=(Parameter("y", ParameterType.STRING),),
    ))
    service = ElementaryService(description)
    service.bind("ping", lambda args: {"y": args["x"]})
    return service


def _publish_fleet():
    platform = Platform(PlatformConfig(trace=False))
    names = []
    for index in range(SERVICES):
        service = _echo_service(index)
        platform.provider(f"host-{index % 4}").elementary(service)
        names.append(service.name)
    return platform, names


def _time_locates(engine, names, rounds):
    started = time.perf_counter()
    for _ in range(rounds):
        for name in names:
            engine.locate(name)
    return time.perf_counter() - started


def measure_locate():
    """(uncached locates/s, cached locates/s) over the same registry."""
    platform, names = _publish_fleet()
    cached_engine = platform.discovery
    uncached_engine = ServiceDiscoveryEngine(
        platform.transport,
        platform.directory,
        registry=cached_engine.registry,
        resolver=cached_engine.resolver,
        perf=PerfConfig.disabled(),
    )
    # Warm both sides once (first resolution fills caches/indexes).
    for name in names:
        uncached_engine.locate(name)
        cached_engine.locate(name)
    total = LOCATE_ROUNDS * len(names)
    uncached = total / _time_locates(uncached_engine, names, LOCATE_ROUNDS)
    cached = total / _time_locates(cached_engine, names, LOCATE_ROUNDS)
    return uncached, cached


def measure_discovery_traffic():
    """(SOAP calls of a new provider's publish, reply bytes of a miss).

    The located service belongs to a provider with REGISTRY_SERVICES
    services, the shape in which a reply carrying the provider's
    catalogue grows without bound.
    """
    platform = Platform(PlatformConfig(trace=False))
    engine = platform.discovery
    registry = engine.registry
    owner = registry.save_business("BigCo")
    for index in range(REGISTRY_SERVICES):
        record = registry.save_service(
            owner.business_key, f"Filler{index:05d}"
        )
        registry.save_binding(
            record.service_key, f"selfserv://filler/{index:05d}"
        )
    service = _echo_service(0)
    platform.deployer.deploy_elementary(service, "host-0")
    soap = engine._soap
    calls = soap.calls_made
    engine.publish(service.description)
    publish_calls = soap.calls_made - calls
    received = soap.bytes_received
    engine.locate("Filler00000")
    return publish_calls, soap.bytes_received - received


def _run_travel(perf):
    platform = Platform(PlatformConfig(
        latency=FixedLatency(remote_ms=5.0), trace=False, perf=perf,
    ))
    deployed = deploy_travel_scenario(platform.deployer)
    session = platform.session("bench", "bench-host")
    destinations = ("sydney", "cairns", "paris", "tokyo")
    started = time.perf_counter()
    results = session.gather(session.submit_many([
        (deployed.deployment, "arrangeTrip", {
            "customer": f"user-{i}",
            "destination": destinations[i % len(destinations)],
            "departure_date": "2026-07-01",
            "return_date": "2026-07-10",
        })
        for i in range(EXECUTIONS)
    ]))
    elapsed = time.perf_counter() - started
    assert all(r.ok for r in results)
    stats = platform.transport.stats
    return {
        "elapsed_s": elapsed,
        "delivered": stats.delivered_total,
        "arrivals": stats.wire_arrivals(),
        "batch_efficiency": stats.batch_efficiency(),
    }


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


def _time_firings():
    table = _hub_table()
    transport = SimTransport()
    transport.add_node("h")
    node = transport.node("h")
    sink = lambda message: None  # noqa: E731 - peer/wrapper endpoints
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
    )
    coordinator.start()
    notify = Message(
        kind=MessageKinds.NOTIFY,
        source="h", source_endpoint=coordinator_endpoint("c", "op", "src"),
        target="h", target_endpoint=coordinator.endpoint_name,
        body=Notify(execution_id="x", edge_id="in",
                    from_node="src").to_body(),
    )
    started = time.perf_counter()
    for _ in range(FIRINGS):
        coordinator.on_message(notify)
        transport.run_until_idle()
    return time.perf_counter() - started


def measure_dispatch():
    """Seconds per firing on the compiled plan, best of 3 runs."""
    return min(_time_firings() for _ in range(3)) / FIRINGS


def test_bench_fastpath(benchmark):
    # Layer 1: repeated-locate throughput (the acceptance claim).
    uncached_rate, cached_rate = measure_locate()
    locate_speedup = cached_rate / uncached_rate
    assert locate_speedup >= 2.0, (
        f"locate cache speedup {locate_speedup:.1f}x below the 2x claim"
    )

    # Layer 2: wire arrivals per execution, batching off vs. on.
    plain = _run_travel(PerfConfig())
    batched = _run_travel(PerfConfig(batch_window_ms=2.0))
    assert batched["delivered"] == plain["delivered"]
    assert batched["arrivals"] < plain["arrivals"], (
        "delivery batching must reduce physical arrival events"
    )

    # Layer 3: coordinator decision cost on the compiled plan.
    compiled_per_firing = measure_dispatch()

    publish_calls, locate_miss_bytes = measure_discovery_traffic()

    rows = [
        (
            "repeated locate (locates/s)",
            f"{uncached_rate:,.0f}",
            f"{cached_rate:,.0f}",
            f"{locate_speedup:.1f}x",
        ),
        (
            "wire arrivals / execution",
            f"{plain['arrivals'] / EXECUTIONS:.1f}",
            f"{batched['arrivals'] / EXECUTIONS:.1f}",
            f"-{(1 - batched['arrivals'] / plain['arrivals']) * 100:.0f}%",
        ),
        (
            "logical messages / execution",
            f"{plain['delivered'] / EXECUTIONS:.1f}",
            f"{batched['delivered'] / EXECUTIONS:.1f}",
            "unchanged",
        ),
        (
            f"coordinator firing (us, fan-out {FAN_OUT})",
            "-",
            f"{compiled_per_firing * 1e6:.1f}",
            "-",
        ),
    ]
    write_result(
        "CLAIM-FASTPATH",
        "repro.perf fast path, knobs off vs. on",
        ["metric", "off", "on", "delta"],
        rows,
        notes=(
            "locate: {count} services x {rounds} repeated locates; cache "
            "TTL+generation-invalidated (see docs/PERF.md).  wire "
            "arrivals: travel scenario x {execs} executions, 2 ms "
            "coalescing window (batch_efficiency "
            "{eff:.1f} msgs/flush).  dispatch: {firings} notifications "
            "through one FORK coordinator on its compiled routing plan "
            "(deploy-time row partitions, interned peer endpoints), "
            "best of 3."
        ).format(count=SERVICES, rounds=LOCATE_ROUNDS, execs=EXECUTIONS,
                 eff=batched["batch_efficiency"], firings=FIRINGS),
    )
    write_ledger(
        "BENCH_FASTPATH",
        "repro.perf fast path, knobs off vs. on",
        "benchmarks/test_bench_perf_fastpath.py",
        metrics={
            # Message counts on the deterministic simulator are
            # bit-for-bit reproducible: gated tightly.
            "wire_arrivals_per_execution_plain": metric(
                round(plain["arrivals"] / EXECUTIONS, 2), "msgs", "lower"
            ),
            "wire_arrivals_per_execution_batched": metric(
                round(batched["arrivals"] / EXECUTIONS, 2), "msgs", "lower"
            ),
            "delivered_per_execution": metric(
                round(plain["delivered"] / EXECUTIONS, 2), "msgs", "lower"
            ),
            "batch_efficiency_msgs_per_flush": metric(
                round(batched["batch_efficiency"], 2), "msgs", "higher"
            ),
            # Exact counts (UDDI keys are fixed width): gated tightly.
            "publish_soap_calls": metric(publish_calls, "calls", "lower"),
            "locate_miss_soap_bytes_at_5000_services": metric(
                locate_miss_bytes, "bytes", "lower"
            ),
            # Wall-clock rates and their ratios swing with the machine;
            # the in-test assert (>= 2x locate) enforces the claim —
            # recorded here for trend analysis.
            "locate_speedup_x": metric(
                round(locate_speedup, 1), "x", "info"
            ),
            "cached_locates_per_sec": metric(
                round(cached_rate), "locates/s", "info"
            ),
            "uncached_locates_per_sec": metric(
                round(uncached_rate), "locates/s", "info"
            ),
            "firing_compiled_us": metric(
                round(compiled_per_firing * 1e6, 2), "us", "info"
            ),
        },
        meta={
            "services": SERVICES,
            "locate_rounds": LOCATE_ROUNDS,
            "executions": EXECUTIONS,
            "fan_out": FAN_OUT,
            "firings": FIRINGS,
            "batch_window_ms": 2.0,
            "registry_services": REGISTRY_SERVICES,
        },
    )

    # pytest-benchmark unit: one cached locate on a warm platform.
    platform, names = _publish_fleet()
    platform.discovery.locate(names[0])
    benchmark(lambda: platform.discovery.locate(names[0]))
