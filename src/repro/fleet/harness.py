"""Fleet experiment harness: open-loop load against a sharded platform.

``build_fleet_chains`` stands a fleet up with one chain composite per
partition slot (components co-located by shard), and
``run_fleet_open_loop`` injects a pre-drawn open-loop arrival schedule
(see :mod:`repro.workload.arrivals`), pumps every shard to quiescence
through :meth:`~repro.fleet.runtime.FleetRuntime.wait_for`, and
reports the fleet-wide shape of the run: latency percentiles,
bottleneck-shard makespan, throughput, and per-shard message counts —
the numbers the ``BENCH_FLEET`` ledger records.

Throughput is defined on the *simulated* clock (completed requests over
the slowest shard's quiesce time), so the measurement is bit-for-bit
reproducible in CI; the wall-clock seconds of the pump are reported
alongside as an informational metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.api.platform import Platform
from repro.api.config import PlatformConfig
from repro.deployment.deployer import CompositeDeployment
from repro.fleet.config import FleetConfig
from repro.workload.harness import deploy_chain


def percentile(values: "Sequence[float]", fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[index]


@dataclass
class FleetBench:
    """A stood-up fleet ready for load: platform + its deployments."""

    platform: Platform
    deployments: "List[CompositeDeployment]"
    #: composite name -> shard id it was pinned to.
    placement: "Dict[str, int]" = field(default_factory=dict)


def build_fleet_chains(
    shards: int,
    composites: int = 8,
    tasks: int = 3,
    seed: int = 0,
    processing_ms: float = 1.0,
    service_latency_ms: float = 5.0,
) -> FleetBench:
    """A fleet of chain composites, spread evenly across shards.

    The spread is pinned (``shard = index % shards``) rather than
    hashed so every shard carries exactly its share of the offered load
    — the controlled-variable setup the scale-out claim needs.  Every
    component service is deployed to its composite's shard (shards are
    share-nothing), each on its own host.
    """
    platform = Platform(PlatformConfig(
        fleet=FleetConfig(shards=shards),
        seed=seed,
        processing_ms=processing_ms,
    ))
    bench = FleetBench(platform=platform, deployments=[])
    for index in range(composites):
        name = f"FleetChain{index:02d}"
        shard = index % shards
        bench.deployments.append(deploy_chain(
            platform.deployer, name, index, tasks, seed,
            service_latency_ms, shard=shard,
        ))
        bench.placement[name] = shard
    return bench


@dataclass
class FleetRunReport:
    """Measured outcome of one open-loop run against a fleet."""

    shards: int
    requests: int
    completed: int
    latencies_ms: "List[float]" = field(default_factory=list)
    #: The slowest shard's virtual quiesce time — the open-loop makespan.
    makespan_ms: float = 0.0
    #: Wall-clock seconds the fleet pump took (informational:
    #: load-dependent and not CI-stable).
    wall_seconds: float = 0.0
    messages_by_shard: "Dict[int, int]" = field(default_factory=dict)
    requests_by_shard: "Dict[int, int]" = field(default_factory=dict)

    @property
    def messages_total(self) -> int:
        return sum(self.messages_by_shard.values())

    @property
    def throughput_rps(self) -> float:
        """Completed requests per *simulated* second of makespan."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.completed / (self.makespan_ms / 1000.0)

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 0.50)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 0.99)

    def row(self) -> "Dict[str, Any]":
        """Flat dict for ledger rows and table printing."""
        return {
            "shards": self.shards,
            "requests": self.requests,
            "completed": self.completed,
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "makespan_ms": round(self.makespan_ms, 2),
            "msgs_total": self.messages_total,
            "msgs_by_shard": [
                self.messages_by_shard[shard_id]
                for shard_id in sorted(self.messages_by_shard)
            ],
            "wall_seconds": round(self.wall_seconds, 3),
        }


def run_fleet_open_loop(
    bench: FleetBench,
    arrival_times_ms: "Sequence[float]",
    operation: str = "run",
    arguments: "Optional[Mapping[str, Any]]" = None,
    session_name: str = "loadgen",
    session_host: str = "frontend",
) -> FleetRunReport:
    """Inject an open-loop schedule and pump the fleet to quiescence.

    Each arrival is assigned round-robin over the bench's composites
    and scheduled on the owning shard's simulator at its arrival time;
    submissions therefore enter through the real
    :class:`~repro.api.handles.Session` routing layer, from the shard's
    own event queue, at the modelled instant.
    """
    platform = bench.platform
    fleet = platform.fleet
    if fleet is None:
        raise ValueError("run_fleet_open_loop needs a fleet-mode platform")
    session = platform.session(session_name, session_host)

    submissions: "List[Any]" = []  # (arrival_ms, handle) pairs
    requests_by_shard: "Dict[int, int]" = dict.fromkeys(fleet.shards, 0)
    arguments = dict(arguments or {})
    for index, arrival_ms in enumerate(arrival_times_ms):
        deployment = bench.deployments[index % len(bench.deployments)]
        shard_id = fleet.directory.shard_of(deployment.composite.name)
        requests_by_shard[shard_id] += 1
        fleet.shards[shard_id].transport.simulator.schedule(
            arrival_ms,
            lambda d=deployment, t=arrival_ms: submissions.append(
                (t, session.submit(d, operation, arguments))
            ),
        )

    expected = len(arrival_times_ms)
    wall_start = time.perf_counter()
    platform.wait_for(
        lambda: len(submissions) == expected
        and all(h.done() for _, h in submissions)
    )
    wall_seconds = time.perf_counter() - wall_start

    # Open-loop response time: modelled arrival instant -> result
    # delivered back at the session's shard client.  Both timestamps
    # are on the owning shard's clock, so queueing anywhere on the
    # request *or* response path counts — exactly what a user of a
    # saturated fleet experiences.
    latencies = [
        h.peek().finished_ms - arrival
        for arrival, h in submissions
        if h.peek() is not None and h.peek().ok
    ]
    makespan = max(
        (shard.now_ms() for shard_id, shard in fleet.shards.items()
         if requests_by_shard[shard_id] > 0),
        default=0.0,
    )
    return FleetRunReport(
        shards=len(fleet.shards),
        requests=expected,
        completed=sum(1 for _, h in submissions
                      if h.peek() is not None and h.peek().ok),
        latencies_ms=latencies,
        makespan_ms=makespan,
        wall_seconds=wall_seconds,
        messages_by_shard=fleet.message_counts(),
        requests_by_shard=requests_by_shard,
    )
