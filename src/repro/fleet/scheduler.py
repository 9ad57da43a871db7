"""Shard slices and the fleet scheduler.

A :class:`ShardSlice` is one share-nothing partition of the platform: a
private simulated transport (own clock, own seeded random streams), a
private :class:`~repro.runtime.directory.ServiceDirectory` and
:class:`~repro.discovery.registry.UddiRegistry`, an actor kernel and a
deployer.  Nothing inside a slice ever references another slice, which
is what makes the next part safe:

The :class:`FleetScheduler` pumps every shard's event queue on its own
worker thread.  A per-shard lock guarantees at most one thread ever
advances a given shard's simulator, so *within* a shard execution stays
bit-for-bit deterministic (same seed, same trace — exactly as on a
single-shard platform), while *across* shards the pumps overlap in real
wall-clock time.  Cross-shard coordination does not exist at the message
layer by construction; the only fan-in point is the scheduler's
``wait_for``, which alternates parallel pump rounds with predicate
checks on the calling thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.deployment.deployer import Deployer
from repro.discovery.engine import ServiceDiscoveryEngine
from repro.kernel.actor import ActorKernel
from repro.net.simnet import SimTransport
from repro.runtime.directory import ServiceDirectory
from repro.sim.random_streams import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.config import PlatformConfig


@dataclass
class ShardSlice:
    """One share-nothing partition of a fleet platform."""

    shard_id: int
    transport: SimTransport
    directory: ServiceDirectory
    kernel: ActorKernel
    deployer: Deployer
    engine: ServiceDiscoveryEngine
    streams: RandomStreams
    #: Guards the simulator: at most one thread pumps this shard at a
    #: time, preserving the deterministic event order within the shard.
    lock: threading.Lock
    #: The shard's :class:`~repro.durability.ShardDurability` bundle
    #: (``None`` when ``PlatformConfig.durability`` is unset).  The
    #: bundle outlives the slice: ``recover_shard`` re-attaches it to a
    #: fresh slice after a crash.
    durability: Optional[object] = None

    def ensure_node(self, host: str):
        if not self.transport.has_node(host):
            return self.transport.add_node(host)
        return self.transport.node(host)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardSlice {self.shard_id} "
            f"{len(self.directory.services())} services @ "
            f"{self.transport.now_ms():.1f}ms>"
        )


def build_shard_slice(
    shard_id: int,
    config: "PlatformConfig",
    streams: RandomStreams,
    durability=None,
) -> ShardSlice:
    """Materialise one shard from the owning platform config.

    The shard's ``locate()`` cache is disabled — the fleet discovery
    facade layers one fleet-level cache over all shards instead, so a
    cross-shard fan-out hit is cached exactly once.
    """
    transport = SimTransport(
        latency=config.latency,
        loss_rate=config.loss_rate,
        rng=streams.stream("network"),
        processing_ms=config.processing_ms,
        batch_window_ms=config.perf.batch_window_ms,
        batch_max=config.perf.batch_max_messages,
    )
    directory = ServiceDirectory()
    kernel = ActorKernel(transport, zero_copy=config.perf.zero_copy_local)
    deployer = Deployer(
        transport,
        directory,
        registry=config.registry,
        placement=config.build_placement(),
        kernel=kernel,
    )
    engine = ServiceDiscoveryEngine(
        transport,
        directory,
        perf=replace(config.perf, locate_cache_size=0),
    )
    if durability is not None:
        durability.attach(transport=transport, kernel=kernel,
                          deployer=deployer, engine=engine)
    return ShardSlice(
        shard_id=shard_id,
        transport=transport,
        directory=directory,
        kernel=kernel,
        deployer=deployer,
        engine=engine,
        streams=streams,
        lock=threading.Lock(),
        durability=durability,
    )


class FleetScheduler:
    """Drives every shard's mailbox pump; the fleet's only clock fan-in.

    ``parallel=True`` (the default) runs one worker thread per shard in
    each pump round; ``False`` pumps shards round-robin on the calling
    thread.  Results are identical either way — shards share nothing,
    and each shard's event order is fixed by its own simulator — so the
    flag only chooses wall-clock parallelism vs. zero-thread simplicity.
    """

    def __init__(
        self, shards: "List[ShardSlice]", parallel: bool = True
    ) -> None:
        if not shards:
            raise ValueError("FleetScheduler needs at least one shard")
        self.shards = list(shards)
        self.parallel = parallel

    # Membership -------------------------------------------------------------

    def remove_shard(self, shard_id: int) -> Optional[ShardSlice]:
        """Stop pumping one shard (killed); returns its slice if present."""
        for index, shard in enumerate(self.shards):
            if shard.shard_id == shard_id:
                return self.shards.pop(index)
        return None

    def add_shard(self, slice_: ShardSlice) -> None:
        """(Re-)admit a shard to the pump set, keeping shard-id order."""
        self.shards.append(slice_)
        self.shards.sort(key=lambda shard: shard.shard_id)

    # Clock ------------------------------------------------------------------

    def now_ms(self) -> float:
        """The fleet-wide clock: the furthest-ahead shard clock.

        Shard clocks advance independently (an idle shard's clock
        lags), so the max is the only value that never runs backwards.
        The empty-fleet default covers the window while every shard is
        killed awaiting recovery.
        """
        return max((s.transport.now_ms() for s in self.shards), default=0.0)

    def processed_events(self) -> int:
        """Total simulator events executed across all shards."""
        return sum(s.transport.simulator.processed_events
                   for s in self.shards)

    # Pumping ----------------------------------------------------------------

    def pump_shard(
        self, shard: ShardSlice, until: Optional[float] = None
    ) -> None:
        """Drain one shard's event queue (to idle, or to virtual time).

        Holds the shard lock for the whole drain: one thread owns the
        shard's simulator at a time, so the deterministic sim clock is
        preserved within the shard no matter how pump rounds are
        scheduled across threads.
        """
        with shard.lock:
            if until is None:
                shard.transport.run_until_idle()
            else:
                shard.transport.simulator.run(until=until)

    def pump_all(self, until_offset_ms: Optional[float] = None) -> int:
        """One pump round over every shard; returns events executed.

        ``until_offset_ms`` bounds each shard's *virtual* progress
        relative to its own clock (used by bounded waits); ``None``
        drains every shard to idle.
        """
        before = self.processed_events()
        deadlines = [
            None if until_offset_ms is None
            else s.transport.now_ms() + until_offset_ms
            for s in self.shards
        ]
        if self.parallel and len(self.shards) > 1:
            threads = [
                threading.Thread(
                    target=self.pump_shard,
                    args=(shard, deadline),
                    name=f"shard-pump-{shard.shard_id}",
                    daemon=True,
                )
                for shard, deadline in zip(self.shards, deadlines)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for shard, deadline in zip(self.shards, deadlines):
                self.pump_shard(shard, deadline)
        return self.processed_events() - before

    def run_until_idle(self) -> int:
        """Pump rounds until every shard quiesces; returns total events.

        Multiple rounds matter when a predicate callback (or test code
        between rounds) injects new work; within one round a drained
        shard stays drained because nothing crosses shard boundaries.
        """
        total = 0
        while True:
            executed = self.pump_all()
            total += executed
            if executed == 0:
                return total

    def wait_for(
        self,
        predicate: Callable[[], bool],
        timeout_ms: Optional[float] = None,
    ) -> bool:
        """Pump all shards until ``predicate()`` holds (or nothing moves).

        The predicate is only evaluated on the calling thread between
        pump rounds — never concurrently with shard pumps — so it may
        read any cross-shard state without synchronisation.  When the
        fleet quiesces with the predicate still false, ``timeout_ms``
        grants one bounded round of extra *virtual* time per shard so
        pending timers (execution deadlines, breaker probes) get their
        chance to fire — mirroring the simulated transport's timeout
        semantics.
        """
        while not predicate():
            executed = self.pump_all()
            if predicate():
                return True
            if executed == 0:
                if timeout_ms is not None:
                    self.pump_all(until_offset_ms=timeout_ms)
                return predicate()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "parallel" if self.parallel else "serial"
        return f"<FleetScheduler {len(self.shards)} shards, {mode}>"
