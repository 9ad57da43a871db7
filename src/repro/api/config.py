"""Declarative platform configuration.

A :class:`PlatformConfig` captures every environment decision a
:class:`~repro.api.platform.Platform` needs — which transport to run on,
how coordinators are placed, which selection policy communities default
to, and the default timeout budget — so that application code describes
*what* to run and the config describes *where and how*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING, Union

from repro.deployment.placement import (
    AdjacentPlacement,
    CompositeHostPlacement,
    PlacementPolicy,
)
from repro.exceptions import SelfServError
from repro.expr import FunctionRegistry
from repro.net.latency import LatencyModel
from repro.net.simnet import SimTransport
from repro.net.transport import Transport
from repro.perf.config import PerfConfig
from repro.resilience.config import ResilienceConfig
from repro.selection.policies import SelectionPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.durability.config import DurabilityConfig
    from repro.fleet.config import FleetConfig

#: Transport registry names accepted by :attr:`PlatformConfig.transport`.
TRANSPORTS = ("sim", "wire")

#: Placement registry names accepted by :attr:`PlatformConfig.placement`.
PLACEMENTS = {
    "composite-host": CompositeHostPlacement,
    "adjacent": AdjacentPlacement,
}


@dataclass
class PlatformConfig:
    """Everything a :class:`~repro.api.platform.Platform` is built from.

    The defaults give the deterministic simulated environment used
    throughout the tests and benchmarks; pass ``transport="wire"`` for
    a real clock and real sockets, or a pre-built :class:`Transport`
    instance for full control.
    """

    #: ``"sim"``, ``"wire"`` (real TCP sockets, see
    #: :mod:`repro.net.wire`) or a ready :class:`Transport` instance.
    transport: "Union[str, Transport]" = "sim"
    #: Seed of the simulated transport's random streams (latency, loss).
    seed: int = 0
    #: Latency model for the simulated transport (``None`` = fixed default).
    latency: Optional[LatencyModel] = None
    #: Fraction of remote messages dropped by the simulated transport.
    loss_rate: float = 0.0
    #: Per-message serial handling cost at each host (sim transport only).
    processing_ms: float = 0.0
    #: Coordinator placement: a policy object, a registry name, or ``None``
    #: for the paper's composite-host default.
    placement: "Union[PlacementPolicy, str, None]" = None
    #: Guard/ECA function registry shared by all deployed coordinators.
    registry: Optional[FunctionRegistry] = None
    #: Selection policy communities are deployed with when none is given.
    default_selection_policy: "Union[SelectionPolicy, str]" = "multi-attribute"
    #: Invocation timeout for community member delegation.
    community_timeout_ms: float = 1000.0
    #: Client-side wait budget of blocking calls (``result``/``gather``/
    #: ``execute``) when the call site does not pass its own.
    default_execute_timeout_ms: Optional[float] = 60_000.0
    #: Execution deadline forwarded to composite wrappers (``None`` =
    #: each deployment's own default applies).
    default_deadline_ms: Optional[float] = None
    #: Attach an :class:`~repro.monitoring.ExecutionTracer` so that
    #: :meth:`~repro.api.handles.ExecutionHandle.trace` works.
    trace: bool = True
    #: Health-aware self-healing execution: a
    #: :class:`~repro.resilience.ResilienceConfig` enables the health
    #: registry + per-endpoint circuit breakers and (per its fields)
    #: session-level retries and hedging.  ``None`` (the default)
    #: disables the subsystem entirely.
    resilience: Optional[ResilienceConfig] = None
    #: Fast-path tuning (``repro.perf``): routing-plan compilation, the
    #: ``locate()`` cache, and transport delivery batching.  The default
    #: enables compilation and the cache; ``PerfConfig.disabled()``
    #: restores the seed path end to end (the benchmark baseline).
    perf: PerfConfig = field(default_factory=PerfConfig)
    #: Sharded scale-out (``repro.fleet``): a
    #: :class:`~repro.fleet.FleetConfig` partitions the platform into
    #: share-nothing shards (per-shard transports, directories,
    #: registries and kernels) behind the same Platform/Session API.
    #: ``None`` (the default) keeps the classic single-shard platform.
    #: Fleet mode requires the simulated transport and is mutually
    #: exclusive with ``resilience`` (both validated at build time);
    #: the execution tracer binds to a single transport, so in fleet
    #: mode ``Platform.tracer`` is ``None`` and ``handle.trace()``
    #: raises with a fleet-specific message.
    fleet: "Optional[FleetConfig]" = None
    #: Crash durability (``repro.durability``): a
    #: :class:`~repro.durability.DurabilityConfig` adds a write-ahead
    #: envelope log, quiescent-barrier snapshots and deterministic
    #: crash recovery.  On the classic platform this wires one
    #: :class:`~repro.durability.ShardDurability` bundle (recover with
    #: :func:`repro.durability.recover_platform`); in fleet mode every
    #: shard gets its own bundle under ``<dir>/shard-<id>/`` and the
    #: runtime gains ``kill_shard()``/``recover_shard()``.  ``None``
    #: (the default) keeps the platform purely in-memory.
    durability: "Optional[DurabilityConfig]" = None

    def _check_sim_only_fields(self) -> None:
        """Reject sim-tuning fields on a transport that cannot honour them.

        Silently dropping ``loss_rate``/``latency``/... would invalidate
        an experiment without any signal, so this is an error.
        """
        ignored = []
        if self.latency is not None:
            ignored.append("latency")
        if self.loss_rate != 0.0:
            ignored.append("loss_rate")
        if self.processing_ms != 0.0:
            ignored.append("processing_ms")
        if self.seed != 0:
            ignored.append("seed")
        # Coalescing windows need a clock to hold messages against; the
        # wire transport only batches what one loop turn already holds
        # (perf.batch_max_messages) and a pre-built instance is
        # configured directly.
        if self.perf.batch_window_ms != 0.0:
            ignored.append("perf.batch_window_ms")
        if ignored:
            raise SelfServError(
                f"config field(s) {ignored} only apply to the simulated "
                f"transport, but transport={self.transport!r}; drop them "
                f"or configure the transport instance directly"
            )

    def build_transport(self) -> Transport:
        """Materialise the configured transport."""
        if isinstance(self.transport, Transport):
            self._check_sim_only_fields()
            return self.transport
        if self.transport == "sim":
            return SimTransport(
                latency=self.latency,
                loss_rate=self.loss_rate,
                rng=random.Random(self.seed),
                processing_ms=self.processing_ms,
                batch_window_ms=self.perf.batch_window_ms,
                batch_max=self.perf.batch_max_messages,
            )
        if self.transport == "wire":
            self._check_sim_only_fields()
            # Imported lazily: the wire package layers on the kernel
            # codecs, which sit above this config module.
            from repro.net.wire.transport import WireTransport

            return WireTransport(batch_max=self.perf.batch_max_messages)
        raise SelfServError(
            f"unknown transport {self.transport!r}; expected one of "
            f"{list(TRANSPORTS)} or a Transport instance"
        )

    def build_placement(self) -> PlacementPolicy:
        """Materialise the configured placement policy."""
        if isinstance(self.placement, PlacementPolicy):
            return self.placement
        if self.placement is None:
            return CompositeHostPlacement()
        cls = PLACEMENTS.get(self.placement)
        if cls is None:
            raise SelfServError(
                f"unknown placement policy {self.placement!r}; expected "
                f"one of {sorted(PLACEMENTS)} or a PlacementPolicy instance"
            )
        return cls()
