"""Declarative configuration of the sharded scale-out layer.

A :class:`FleetConfig` on :attr:`repro.api.PlatformConfig.fleet` turns a
platform into a fleet of ``shards`` share-nothing shards.  Each shard is
a classic single-shard :class:`~repro.api.platform.Platform` on its own
simulated transport (with an independent random stream forked from the
fleet seed), so it has its own service directory, UDDI registry and
actor kernel — the partitioning the paper's scale argument calls for,
built into the runtime rather than bolted onto benchmarks.  All shards
are pumped serially on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FleetConfig:
    """Everything the fleet layer needs beyond the base platform config.

    Per-shard transport tuning (latency model, loss rate,
    ``processing_ms``, delivery batching) comes from the owning
    :class:`~repro.api.PlatformConfig` and applies to every shard alike;
    this object only describes the fleet topology itself.
    """

    #: Number of share-nothing shards the platform is partitioned into.
    shards: int = 2
    #: Virtual nodes per shard on the consistent-hash ring.  More vnodes
    #: mean a more even key split and smaller movement on membership
    #: changes, at a small ring-build cost.
    virtual_nodes: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("FleetConfig.shards must be >= 1")
        if self.virtual_nodes < 1:
            raise ValueError("FleetConfig.virtual_nodes must be >= 1")
