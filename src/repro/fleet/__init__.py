"""``repro.fleet`` — sharded scale-out: the platform, partitioned.

The paper's central claim is that peer-to-peer orchestration scales
where a central engine saturates.  This package builds the scale-out
into the runtime: a platform configured with a
:class:`FleetConfig` becomes N share-nothing *shards* — each one a
classic single-shard :class:`~repro.api.platform.Platform` on its own
simulated transport (own deterministic clock), with its own service
directory, UDDI registry, actor kernel and deployer — stitched together
by

* :class:`ShardMap` — consistent hashing of services/communities onto
  shards, stable under membership changes,
* :class:`FleetDirectory` / :class:`FleetRegistry` — live views of the
  shards' directories and registries behind the familiar control-plane
  APIs,
* :class:`FleetDiscovery` — cross-shard ``locate()`` fan-out with a
  fleet-level generation-invalidated cache,
* :class:`FleetRuntime` — the shard-id -> platform mapping and the one
  serial pump that advances every shard on the calling thread,
* :class:`FleetDeployer` — shard-aware deployment with explicit
  ``shard=`` / ``affinity=`` routing overrides.

Measured scale-out numbers live in the machine-readable ledger
``benchmarks/results/BENCH_FLEET.json`` (regenerated by
``benchmarks/test_bench_fleet.py`` and regression-gated in CI by
``tools/check_bench.py``).
"""

from repro.fleet.config import FleetConfig
from repro.fleet.directory import FleetDirectory
from repro.fleet.discovery import FleetDiscovery, FleetRegistry
from repro.fleet.harness import (
    FleetBench,
    FleetRunReport,
    build_fleet_chains,
    percentile,
    run_fleet_open_loop,
)
from repro.fleet.runtime import FleetDeployer, FleetRuntime
from repro.fleet.shardmap import ShardMap

__all__ = [
    "FleetBench",
    "FleetConfig",
    "FleetDeployer",
    "FleetDirectory",
    "FleetDiscovery",
    "FleetRegistry",
    "FleetRunReport",
    "FleetRuntime",
    "ShardMap",
    "build_fleet_chains",
    "percentile",
    "run_fleet_open_loop",
]
