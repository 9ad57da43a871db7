"""``repro.perf`` — the platform's compiled fast path.

The ROADMAP's north star is "as fast as the hardware allows" under heavy
traffic; this package is the layer that gets the hot paths out of the way
of that goal.  It compiles what the seed re-derived per request and
indexes what it scanned:

* :class:`CompiledRoutingPlan` / :class:`CoordinatorDispatch` /
  :func:`compile_routing_plan` — deploy-time flattening of routing
  tables into immutable per-coordinator dispatch structures (row
  partitions, join edge sets, interned peer endpoints, shared compiled
  guard/action expressions), consumed by
  :class:`~repro.runtime.Coordinator`,
* :class:`LocateCache` / :class:`CacheStats` — the TTL +
  generation-invalidated cache behind
  :meth:`~repro.discovery.ServiceDiscoveryEngine.locate`,
* :class:`PerfConfig` — the knobs a
  :class:`~repro.api.PlatformConfig` carries (cache size/TTL,
  transport batch window, zero-copy local dispatch),
* :class:`PerfEventLog` / :class:`PerfEvent` — the cache audit trail
  surfaced through the execution tracer.

Design notes, invalidation rules and tuning guidance live in
``docs/PERF.md``; the measured claims live in
``benchmarks/results/CLAIM-FASTPATH.txt``.
"""

from repro.perf.cache import CacheStats, LocateCache
from repro.perf.config import PerfConfig
from repro.perf.events import PerfEvent, PerfEventKinds, PerfEventLog
from repro.perf.plan import (
    CompiledRoutingPlan,
    CoordinatorDispatch,
    compile_dispatch,
    compile_routing_plan,
)

__all__ = [
    "CacheStats",
    "CompiledRoutingPlan",
    "CoordinatorDispatch",
    "LocateCache",
    "PerfConfig",
    "PerfEvent",
    "PerfEventKinds",
    "PerfEventLog",
    "compile_dispatch",
    "compile_routing_plan",
]
