"""SELF-SERV reproduction: declarative composition and peer-to-peer
execution of web services.

This library reproduces *SELF-SERV: A Platform for Rapid Composition of
Web Services in a Peer-to-Peer Environment* (Sheng, Benatallah, Dumas,
Mak; VLDB 2002): statechart-based composite services, service
communities with policy-driven member selection, statically generated
routing tables, and fully decentralised peer-to-peer orchestration —
plus the centralised baseline the paper argues against and a simulated
network testbed to measure both.

The public face is the v2 :class:`Platform` API — a declarative facade
with fluent provider/composer flows and **handle-based execution**:
``session.submit`` returns an :class:`ExecutionHandle` immediately, and
``submit_many``/``gather`` fan batches of invocations out concurrently
over the peer-to-peer network.

Quickstart::

    from repro import Platform
    from repro.demo import deploy_travel_scenario

    platform = Platform()                     # deterministic sim network
    deployed = deploy_travel_scenario(platform.deployer)
    session = platform.session("alice", "alice-laptop")
    handle = session.submit(
        deployed.address, "arrangeTrip",
        {"customer": "Alice", "destination": "cairns",
         "departure_date": "2026-07-01", "return_date": "2026-07-10"},
    )
    result = handle.result()
    assert result.ok and result.outputs["car_ref"]  # Cairns reef is far!

Under heavy traffic the platform runs on the ``repro.perf`` fast path
(on by default, tuned via :class:`PerfConfig`): routing plans compiled
once at deploy time, ``locate()`` served from a generation-invalidated
cache over an indexed UDDI registry, and optional transport delivery
batching — see ``docs/PERF.md`` and
``benchmarks/results/CLAIM-FASTPATH.txt``.

Blocking :class:`RuntimeClient` calls remain available beneath the
sessions for callers that drive the runtime directly.
"""

from repro.api import (
    Composition,
    ExecutionHandle,
    ExecutionResult,
    Platform,
    PlatformConfig,
    ProviderSite,
    ResolvedBinding,
    Session,
)
from repro.exceptions import SelfServError
from repro.kernel import Actor, ActorKernel
from repro.monitoring import ExecutionTracer
from repro.perf import PerfConfig
from repro.resilience import HedgePolicy, ResilienceConfig, RetryPolicy
from repro.net.simnet import SimTransport
from repro.runtime.client import RuntimeClient
from repro.services.community import ServiceCommunity
from repro.services.composite import CompositeService
from repro.services.elementary import ElementaryService
from repro.statecharts.builder import StatechartBuilder

__version__ = "2.0.0"

__all__ = [
    # v2 API
    "Platform",
    "PlatformConfig",
    "Session",
    "ExecutionHandle",
    "ExecutionResult",
    "ResolvedBinding",
    "Composition",
    "ProviderSite",
    # resilience
    "HedgePolicy",
    "ResilienceConfig",
    "RetryPolicy",
    # perf fast path
    "PerfConfig",
    # actor kernel
    "Actor",
    "ActorKernel",
    # building blocks
    "CompositeService",
    "ElementaryService",
    "ExecutionTracer",
    "SelfServError",
    "ServiceCommunity",
    "SimTransport",
    "StatechartBuilder",
    # blocking runtime client
    "RuntimeClient",
    "__version__",
]
