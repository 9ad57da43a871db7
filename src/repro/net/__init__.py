"""Messaging substrate.

The original platform exchanged XML documents over Java sockets between
provider hosts.  Here a *node* models one provider host; it exposes named
*endpoints* (wrappers and coordinators register themselves as endpoints).
A *transport* carries :class:`Message` objects between endpoints:

* :class:`~repro.net.simnet.SimTransport` — runs on the discrete-event
  simulator with configurable latency models, message loss and host
  failure injection.  Deterministic; used by all benchmarks.
* :class:`~repro.net.wire.WireTransport` — the real clock: asyncio TCP
  sockets between processes, with one event-loop thread per process
  delivering to its local nodes.  Runs the same runtime code against
  genuine concurrency and real peers.

Both collect :class:`TrafficStats`, the raw material of the paper's
message-load claims, and both support delivery batching (``repro.perf``):
coalesced delivery windows on the simulated transport
(``batch_window_ms``), the event loop's per-turn window on the wire one
(``batch_max``), measured by ``stats.batch_efficiency()`` and
``stats.wire_arrivals()``.
"""

from repro.net.latency import (
    FixedLatency,
    LatencyModel,
    UniformLatency,
    ZoneLatency,
)
from repro.net.message import Message
from repro.net.node import Endpoint, Node
from repro.net.stats import TrafficStats
from repro.net.transport import Transport
from repro.net.simnet import SimTransport

__all__ = [
    "Endpoint",
    "FixedLatency",
    "LatencyModel",
    "Message",
    "Node",
    "SimTransport",
    "TrafficStats",
    "Transport",
    "UniformLatency",
    "ZoneLatency",
]
