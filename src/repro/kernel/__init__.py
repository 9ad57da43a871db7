"""``repro.kernel`` — the unified actor substrate (PR 4).

Every runtime participant — coordinators, the three wrapper variants,
the end-user client, and the central baseline orchestrator — is an
:class:`Actor` on this kernel: typed :mod:`envelopes
<repro.kernel.envelopes>` instead of raw dict bodies, a declarative
verb -> handler dispatch table instead of hand-rolled ``if``-chains, a
kernel-owned :class:`Mailbox` as the delivery point, and one
:class:`middleware <repro.kernel.middleware.ActorMiddleware>` chain
through which tracing, health tracking and perf counters observe every
actor identically.

See ``docs/ARCHITECTURE.md`` ("Kernel & actor model") for the guided
tour.
"""

from repro.kernel.actor import (
    Actor,
    ActorKernel,
    handles,
    subscribe_deliveries,
)
from repro.kernel.envelopes import (
    ENVELOPE_TYPES,
    Complete,
    Envelope,
    Execute,
    ExecuteAck,
    ExecuteResult,
    ExecutionFault,
    Invoke,
    InvokeResult,
    Notify,
    Signal,
    decode,
    decode_message,
    envelope_type,
)
from repro.kernel.mailbox import Mailbox
from repro.kernel.middleware import ActorMiddleware, KernelCounters

__all__ = [
    "Actor",
    "ActorKernel",
    "ActorMiddleware",
    "Complete",
    "ENVELOPE_TYPES",
    "Envelope",
    "Execute",
    "ExecuteAck",
    "ExecuteResult",
    "ExecutionFault",
    "Invoke",
    "InvokeResult",
    "KernelCounters",
    "Mailbox",
    "Notify",
    "Signal",
    "decode",
    "decode_message",
    "envelope_type",
    "handles",
    "subscribe_deliveries",
]
