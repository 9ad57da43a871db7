"""Execution tracing via transport observation.

The tracer is deliberately *passive*: it reads the same protocol
messages the coordinators exchange (notify/invoke/complete/…), so
attaching it changes nothing about execution — the monitoring analogue
of a network tap on the original platform's sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.kernel.actor import subscribe_deliveries
from repro.net.message import Message
from repro.net.transport import Transport
from repro.perf.events import PerfEvent, PerfEventLog
from repro.resilience.events import ResilienceEvent, ResilienceEventLog
from repro.runtime.protocol import MessageKinds


@dataclass(frozen=True)
class TraceEvent:
    """One observed coordination step of an execution."""

    time_ms: float
    kind: str
    source: str          # node (host) the message came from
    target: str          # node (host) it was delivered to
    detail: str = ""     # flat-node / service / event name


@dataclass
class ExecutionTimeline:
    """Everything observed about one execution."""

    execution_id: str
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def started_ms(self) -> float:
        return self.events[0].time_ms if self.events else 0.0

    @property
    def finished_ms(self) -> float:
        return self.events[-1].time_ms if self.events else 0.0

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms

    def states_fired(self) -> "List[str]":
        """Flat-node ids in notification order (the path taken)."""
        seen: List[str] = []
        for event in self.events:
            if event.kind == MessageKinds.NOTIFY and event.detail:
                if event.detail not in seen:
                    seen.append(event.detail)
        return seen

    def services_invoked(self) -> "List[str]":
        """Service operations invoked, in order, with repeats."""
        return [
            event.detail for event in self.events
            if event.kind == MessageKinds.INVOKE
        ]

    def hosts_touched(self) -> "List[str]":
        hosts: List[str] = []
        for event in self.events:
            for host in (event.source, event.target):
                if host not in hosts:
                    hosts.append(host)
        return hosts

    @property
    def outcome(self) -> str:
        """'success', 'fault', 'timeout' or 'running'."""
        for event in reversed(self.events):
            if event.kind == MessageKinds.EXECUTE_RESULT:
                return event.detail or "unknown"
        return "running"

    def render(self) -> str:
        """Human-readable timeline (the monitoring console view)."""
        lines = [f"execution {self.execution_id} "
                 f"({self.outcome}, {self.duration_ms:.1f} ms)"]
        base = self.started_ms
        for event in self.events:
            offset = event.time_ms - base
            lines.append(
                f"  +{offset:8.2f}ms  {event.kind:<15} "
                f"{event.source} -> {event.target}"
                + (f"  [{event.detail}]" if event.detail else "")
            )
        return "\n".join(lines)


def _detail_of(message: Message) -> str:
    body = message.body
    if message.kind == MessageKinds.NOTIFY:
        return str(body.get("from_node", ""))
    if message.kind == MessageKinds.INVOKE:
        return str(body.get("operation", ""))
    if message.kind == MessageKinds.SIGNAL:
        return str(body.get("event", ""))
    if message.kind == MessageKinds.COMPLETE:
        return str(body.get("final_node", ""))
    if message.kind == MessageKinds.EXECUTION_FAULT:
        return str(body.get("reason", ""))[:80]
    if message.kind == MessageKinds.EXECUTE_RESULT:
        return str(body.get("status", ""))
    return ""


class ExecutionTracer:
    """Observes a transport and maintains per-execution timelines."""

    #: Message kinds that participate in execution timelines.
    TRACED_KINDS = frozenset({
        MessageKinds.NOTIFY,
        MessageKinds.INVOKE,
        MessageKinds.INVOKE_RESULT,
        MessageKinds.COMPLETE,
        MessageKinds.EXECUTION_FAULT,
        MessageKinds.EXECUTE_RESULT,
        MessageKinds.SIGNAL,
    })

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self._timelines: Dict[str, ExecutionTimeline] = {}
        self._attached = False
        self._detach: "Callable[[], None]" = lambda: None
        #: The platform's resilience event log (retry, hedge_fired,
        #: breaker_open, failover, ...), attached by the platform when
        #: resilience is enabled — the monitoring console shows these
        #: next to the per-execution message timelines.
        self.resilience: Optional[ResilienceEventLog] = None
        #: The platform's perf event log (cache_hit, cache_miss,
        #: cache_invalidate, ...), attached by the platform — the fast
        #: path's audit trail, read through :meth:`perf_events`.
        self.perf: Optional[PerfEventLog] = None

    def attach(self, via: Optional[object] = None) -> "ExecutionTracer":
        """Start observing deliveries.

        ``via`` is an :class:`~repro.kernel.ActorKernel`: the tracer
        then rides the kernel's delivery-tap chain (one shared transport
        observer for all passive subsystems) instead of attaching its
        own observer.  Without it, the standalone transport-observer
        path is used, as in v1.
        """
        if not self._attached:
            self._detach = subscribe_deliveries(
                via if via is not None else self.transport, self._observe
            )
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self._detach()
            self._attached = False

    def __enter__(self) -> "ExecutionTracer":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def _observe(self, message: Message, time_ms: float) -> None:
        if message.kind not in self.TRACED_KINDS:
            return
        execution_id = message.body.get("execution_id", "")
        if not execution_id:
            return
        timeline = self._timelines.get(execution_id)
        if timeline is None:
            timeline = ExecutionTimeline(execution_id=execution_id)
            self._timelines[execution_id] = timeline
        timeline.events.append(TraceEvent(
            time_ms=time_ms,
            kind=message.kind,
            source=message.source,
            target=message.target,
            detail=_detail_of(message),
        ))

    # Queries ----------------------------------------------------------------

    def timeline(self, execution_id: str) -> Optional[ExecutionTimeline]:
        return self._timelines.get(execution_id)

    def timelines(self) -> "List[ExecutionTimeline]":
        return list(self._timelines.values())

    def running(self) -> "List[ExecutionTimeline]":
        return [t for t in self._timelines.values()
                if t.outcome == "running"]

    def resilience_events(
        self,
        kind: Optional[str] = None,
        subject: Optional[str] = None,
    ) -> "List[ResilienceEvent]":
        """Recorded resilience decisions (``[]`` without resilience)."""
        if self.resilience is None:
            return []
        return self.resilience.events(kind=kind, subject=subject)

    def perf_events(
        self,
        kind: Optional[str] = None,
        subject: Optional[str] = None,
    ) -> "List[PerfEvent]":
        """Recorded fast-path decisions (``[]`` without a perf log)."""
        if self.perf is None:
            return []
        return self.perf.events(kind=kind, subject=subject)

    def batching(self) -> "Dict[str, float]":
        """The transport's delivery-batching numbers, as monitoring sees
        them: flush count, batched message count and mean messages per
        flush (all zero when batching is off)."""
        stats = self.transport.stats
        return {
            "batch_flushes": stats.batch_flushes,
            "batched_messages": stats.batched_messages,
            "batch_efficiency": stats.batch_efficiency(),
        }

    def clear(self) -> None:
        self._timelines.clear()
