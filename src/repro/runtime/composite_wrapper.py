"""The composite service's own wrapper.

"When the wrapper of the composite service receives the document, it sends
a message to the coordinator of the state(s) in the statechart which
need(s) to be entered in the first place. [...] Eventually, the
coordinators of the states which are exited in the last place send their
notification of termination back to the composite service wrapper."
(paper §4)

The composite wrapper is a kernel :class:`~repro.kernel.Actor` that:
accepts ``execute`` envelopes, seeds the entry coordinator with a start
token, waits for ``complete`` (or ``execution_fault``), enforces an
optional execution deadline, and answers the client with
``execute_result``.  It also keeps an execution log that
examples/benchmarks read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kernel.actor import Actor, ActorKernel, handles
from repro.kernel.envelopes import (
    Complete,
    Execute,
    ExecuteAck,
    ExecuteResult,
    ExecutionFault,
    Notify,
    Signal,
)
from repro.net.message import Message
from repro.net.transport import Transport
from repro.runtime.protocol import (
    START_EDGE,
    WRAPPER_NODE,
    coordinator_endpoint,
    wrapper_endpoint,
)
from repro.services.description import OperationSpec


@dataclass
class ExecutionRecord:
    """One composite execution as tracked by the wrapper."""

    execution_id: str
    operation: str
    arguments: Dict[str, Any]
    client_node: str
    client_endpoint: str
    status: str = "running"  # running | success | fault | timeout
    outputs: Dict[str, Any] = field(default_factory=dict)
    fault: str = ""
    request_key: str = ""
    started_ms: float = 0.0
    finished_ms: float = 0.0
    cancel_deadline: Optional[Callable[[], None]] = None

    @property
    def finished(self) -> bool:
        return self.status != "running"

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms


class CompositeWrapperRuntime(Actor):
    """Runtime wrapper of a deployed composite-service operation set.

    ``entry_points`` maps each operation name to the ``(entry_node_id,
    entry_host)`` of its statechart's initial coordinator, and
    ``output_specs`` to the operation's declared outputs (used to project
    the final environment into the result document).

    Finishing an execution sends nothing to the coordinators: they hold
    state only while a join is incomplete, so a successful execution
    has already left none behind.  The wrapper's own
    :class:`ExecutionRecord` table is still kept for every execution;
    snapshots capture it and latency reports read it.
    """

    def __init__(
        self,
        composite: str,
        host: str,
        transport: Transport,
        entry_points: "Dict[str, Tuple[str, str]]",
        output_specs: "Dict[str, OperationSpec]",
        default_timeout_ms: Optional[float] = None,
        event_targets: Optional[
            "Dict[str, Dict[str, List[Tuple[str, str]]]]"
        ] = None,
        kernel: Optional[ActorKernel] = None,
    ) -> None:
        super().__init__(host, transport, kernel)
        self.composite = composite
        self.entry_points = dict(entry_points)
        self.output_specs = dict(output_specs)
        self.default_timeout_ms = default_timeout_ms
        # operation -> event name -> [(node_id, host)] of the coordinators
        # whose routing tables consume that event; computed statically by
        # the deployer, like all other coordination knowledge.
        self.event_targets = dict(event_targets or {})
        self._executions: Dict[str, ExecutionRecord] = {}
        self._counter = itertools.count(1)

    @property
    def endpoint_name(self) -> str:
        return wrapper_endpoint(self.composite)

    # Message handling ---------------------------------------------------------

    @handles(Execute)
    def _on_execute(self, execute: Execute, message: Message) -> None:
        operation = execute.operation
        arguments = dict(execute.arguments)
        client_node, client_endpoint = message.reply_address()
        execution_id = f"{self.composite}:{operation}:{next(self._counter)}"

        record = ExecutionRecord(
            execution_id=execution_id,
            operation=operation,
            arguments=arguments,
            client_node=client_node,
            client_endpoint=client_endpoint,
            started_ms=self.transport.now_ms(),
            request_key=execute.request_key,
        )
        self._executions[execution_id] = record

        # Acknowledge immediately so the client learns the execution id
        # and can signal ECA events while the execution runs.
        self.send(client_node, client_endpoint, ExecuteAck(
            execution_id=execution_id,
            request_key=execute.request_key,
        ))

        entry = self.entry_points.get(operation)
        if entry is None:
            self._finish(record, "fault",
                         fault=f"composite {self.composite!r} has no "
                               f"operation {operation!r}")
            return

        timeout_ms = (
            execute.timeout_ms if execute.timeout_ms is not None
            else self.default_timeout_ms
        )
        if timeout_ms is not None:
            def on_deadline() -> None:
                self._on_deadline(execution_id)

            record.cancel_deadline = self.transport.schedule(
                self.host, float(timeout_ms), on_deadline
            )

        entry_node, entry_host = entry
        # Seed the entry coordinator: the start token carries the request
        # arguments as the initial variable environment.
        self.send(
            entry_host,
            coordinator_endpoint(self.composite, operation, entry_node),
            Notify(
                execution_id=execution_id,
                edge_id=START_EDGE,
                from_node=WRAPPER_NODE,
                env=arguments,
            ),
        )

    @handles(Complete)
    def _on_complete(self, complete: Complete, message: Message) -> None:
        record = self._executions.get(complete.execution_id)
        if record is None or record.finished:
            return
        env = complete.env
        spec = self.output_specs.get(record.operation)
        if spec is not None and spec.outputs:
            outputs = {p.name: env.get(p.name) for p in spec.outputs}
        else:
            outputs = dict(env)
        self._finish(record, "success", outputs=outputs)

    @handles(ExecutionFault)
    def _on_fault(self, fault: ExecutionFault, message: Message) -> None:
        record = self._executions.get(fault.execution_id)
        if record is None or record.finished:
            return
        self._finish(record, "fault",
                     fault=fault.reason or "unknown fault")

    @handles(Signal)
    def _on_signal(self, signal: Signal, message: Message) -> None:
        """Fan an ECA event out to the coordinators that consume it.

        The fan-out set is static deployment knowledge (which routing
        tables carry which event names), so an event touches only the
        hosts that can react to it.
        """
        record = self._executions.get(signal.execution_id)
        if record is None or record.finished:
            return
        event = signal.event
        targets = self.event_targets.get(record.operation, {}).get(event, [])
        for node_id, host in targets:
            self.send(
                host,
                coordinator_endpoint(
                    self.composite, record.operation, node_id
                ),
                Signal(
                    execution_id=record.execution_id,
                    event=event,
                    payload=signal.payload,
                ),
            )

    def _on_deadline(self, execution_id: str) -> None:
        record = self._executions.get(execution_id)
        if record is None or record.finished:
            return
        self._finish(record, "timeout",
                     fault="execution exceeded its deadline")

    def _finish(
        self,
        record: ExecutionRecord,
        status: str,
        outputs: Optional[Dict[str, Any]] = None,
        fault: str = "",
    ) -> None:
        record.status = status
        record.outputs = outputs or {}
        record.fault = fault
        record.finished_ms = self.transport.now_ms()
        if record.cancel_deadline is not None:
            record.cancel_deadline()
            record.cancel_deadline = None
        self.send(record.client_node, record.client_endpoint, ExecuteResult(
            execution_id=record.execution_id,
            status=record.status,
            outputs=record.outputs,
            fault=record.fault,
            request_key=record.request_key,
        ))

    # Introspection ---------------------------------------------------------------

    def record(self, execution_id: str) -> Optional[ExecutionRecord]:
        return self._executions.get(execution_id)

    def records(self) -> "List[ExecutionRecord]":
        return list(self._executions.values())

    def running_count(self) -> int:
        return sum(1 for r in self._executions.values() if not r.finished)
