"""End-user client: the runtime behind Figure 3's Execute button.

A client is a kernel :class:`~repro.kernel.Actor` on the end user's own
node: it sends ``execute`` envelopes to a composite wrapper, handles the
``execute_ack``/``execute_result`` replies, and waits with the
transport's blocking primitive — virtual time on the simulator,
wall-clock polling on threads.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Dict, Mapping, Optional

from repro.exceptions import ExecutionError, ExecutionTimeoutError
from repro.kernel.actor import Actor, ActorKernel, handles
from repro.kernel.envelopes import Execute, ExecuteAck, ExecuteResult, Signal
from repro.net.message import Message
from repro.net.transport import Transport
from repro.runtime.protocol import ExecutionResult, client_endpoint

_request_ids = itertools.count(1)


class RuntimeClient(Actor):
    """A client able to execute composite (or any wrapped) services."""

    #: How many completed request keys are remembered for duplicate-result
    #: protection; old keys age out so long-lived clients stay bounded.
    COMPLETED_HISTORY = 4096

    def __init__(
        self,
        name: str,
        host: str,
        transport: Transport,
        kernel: Optional[ActorKernel] = None,
    ) -> None:
        super().__init__(host, transport, kernel)
        self.name = name
        self._results: Dict[str, ExecutionResult] = {}
        self._acks: Dict[str, str] = {}  # request_key -> execution_id
        # Non-blocking completion path: request_key -> callback.  Results
        # whose request key is registered here are routed to the callback
        # instead of the shared results pool; consumed keys move to
        # ``_completed`` (bounded, oldest aged out) so late duplicate
        # deliveries are dropped.
        self._callbacks: "Dict[str, Callable[[ExecutionResult], None]]" = {}
        self._completed: "set[str]" = set()
        self._completed_order: "deque[str]" = deque()

    @property
    def endpoint_name(self) -> str:
        return client_endpoint(self.name)

    @handles(ExecuteAck)
    def _on_ack(self, ack: ExecuteAck, message: Message) -> None:
        if ack.request_key and ack.request_key not in self._completed:
            # Acks of abandoned requests (retry/hedge losers, timed-out
            # calls) are dropped so they cannot accumulate.
            self._acks[ack.request_key] = ack.execution_id

    @handles(ExecuteResult)
    def _on_execute_result(
        self, outcome: ExecuteResult, message: Message
    ) -> None:
        request_key = outcome.request_key
        if request_key:
            # The ack mapping has served its purpose once the result is
            # here (the result itself carries the execution id); dropping
            # it keeps long-lived clients bounded.
            self._acks.pop(request_key, None)
        result = ExecutionResult(
            execution_id=outcome.execution_id,
            status=outcome.status,
            outputs=dict(outcome.outputs),
            fault=outcome.fault,
            finished_ms=self.transport.now_ms(),
            request_key=request_key,
        )
        if request_key in self._callbacks:
            # One completion per submission: the callback is consumed on
            # first delivery, so a duplicated result cannot fire it twice.
            callback = self._callbacks.pop(request_key)
            self._mark_completed(request_key)
            callback(result)
            return
        if request_key and request_key in self._completed:
            return  # duplicate delivery of an already-completed request
        self._results[result.execution_id] = result

    def _mark_completed(self, request_key: str) -> None:
        self._completed.add(request_key)
        self._completed_order.append(request_key)
        while len(self._completed_order) > self.COMPLETED_HISTORY:
            self._completed.discard(self._completed_order.popleft())

    # Asynchronous API -----------------------------------------------------

    def submit(
        self,
        target_node: str,
        target_endpoint: str,
        operation: str,
        arguments: Optional[Mapping[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        on_result: "Optional[Callable[[ExecutionResult], None]]" = None,
        request_key: str = "",
    ) -> str:
        """Fire an execute request; returns a request key for result().

        ``deadline_ms`` is an *execution* deadline enforced by the
        composite wrapper (when unset, the wrapper's deployment default
        applies) — distinct from the client-side wait timeout of
        :meth:`execute`.  The composite wrapper assigns the real execution
        id, so the local key is provisional until the result arrives;
        ``wait_all`` and ``execute`` hide this bookkeeping.

        When ``on_result`` is given, the request's result is delivered to
        that callback (exactly once, on the message-handling path) instead
        of the shared pool read by :meth:`take_results`/:meth:`wait_all` —
        the correlation path behind :class:`repro.api.ExecutionHandle`.

        ``request_key`` lets a relay submit under its caller's key
        (unique per client) instead of minting one, so the key the
        result — and the durability log — carries is the caller's own.
        """
        self.start()
        request_key = request_key or f"{self.name}-req{next(_request_ids)}"
        if on_result is not None:
            self._callbacks[request_key] = on_result
        self.send(target_node, target_endpoint, Execute(
            operation=operation,
            arguments=dict(arguments or {}),
            request_key=request_key,
            timeout_ms=deadline_ms,
        ))
        return request_key

    def abandon(self, request_key: str) -> None:
        """Retire an in-flight request the caller no longer wants.

        Drops its callback and ack, and marks the key completed so a
        straggling (or duplicated) result is discarded instead of
        leaking into the shared results pool.  This is how the
        resilience layer cancels the losers of a hedged or retried
        submission — the request-key correlation makes cancellation a
        local bookkeeping operation, no extra wire messages.
        """
        self._callbacks.pop(request_key, None)
        self._acks.pop(request_key, None)
        self._mark_completed(request_key)

    def ack_for(self, request_key: str) -> str:
        """The acked execution id of a request, or ``""`` — never blocks."""
        return self._acks.get(request_key, "")

    def execution_id_for(
        self, request_key: str, timeout_ms: Optional[float] = 10_000.0
    ) -> str:
        """Wait for the wrapper's ack and return the execution id.

        Needed before signalling ECA events at a running execution.
        """
        arrived = self.transport.wait_for(
            lambda: request_key in self._acks, timeout_ms=timeout_ms
        )
        if not arrived:
            raise ExecutionError(
                f"no execute_ack for request {request_key!r}"
            )
        return self._acks[request_key]

    def signal(
        self,
        target_node: str,
        target_endpoint: str,
        execution_id: str,
        event: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Send an ECA event to a running execution.

        ``payload`` values are merged into the waiting token's variable
        environment before its guards are evaluated.
        """
        self.start()
        self.send(target_node, target_endpoint, Signal(
            execution_id=execution_id,
            event=event,
            payload=dict(payload or {}),
        ))

    def results_received(self) -> int:
        return len(self._results)

    def take_results(self) -> "Dict[str, ExecutionResult]":
        """Drain and return all results collected so far."""
        drained = dict(self._results)
        self._results.clear()
        return drained

    # Synchronous convenience ------------------------------------------------

    def execute(
        self,
        target_node: str,
        target_endpoint: str,
        operation: str,
        arguments: Optional[Mapping[str, Any]] = None,
        timeout_ms: Optional[float] = 60_000.0,
        deadline_ms: Optional[float] = None,
    ) -> ExecutionResult:
        """Execute one operation and block until its result arrives.

        ``timeout_ms`` bounds the client-side wait; ``deadline_ms``
        (optional) is forwarded to the composite wrapper as the execution
        deadline.  Raises :class:`ExecutionTimeoutError` when no result
        (not even a fault) arrives within ``timeout_ms`` — e.g. the
        composite host is down.
        """
        started = self.transport.now_ms()
        # Ride the correlation path: the result is matched to this call by
        # request key (and duplicates dropped), never fished out of the
        # shared pool by arrival time.
        delivered: "list[ExecutionResult]" = []
        request_key = self.submit(
            target_node, target_endpoint, operation, arguments,
            deadline_ms=deadline_ms, on_result=delivered.append,
        )
        arrived = self.transport.wait_for(
            lambda: bool(delivered), timeout_ms=timeout_ms
        )
        if not arrived:
            # The caller is abandoning the request: retire its state so
            # a straggling result is dropped, not left as a ghost in the
            # shared pool (no leak on repeated retries against a dead
            # host).
            self.abandon(request_key)
            raise ExecutionTimeoutError(
                f"no result for {operation!r} within {timeout_ms} ms "
                f"(target {target_node!r} unreachable?)"
            )
        result = delivered[0]
        result.started_ms = started
        return result

    def wait_all(
        self, expected: int, timeout_ms: Optional[float] = None
    ) -> "Dict[str, ExecutionResult]":
        """Wait until ``expected`` results have arrived, then drain them."""
        arrived = self.transport.wait_for(
            lambda: len(self._results) >= expected, timeout_ms=timeout_ms
        )
        if not arrived:
            raise ExecutionTimeoutError(
                f"only {len(self._results)}/{expected} results arrived"
            )
        return self.take_results()
