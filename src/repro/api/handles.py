"""Handle-based asynchronous execution: sessions, handles, batches.

A :class:`Session` replaces raw :class:`~repro.runtime.client.RuntimeClient`
usage.  ``session.submit(...)`` returns an :class:`ExecutionHandle`
immediately — the request rides the same event-driven coordinator and
transport machinery as the blocking path (no thread per call), and the
wrapper's ``execute_result`` is correlated back to the handle by request
key on the client's message-handling path.  ``submit_many`` fans a batch
of invocations out over the network concurrently; ``gather`` blocks once
for all of them, so N executions overlap instead of running back-to-back.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import (
    DiscoveryError,
    ExecutionTimeoutError,
    SelfServError,
)
from repro.monitoring.tracer import ExecutionTimeline
from repro.runtime.client import RuntimeClient
from repro.runtime.protocol import ExecutionResult, ResolvedBinding

#: Sentinel distinguishing "use the platform default" from an explicit
#: ``None`` (= wait forever / no deadline).
_UNSET = object()

#: Anything a submission can target: a typed binding from ``locate``, a
#: published service name, a raw ``(node, endpoint)`` address, or any
#: deployment object exposing ``.address`` (e.g.
#: :class:`~repro.deployment.deployer.CompositeDeployment`).
Target = Union[ResolvedBinding, str, Tuple[str, str], Any]


class ExecutionHandle:
    """One in-flight (or finished) execution, returned by ``submit``.

    The handle completes from the transport's message-handling path —
    polling ``done()`` never drives the network; blocking happens only in
    :meth:`result` (and :meth:`Session.gather`), through the transport's
    single blocking primitive.
    """

    def __init__(
        self,
        session: "Session",
        binding: ResolvedBinding,
        operation: str,
        submitted_ms: float,
    ) -> None:
        self._session = session
        self.binding = binding
        self.operation = operation
        self.submitted_ms = submitted_ms
        self.request_key = ""  # assigned by Session.submit
        #: The runtime client the submission rode (fleet mode: the
        #: client on the target's shard).  ``None`` falls back to the
        #: session's own client.
        self.client: Optional[RuntimeClient] = None
        self._result: Optional[ExecutionResult] = None

    @property
    def _client(self) -> RuntimeClient:
        return self.client if self.client is not None else self._session.client

    # Completion path (called by the runtime client) ------------------------

    def _deliver(self, result: ExecutionResult) -> None:
        if self._result is not None:
            return  # duplicate result: first delivery wins
        result.started_ms = self.submitted_ms
        self._result = result
        self._session._complete(self.request_key)

    # Introspection ---------------------------------------------------------

    @property
    def service(self) -> str:
        return self.binding.service

    def done(self) -> bool:
        """Whether the result (success *or* fault) has arrived."""
        return self._result is not None

    def peek(self) -> Optional[ExecutionResult]:
        """The result if it has arrived, else ``None`` — never blocks."""
        return self._result

    def status(self) -> str:
        """``"pending"`` until done, then the execution's final status."""
        return self._result.status if self._result else "pending"

    # Blocking accessors ----------------------------------------------------

    def result(self, timeout_ms: Any = _UNSET) -> ExecutionResult:
        """Block until the result arrives and return it.

        Faults do not raise — they come back as an
        :class:`ExecutionResult` with ``ok == False`` so batch callers can
        triage per-invocation outcomes.  Raises
        :class:`ExecutionTimeoutError` only when nothing (not even a
        fault) arrives within the wait budget, e.g. the target host is
        down.
        """
        if self._result is not None:
            return self._result
        budget = self._session._timeout(timeout_ms)
        arrived = self._session.wait_for(self.done, timeout_ms=budget)
        if not arrived or self._result is None:
            raise ExecutionTimeoutError(
                f"no result for {self.operation!r} on "
                f"{self.binding.service!r} within {budget} ms "
                f"(request {self.request_key!r})"
            )
        return self._result

    def execution_id(self, timeout_ms: Optional[float] = 10_000.0) -> str:
        """The wrapper-assigned execution id (waits for the ack)."""
        if self._result is not None:
            return self._result.execution_id
        return self._client.execution_id_for(
            self.request_key, timeout_ms=timeout_ms
        )

    def trace(self) -> Optional[ExecutionTimeline]:
        """The monitoring timeline of this execution.

        Requires the platform to run with ``PlatformConfig.trace`` on
        (the default).  Returns ``None`` while no message of the
        execution has been observed yet.
        """
        tracer = self._session.tracer
        if tracer is None:
            if self._session.platform.fleet is not None:
                raise SelfServError(
                    "execution tracing is not available in fleet mode: "
                    "the tracer taps one transport and a fleet has one "
                    "per shard (per-shard tracing is future work)"
                )
            raise SelfServError(
                "execution tracing is disabled; construct the Platform "
                "with PlatformConfig(trace=True) to use handle.trace()"
            )
        execution_id = (
            self._result.execution_id if self._result is not None
            else self._client.ack_for(self.request_key)
        )
        if not execution_id:
            return None
        return tracer.timeline(execution_id)

    def signal(
        self,
        event: str,
        payload: Optional[Mapping[str, Any]] = None,
        ack_timeout_ms: Optional[float] = 10_000.0,
    ) -> None:
        """Send an ECA event to this running execution."""
        self._client.signal(
            self.binding.node,
            self.binding.endpoint,
            self.execution_id(timeout_ms=ack_timeout_ms),
            event,
            payload,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ExecutionHandle {self.binding.service}.{self.operation} "
            f"[{self.status()}]>"
        )


class Session:
    """An end user's execution context on one host.

    Obtained from :meth:`repro.api.platform.Platform.session`; owns the
    underlying :class:`RuntimeClient` endpoint and hands out
    :class:`ExecutionHandle` objects instead of blocking per call.
    """

    def __init__(self, platform: Any, name: str, host: str) -> None:
        self.platform = platform
        self.name = name
        self.host = host
        # Fleet mode: one client endpoint per shard the session talks
        # to, created lazily by route() — there is no fleet-wide
        # transport to install a single client on.
        self._shard_clients: Dict[int, RuntimeClient] = {}
        self.client: Optional[RuntimeClient] = (
            self.open_client(platform) if platform.fleet is None else None
        )
        # In-flight handles only: entries leave on result delivery, so a
        # long-lived session does not accumulate finished executions.
        # The lock covers the register/complete race on the threaded
        # transport, where delivery can beat submit()'s return.
        self._inflight: Dict[str, ExecutionHandle] = {}
        self._inflight_lock = threading.Lock()

    # Plumbing --------------------------------------------------------------

    @property
    def transport(self):
        return self.platform.transport

    @property
    def tracer(self):
        return self.platform.tracer

    def wait_for(
        self, predicate: Any, timeout_ms: Optional[float] = None
    ) -> bool:
        """Block (or pump the fleet) until ``predicate()`` holds."""
        return self.platform.wait_for(predicate, timeout_ms=timeout_ms)

    def route(self, target: Target) -> RuntimeClient:
        """The runtime client a submission to ``target`` would ride.

        On the classic platform this is the session's one client; in
        fleet mode it is the client endpoint on the shard hosting the
        target service, created (and its host node ensured on that
        shard) on first use.
        """
        return self._client_for(self.resolve(target))

    def open_client(self, platform: Any) -> RuntimeClient:
        """A started client endpoint for this session on ``platform``.

        ``platform`` is a classic platform: the session's own, one
        fleet shard, or the fresh platform a recovery rebuilt.
        """
        platform.ensure_node(self.host)
        client = RuntimeClient(self.name, self.host, platform.transport,
                               kernel=platform.kernel)
        client.start()
        return client

    def _client_for(self, binding: ResolvedBinding) -> RuntimeClient:
        fleet = self.platform.fleet
        if fleet is None:
            return self.client
        shard_id = fleet.directory.shard_of(binding.service)
        client = self._shard_clients.get(shard_id)
        if client is None:
            client = self.open_client(fleet.shards[shard_id])
            self._shard_clients[shard_id] = client
        return client

    def _timeout(self, timeout_ms: Any) -> Optional[float]:
        if timeout_ms is _UNSET:
            return self.platform.config.default_execute_timeout_ms
        return timeout_ms

    def _deadline(self, deadline_ms: Any) -> Optional[float]:
        if deadline_ms is _UNSET:
            return self.platform.config.default_deadline_ms
        return deadline_ms

    def _complete(self, request_key: str) -> None:
        with self._inflight_lock:
            self._inflight.pop(request_key, None)

    def _rekey(self, handle: "ExecutionHandle", new_key: str) -> None:
        """Point a handle (and its in-flight entry) at a new request key.

        Used by the resilience runtime when a retry (or a hedge that
        outlived an abandoned primary) becomes the handle's live
        attempt, so session bookkeeping — and the handle's
        ``execution_id``/``signal``/``trace`` correlation — follow the
        request that can still answer.  The key assignment happens
        under the in-flight lock: on the wire transport a retarget
        can race ``submit``'s own registration, and both sides must
        agree on which key the handle lives under.
        """
        with self._inflight_lock:
            old_key = handle.request_key
            handle.request_key = new_key
            if self._inflight.pop(old_key, None) is not None:
                self._inflight[new_key] = handle

    def resolve(self, target: Target) -> ResolvedBinding:
        """Normalise any accepted target into a :class:`ResolvedBinding`."""
        if isinstance(target, ResolvedBinding):
            return target
        if isinstance(target, str):
            return self.platform.locate(target)
        if isinstance(target, (tuple, list)) and len(target) == 2:
            node, endpoint = target
            return ResolvedBinding(service=endpoint, node=node,
                                   endpoint=endpoint)
        address = getattr(target, "address", None)
        if address is not None:
            node, endpoint = address
            composite = getattr(target, "composite", None)
            service = getattr(composite, "name", None) or endpoint
            return ResolvedBinding(service=service, node=node,
                                   endpoint=endpoint)
        raise SelfServError(
            f"cannot resolve execution target {target!r}: expected a "
            f"ResolvedBinding, a service name, a (node, endpoint) pair "
            f"or a deployment with an .address"
        )

    # Submission ------------------------------------------------------------

    def submit(
        self,
        target: Target,
        operation: str,
        arguments: Optional[Mapping[str, Any]] = None,
        deadline_ms: Any = _UNSET,
    ) -> ExecutionHandle:
        """Fire one execution and return its handle immediately.

        When the platform runs with a
        :class:`~repro.resilience.ResilienceConfig` that enables retries
        or hedging, the submission is driven by the resilience runtime:
        the handle still completes exactly once, but behind it the
        request may be retried with backoff after transient failures and
        hedged with a speculative duplicate past the latency tail —
        losers are cancelled through the request-key correlation layer.
        """
        binding = self.resolve(target)
        if not binding.supports(operation):
            raise DiscoveryError(
                f"service {binding.service!r} does not advertise operation "
                f"{operation!r}; advertised: {list(binding.operations)}"
            )
        client = self._client_for(binding)
        # The submission timestamp lives on the clock of the shard the
        # request actually runs on (fleet shards tick independently, so
        # the fleet-wide max clock would skew cross-shard durations).
        handle = ExecutionHandle(
            self, binding, operation,
            submitted_ms=client.transport.now_ms(),
        )
        handle.client = client
        resilience = self.platform.resilience
        if resilience is not None and resilience.manages_sessions:
            resilience.launch(
                self, handle, binding, operation, arguments,
                deadline_ms=self._deadline(deadline_ms),
            )
        else:
            handle.request_key = handle.client.submit(
                binding.node,
                binding.endpoint,
                operation,
                arguments,
                deadline_ms=self._deadline(deadline_ms),
                on_result=handle._deliver,
            )
        with self._inflight_lock:
            if not handle.done():
                self._inflight[handle.request_key] = handle
        return handle

    def submit_many(
        self, requests: "Iterable[Union[Mapping[str, Any], Sequence[Any]]]"
    ) -> "List[ExecutionHandle]":
        """Submit a batch of executions; returns handles in request order.

        Each request is either a ``(target, operation[, arguments[,
        deadline_ms]])`` sequence or a mapping with those keys.  All
        requests are on the wire before this returns — the fan-out is
        what :meth:`gather` later overlaps.  String targets are located
        once per distinct name per batch, not once per request, keeping
        the UDDI round trips off the hot path.
        """
        located: Dict[str, ResolvedBinding] = {}

        def resolve_once(target: Target) -> Target:
            if isinstance(target, str):
                if target not in located:
                    located[target] = self.resolve(target)
                return located[target]
            return target

        handles: List[ExecutionHandle] = []
        for request in requests:
            if isinstance(request, Mapping):
                handles.append(self.submit(
                    resolve_once(request["target"]),
                    request["operation"],
                    request.get("arguments"),
                    deadline_ms=request.get("deadline_ms", _UNSET),
                ))
            else:
                parts = list(request)
                if not 2 <= len(parts) <= 4:
                    raise SelfServError(
                        f"batch request {request!r} must be (target, "
                        f"operation[, arguments[, deadline_ms]])"
                    )
                handles.append(self.submit(
                    resolve_once(parts[0]),
                    parts[1],
                    parts[2] if len(parts) >= 3 else None,
                    # An explicit 4th element — even None ("no deadline")
                    # — is honoured; only its absence means the default.
                    deadline_ms=parts[3] if len(parts) == 4 else _UNSET,
                ))
        return handles

    def gather(
        self,
        handles: "Sequence[ExecutionHandle]",
        timeout_ms: Any = _UNSET,
    ) -> "List[ExecutionResult]":
        """Block once for a whole batch; results match ``handles`` order.

        The single ``wait_for`` drives the transport until every handle
        has completed, so the N executions progress concurrently (on the
        simulator: interleaved in virtual time).  Raises
        :class:`ExecutionTimeoutError` if any handle is still unresolved
        when the budget runs out.
        """
        handles = list(handles)
        budget = self._timeout(timeout_ms)
        arrived = self.wait_for(
            lambda: all(h.done() for h in handles), timeout_ms=budget
        )
        if not arrived:
            missing = sum(1 for h in handles if not h.done())
            raise ExecutionTimeoutError(
                f"gather: {missing}/{len(handles)} executions still "
                f"unresolved after {budget} ms"
            )
        return [h.result(timeout_ms=0) for h in handles]

    # Blocking convenience ---------------------------------------------------

    def execute(
        self,
        target: Target,
        operation: str,
        arguments: Optional[Mapping[str, Any]] = None,
        timeout_ms: Any = _UNSET,
        deadline_ms: Any = _UNSET,
    ) -> ExecutionResult:
        """Submit one execution and block for its result (v1 semantics)."""
        handle = self.submit(target, operation, arguments,
                             deadline_ms=deadline_ms)
        return handle.result(timeout_ms=timeout_ms)

    # Introspection ---------------------------------------------------------

    def pending(self) -> "List[ExecutionHandle]":
        """Handles whose result has not arrived yet."""
        with self._inflight_lock:
            # Self-heal the rare threaded race where a result beat the
            # submit bookkeeping: drop anything already done.
            for key in [k for k, h in self._inflight.items() if h.done()]:
                del self._inflight[key]
            return list(self._inflight.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session {self.name!r}@{self.host!r} "
            f"({len(self.pending())} pending)>"
        )
