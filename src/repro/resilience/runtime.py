"""The resilience runtime: wiring health, breakers, retries and hedges.

One :class:`ResilienceRuntime` per platform owns the shared pieces (the
event log, the :class:`HealthRegistry` tapped into the transport, the
breaker registry, the jittered retry random stream) and drives the
per-request orchestration: a :class:`ResilientCall` wraps one logical
``Session.submit`` and fires the primary attempt, per-attempt timeout
timers, backoff-scheduled retries and latency-triggered hedges — all on
the transport clock, so the whole machine is deterministic on the
simulator and thread-safe on the wire transport.

The handle a caller holds is untouched by all of this: it completes
exactly once, with the first winning (or final losing) result, and every
other in-flight duplicate is cancelled through the request-key
correlation layer (:meth:`~repro.runtime.client.RuntimeClient.abandon`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.net.transport import Transport
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.config import ResilienceConfig
from repro.resilience.events import EventKinds, ResilienceEventLog
from repro.resilience.health import _WRAPPER_PREFIX, HealthRegistry
from repro.resilience.hedge import HedgePolicy
from repro.resilience.retry import RetryPolicy
from repro.runtime.protocol import ExecutionResult, ResolvedBinding
from repro.sim.random_streams import RandomStreams

#: Stream name of the retry-jitter RNG (see ``repro.sim.random_streams``).
RETRY_JITTER_STREAM = "resilience.retry-jitter"


class ResilienceRuntime:
    """Shared resilience state of one platform."""

    def __init__(
        self,
        transport: Transport,
        config: Optional[ResilienceConfig] = None,
        seed: int = 0,
        kernel: Optional[Any] = None,
    ) -> None:
        self.transport = transport
        self.config = config or ResilienceConfig()
        self.events = ResilienceEventLog()
        # With a kernel (the platform always passes one), the passive
        # health tap rides the kernel's delivery-tap chain instead of
        # attaching its own transport observer.
        self.health = HealthRegistry(
            self.config.health, events=self.events
        ).attach(kernel if kernel is not None else transport)
        self.breakers = BreakerRegistry(
            self.config.breaker, events=self.events
        )
        self.streams = RandomStreams(seed)
        self.retry: Optional[RetryPolicy] = self.config.retry
        self.hedge: Optional[HedgePolicy] = self.config.hedge

    @property
    def manages_sessions(self) -> bool:
        """Whether ``Session.submit`` should route through this runtime."""
        return self.retry is not None or self.hedge is not None

    def launch(
        self,
        session: Any,
        handle: Any,
        binding: ResolvedBinding,
        operation: str,
        arguments: "Optional[Mapping[str, Any]]",
        deadline_ms: Optional[float],
    ) -> str:
        """Run one logical submission resiliently; returns the primary key."""
        call = ResilientCall(
            self, session, handle, binding, operation, arguments, deadline_ms
        )
        return call.start()

    def emit(
        self, kind: str, subject: str, detail: str = ""
    ) -> None:
        self.events.record(self.transport.now_ms(), kind, subject, detail)


class ResilientCall:
    """Orchestrates one logical request: attempts, retries, hedges.

    Lifecycle: :meth:`start` fires the primary attempt (and arms the
    hedge timer); results, per-attempt timeouts and backoff timers then
    drive the state machine from the transport's delivery/timer paths
    until exactly one result *settles* the caller's handle.  The lock
    covers the wire transport, where a caller thread's submit races the
    loop thread's deliveries and timers.
    """

    def __init__(
        self,
        runtime: ResilienceRuntime,
        session: Any,
        handle: Any,
        binding: ResolvedBinding,
        operation: str,
        arguments: "Optional[Mapping[str, Any]]",
        deadline_ms: Optional[float],
    ) -> None:
        self.runtime = runtime
        self.session = session
        self.handle = handle
        self.binding = binding
        self.operation = operation
        self.arguments = arguments
        self.deadline_ms = deadline_ms
        self._lock = threading.RLock()
        self.attempts = 0        # primary + retries (hedges not counted)
        self.hedges_fired = 0
        self.settled = False
        #: request_key -> (kind, submitted_ms) of in-flight attempts.
        self._pending: Dict[str, Tuple[str, float]] = {}
        self._timers: "List[Callable[[], None]]" = []
        self._retry_scheduled = False

    # Convenience ------------------------------------------------------------

    @property
    def _transport(self) -> Transport:
        return self.runtime.transport

    @property
    def _service(self) -> str:
        """Health/event key of the target — the bare service name.

        A raw ``(node, endpoint)`` target resolves with the endpoint
        (``wrapper:X``) as its service; strip the prefix so session
        outcomes land on the same key the passive health tap uses.
        """
        service = self.binding.service
        if service.startswith(_WRAPPER_PREFIX):
            return service[len(_WRAPPER_PREFIX):]
        return service

    def _schedule(
        self, delay_ms: float, callback: "Callable[[], None]"
    ) -> None:
        self._timers.append(self._transport.schedule(
            self.session.host, delay_ms, callback
        ))

    # Lifecycle --------------------------------------------------------------

    def start(self) -> str:
        with self._lock:
            primary_key = self._fire("primary")
            self.handle.request_key = primary_key
            hedge = self.runtime.hedge
            if hedge is not None:
                delay = hedge.delay_ms(self.runtime.health, self._service)
                self._schedule(delay, self._on_hedge_due)
            return primary_key

    def _fire(self, kind: str) -> str:
        """Submit one attempt on the wire (caller holds the lock)."""
        if kind != "hedge":
            self.attempts += 1
        submitted_ms = self._transport.now_ms()

        def on_result(result: ExecutionResult) -> None:
            # Correlate by the wrapper-echoed request key, not a closure
            # over the submit return value — on the wire transport
            # the reply can beat ``submit`` returning.
            self._on_result(result.request_key, result)

        key = self.session.client.submit(
            self.binding.node,
            self.binding.endpoint,
            self.operation,
            self.arguments,
            deadline_ms=self.deadline_ms,
            on_result=on_result,
        )
        self._pending[key] = (kind, submitted_ms)
        if kind != "primary" and self.handle.request_key not in self._pending:
            # The attempt the handle pointed at is gone (failed or
            # abandoned): follow the new live one, so execution_id()/
            # signal()/trace() correlate against a request that can
            # still answer.
            self._retarget(key)
        retry = self.runtime.retry
        if retry is not None and retry.attempt_timeout_ms is not None:
            self._schedule(
                retry.attempt_timeout_ms,
                lambda: self._on_attempt_timeout(key),
            )
        return key

    def _retarget(self, new_key: str) -> None:
        self.session._rekey(self.handle, new_key)

    # Event handlers ---------------------------------------------------------

    def _on_result(self, key: str, result: ExecutionResult) -> None:
        with self._lock:
            entry = self._pending.pop(key, None)
            if entry is None or self.settled:
                return
            kind, submitted_ms = entry
            now = self._transport.now_ms()
            latency = now - submitted_ms
            if result.ok:
                self.runtime.health.record_success(self._service, latency,
                                                   now)
                if kind == "hedge":
                    self.runtime.emit(EventKinds.HEDGE_WON, self._service,
                                      self.operation)
                self._settle(result)
                return
            self.runtime.health.record_failure(self._service, latency, now)
            self._after_failed_attempt(result)

    def _on_attempt_timeout(self, key: str) -> None:
        with self._lock:
            entry = self._pending.pop(key, None)
            if entry is None or self.settled:
                return  # result arrived first (or the call settled)
            _kind, submitted_ms = entry
            # Retire the silent attempt: a straggling result must be
            # dropped, not delivered to a handle that moved on.
            self.session.client.abandon(key)
            if key == self.handle.request_key and self._pending:
                # A hedge is still live: point the handle at it.
                self._retarget(next(iter(self._pending)))
            now = self._transport.now_ms()
            self.runtime.health.record_failure(
                self._service, now - submitted_ms, now
            )
            self.runtime.emit(
                EventKinds.ATTEMPT_TIMEOUT, self._service,
                f"{self.operation} attempt silent after "
                f"{now - submitted_ms:.0f} ms",
            )
            self._after_failed_attempt(None)

    def _after_failed_attempt(
        self, result: "Optional[ExecutionResult]"
    ) -> None:
        """Decide what a failed/silent attempt means (lock held)."""
        retry = self.runtime.retry
        if (
            retry is not None
            and not self._retry_scheduled
            and retry.is_retryable(result)
            and self.attempts < retry.max_attempts
        ):
            rng = self.runtime.streams.stream(RETRY_JITTER_STREAM)
            delay = retry.backoff_ms(self.attempts, rng)
            self.runtime.emit(
                EventKinds.RETRY, self._service,
                f"{self.operation} attempt {self.attempts + 1}/"
                f"{retry.max_attempts} in {delay:.1f} ms",
            )
            self._retry_scheduled = True
            self._schedule(delay, self._on_retry_due)
            return
        if self._pending or self._retry_scheduled:
            return  # a hedge or an already-scheduled retry may still win
        self._settle(result if result is not None else self._timeout_result())

    def _on_retry_due(self) -> None:
        with self._lock:
            self._retry_scheduled = False
            if self.settled:
                return
            self._fire("retry")

    def _on_hedge_due(self) -> None:
        with self._lock:
            hedge = self.runtime.hedge
            if (
                self.settled
                or hedge is None
                or self.hedges_fired >= hedge.max_hedges
            ):
                return
            if not self._pending:
                # Retry backoff gap: nothing is in flight to hedge right
                # now.  Re-arm instead of dying, so the retry attempt
                # about to fire keeps its hedge protection (settling
                # cancels this timer).  The floor keeps a zero hedge
                # delay from re-arming at the same virtual timestamp
                # forever, which would livelock the simulator.
                delay = max(1.0, hedge.delay_ms(self.runtime.health,
                                                self._service))
                self._schedule(delay, self._on_hedge_due)
                return
            self.hedges_fired += 1
            self.runtime.emit(
                EventKinds.HEDGE_FIRED, self._service,
                f"{self.operation} hedge {self.hedges_fired}/"
                f"{hedge.max_hedges}",
            )
            self._fire("hedge")
            if self.hedges_fired < hedge.max_hedges:
                delay = hedge.delay_ms(self.runtime.health, self._service)
                self._schedule(delay, self._on_hedge_due)

    # Settling ---------------------------------------------------------------

    def _timeout_result(self) -> ExecutionResult:
        """Synthesised outcome when every attempt stayed silent."""
        return ExecutionResult(
            execution_id="",
            status="timeout",
            fault=(
                f"no response for {self.operation!r} on "
                f"{self._service!r} after {self.attempts} attempt(s)"
            ),
            finished_ms=self._transport.now_ms(),
            request_key=self.handle.request_key,
        )

    def _settle(self, result: ExecutionResult) -> None:
        """Deliver the final result, cancel timers, abandon losers."""
        self.settled = True
        for cancel in self._timers:
            cancel()
        self._timers.clear()
        for key in list(self._pending):
            self.session.client.abandon(key)
        self._pending.clear()
        self.handle._deliver(result)
