"""``repro.fleet.wire`` — the process fleet: shards as real OS processes.

:class:`WireFleet` is the parent-side runtime that turns the fleet's
share-nothing shard model into actual operating-system processes.  Each
shard is a :mod:`~repro.net.wire.node_runner` child — a classic
single-shard platform behind a socket listener — and the parent holds
one frontend :class:`~repro.net.wire.WireTransport` through which every
request, result and control verb travels as a framed, CRC-checked,
codec-validated packet.  Nothing shares memory: if it isn't on the
wire, the shard never sees it.

The API mirrors the in-process fleet harness where it can::

    with WireFleet(shards=2, composites=4) as fleet:
        calls = [fleet.submit(name) for name in fleet.composites]
        results = [call.result(timeout=30.0) for call in calls]

and adds the process-level fault operations the durability story needs:
``kill_shard`` (SIGKILL, no teardown) and ``recover_shard`` (respawn
with ``recover=True`` so the child replays its WAL, then resolve or
resubmit the calls the dead incarnation held).  Resubmission is
at-least-once: a request the WAL had *completed* is answered from the
recovered result pool without re-running, one it had merely *started*
runs again — the same contract the in-process recovery path documents.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import TransportError
from repro.kernel.envelopes import Execute, ExecuteResult
from repro.net.message import Message
from repro.net.wire.codec import control_body
from repro.net.wire.node_runner import (
    CONTROL_ENDPOINT,
    WIRE_PING,
    WIRE_RESULTS,
    WIRE_SHUTDOWN,
    WIRE_SNAPSHOT,
    WIRE_STATS,
    WireNodeHandle,
    WireNodeSpec,
    spawn_wire_node,
)
from repro.net.wire.transport import WireTransport

FRONTEND_NODE = "wirefront"
COLLECTOR_ENDPOINT = "collector"


class WireCall:
    """One in-flight request to a shard process (wall-clock future)."""

    def __init__(self, request_key: str, composite: str, operation: str,
                 arguments: "Dict[str, Any]",
                 timeout_ms: "Optional[float]") -> None:
        self.request_key = request_key
        self.composite = composite
        self.operation = operation
        self.arguments = arguments
        self.timeout_ms = timeout_ms
        self._event = threading.Event()
        self._result: "Optional[ExecuteResult]" = None
        #: Wall-clock marks (``time.perf_counter()``), set at submit and
        #: first resolution — the socket benchmark's latency source.
        self.submitted_at: "Optional[float]" = None
        self.resolved_at: "Optional[float]" = None

    def done(self) -> bool:
        return self._event.is_set()

    def peek(self) -> "Optional[ExecuteResult]":
        return self._result

    def result(self, timeout: "Optional[float]" = 30.0) -> ExecuteResult:
        """Block (wall-clock seconds) until the shard answered."""
        if not self._event.wait(timeout):
            raise TransportError(
                f"wire call {self.request_key!r} ({self.composite}."
                f"{self.operation}) got no result within {timeout}s"
            )
        assert self._result is not None
        return self._result

    @property
    def wall_latency_s(self) -> "Optional[float]":
        if self.submitted_at is None or self.resolved_at is None:
            return None
        return self.resolved_at - self.submitted_at

    def _resolve(self, result: ExecuteResult) -> None:
        if self._event.is_set():
            return  # duplicate (resubmit race); first answer wins
        self.resolved_at = time.perf_counter()
        self._result = result
        self._event.set()


class WireFleet:
    """A fleet whose shards are real processes; see module docstring."""

    def __init__(
        self,
        shards: int = 2,
        composites: int = 4,
        tasks: int = 3,
        seed: int = 0,
        processing_ms: float = 1.0,
        service_latency_ms: float = 5.0,
        listen_host: str = "127.0.0.1",
        batch_max: int = 16,
        durability_dir: str = "",
        fsync: str = "interval",
        start_timeout: float = 60.0,
    ) -> None:
        if shards < 1:
            raise ValueError("a wire fleet needs at least one shard")
        self.shards = shards
        self.durability_dir = durability_dir
        self.start_timeout = start_timeout
        self.specs: "List[WireNodeSpec]" = [
            WireNodeSpec(
                shard_id=shard_id,
                shards_total=shards,
                composites=composites,
                tasks=tasks,
                seed=seed,
                processing_ms=processing_ms,
                service_latency_ms=service_latency_ms,
                listen_host=listen_host,
                batch_max=batch_max,
                durability_dir=(
                    os.path.join(durability_dir, f"shard-{shard_id}")
                    if durability_dir else ""
                ),
                fsync=fsync,
            )
            for shard_id in range(shards)
        ]
        #: composite name -> owning shard id (the pinned fleet spread).
        self.placement: "Dict[str, int]" = {}
        for spec in self.specs:
            for name in spec.composite_names():
                self.placement[name] = spec.shard_id
        self.composites: "List[str]" = sorted(self.placement)
        self.nodes: "Dict[int, WireNodeHandle]" = {}
        self.frontend: "Optional[WireTransport]" = None
        self._started = False
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        self._pending: "Dict[str, WireCall]" = {}
        #: control token -> (event, one-slot reply holder)
        self._control: "Dict[str, Tuple[threading.Event, List[Any]]]" = {}
        #: Requests resolved from a recovered shard's WAL instead of a
        #: live execution (diagnostics for the durability tests).
        self.recovered_from_wal = 0
        self.resubmitted = 0

    # Lifecycle --------------------------------------------------------------

    def start(self) -> "WireFleet":
        if self._started:
            return self
        self.frontend = WireTransport(batch_max=16)
        node = self.frontend.add_node(FRONTEND_NODE)
        node.register(COLLECTOR_ENDPOINT, self._collect)
        self.frontend.start()
        try:
            for spec in self.specs:
                handle = spawn_wire_node(
                    spec, start_timeout=self.start_timeout
                )
                self.nodes[spec.shard_id] = handle
                self.frontend.register_peer(handle.node_id, handle.address)
            self._started = True
        except BaseException:
            self._teardown(graceful=False)
            raise
        return self

    def stop(self, graceful: bool = True) -> None:
        """Shut the fleet down; with ``graceful`` the shards drain and
        exit 0 (the leak fixture's definition of clean)."""
        self._teardown(graceful=graceful)

    def _teardown(self, graceful: bool) -> None:
        if graceful and self.frontend is not None:
            for shard_id, handle in sorted(self.nodes.items()):
                if not handle.alive:
                    continue
                try:
                    self.call_control(shard_id, WIRE_SHUTDOWN, timeout=10.0)
                except TransportError:
                    pass  # fall through to the hard join below
        for handle in self.nodes.values():
            if handle.alive:
                code = handle.join(timeout=10.0)
                if code is None:
                    handle.kill()
        self.nodes.clear()
        self._started = False
        if self.frontend is not None:
            self.frontend.stop()
            self.frontend = None
        # Unblock anyone still waiting: the fleet is gone.
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            control = list(self._control.values())
            self._control.clear()
        for call in pending:
            call._resolve(ExecuteResult(
                status="fault", fault="wire fleet stopped",
                request_key=call.request_key,
            ))
        for event, _holder in control:
            event.set()

    def __enter__(self) -> "WireFleet":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # Submission -------------------------------------------------------------

    def shard_of(self, composite: str) -> int:
        shard = self.placement.get(composite)
        if shard is None:
            raise TransportError(
                f"unknown composite {composite!r}; fleet has "
                f"{self.composites}"
            )
        return shard

    def submit(
        self,
        composite: str,
        operation: str = "run",
        arguments: "Optional[Mapping[str, Any]]" = None,
        timeout_ms: "Optional[float]" = None,
    ) -> WireCall:
        """Send one ``Execute`` to the owning shard process."""
        if not self._started or self.frontend is None:
            raise TransportError("WireFleet.submit before start()")
        shard = self.shard_of(composite)
        request_key = f"wf-{next(self._sequence):06d}"
        call = WireCall(request_key, composite, operation,
                        dict(arguments or {}), timeout_ms)
        with self._lock:
            self._pending[request_key] = call
        call.submitted_at = time.perf_counter()
        self._send_execute(shard, call)
        return call

    def _send_execute(self, shard: int, call: WireCall) -> None:
        assert self.frontend is not None
        envelope = Execute(
            operation=call.operation,
            arguments=call.arguments,
            request_key=call.request_key,
            timeout_ms=call.timeout_ms,
        )
        self.frontend.send(Message(
            kind=Execute.KIND,
            source=FRONTEND_NODE,
            source_endpoint=COLLECTOR_ENDPOINT,
            target=self.nodes[shard].node_id,
            target_endpoint=call.composite,
            body=envelope.to_body(),
        ))

    # Control plane ----------------------------------------------------------

    def call_control(
        self, shard_id: int, verb: str, timeout: float = 10.0,
        **fields: Any,
    ) -> "Dict[str, Any]":
        """Round-trip one ``__wire_*__`` verb to a shard process."""
        if not self._started or self.frontend is None:
            raise TransportError("WireFleet control call before start()")
        handle = self.nodes.get(shard_id)
        if handle is None:
            raise TransportError(f"no shard {shard_id} in this fleet")
        token = f"ct-{next(self._sequence):06d}"
        event: "threading.Event" = threading.Event()
        holder: "List[Any]" = []
        with self._lock:
            self._control[token] = (event, holder)
        try:
            self.frontend.send(Message(
                kind=verb,
                source=FRONTEND_NODE,
                source_endpoint=COLLECTOR_ENDPOINT,
                target=handle.node_id,
                target_endpoint=CONTROL_ENDPOINT,
                body=control_body(token=token, **fields),
            ))
            if not event.wait(timeout):
                raise TransportError(
                    f"shard {shard_id} did not answer {verb} within "
                    f"{timeout}s"
                )
        finally:
            with self._lock:
                self._control.pop(token, None)
        if not holder:
            raise TransportError(
                f"shard {shard_id} went away during {verb}"
            )
        return holder[0]

    def ping(self, shard_id: int, timeout: float = 10.0) -> "Dict[str, Any]":
        return self.call_control(shard_id, WIRE_PING, timeout=timeout)

    def stats(self, timeout: float = 10.0) -> "Dict[int, Dict[str, Any]]":
        """Per-shard runtime stats (executions served and still live,
        wire counters, clock)."""
        return {
            shard_id: self.call_control(shard_id, WIRE_STATS,
                                        timeout=timeout)
            for shard_id, handle in sorted(self.nodes.items())
            if handle.alive
        }

    def snapshot_shard(
        self, shard_id: int, timeout: float = 30.0
    ) -> "Dict[str, Any]":
        """Ask one shard to take a durability snapshot at quiescence."""
        return self.call_control(shard_id, WIRE_SNAPSHOT, timeout=timeout)

    # Fault operations -------------------------------------------------------

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard process — the honest crash: no flush, no
        goodbye, its socket just goes dead."""
        handle = self.nodes.get(shard_id)
        if handle is None:
            raise TransportError(f"no shard {shard_id} in this fleet")
        handle.kill()

    def recover_shard(
        self, shard_id: int, resubmit: bool = True
    ) -> "Dict[str, Any]":
        """Respawn a dead shard and reconcile its in-flight calls.

        The child replays its WAL before reporting ready.  Calls whose
        request key the recovered incarnation already *completed* are
        resolved from its result pool (exactly-once for finished work);
        the rest are resubmitted when ``resubmit`` (at-least-once for
        work the crash interrupted).  Requires durability; refuses to
        respawn a live shard.
        """
        if not self.durability_dir:
            raise TransportError(
                "recover_shard needs a durability_dir-backed fleet"
            )
        old = self.nodes.get(shard_id)
        if old is None:
            raise TransportError(f"no shard {shard_id} in this fleet")
        if old.alive:
            raise TransportError(
                f"shard {shard_id} is still alive; kill_shard first"
            )
        spec = dataclasses.replace(self.specs[shard_id], recover=True)
        handle = spawn_wire_node(spec, start_timeout=self.start_timeout)
        self.nodes[shard_id] = handle
        assert self.frontend is not None
        self.frontend.register_peer(handle.node_id, handle.address)
        # Finished-before-crash work: answer from the recovered pool,
        # fetched page by page (each reply fits one frame).
        recovered: "Dict[str, Any]" = {}
        more = True
        while more:
            page = self.call_control(shard_id, WIRE_RESULTS, timeout=30.0)
            recovered.update(page.get("results", {}))
            more = bool(page.get("more"))
        orphans = [
            call for call in self._pending_for(shard_id) if not call.done()
        ]
        for call in orphans:
            found = recovered.get(call.request_key)
            if found is not None:
                self.recovered_from_wal += 1
                call._resolve(ExecuteResult(
                    execution_id=found.get("execution_id", ""),
                    status=found.get("status", "fault"),
                    outputs=dict(found.get("outputs", {})),
                    fault=found.get("fault", ""),
                    request_key=call.request_key,
                ))
            elif resubmit:
                self.resubmitted += 1
                self._send_execute(shard_id, call)
        summary = dict(handle.recovery or {})
        summary["resolved_from_wal"] = self.recovered_from_wal
        summary["resubmitted"] = self.resubmitted
        return summary

    def _pending_for(self, shard_id: int) -> "List[WireCall]":
        with self._lock:
            return [
                call for call in self._pending.values()
                if self.placement.get(call.composite) == shard_id
            ]

    # Frontend delivery ------------------------------------------------------

    def _collect(self, message: Message) -> None:
        """Frontend endpoint: results resolve calls, control replies
        wake their waiters (runs on the frontend's wire-loop thread)."""
        if message.kind == ExecuteResult.KIND:
            envelope = message.envelope
            if not isinstance(envelope, ExecuteResult):
                return
            with self._lock:
                call = self._pending.pop(envelope.request_key, None)
            if call is not None:
                call._resolve(envelope)
            return
        token = (message.body or {}).get("token", "")
        with self._lock:
            waiter = self._control.get(token)
        if waiter is not None:
            event, holder = waiter
            holder.append(dict(message.body or {}))
            event.set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        alive = sum(1 for h in self.nodes.values() if h.alive)
        return (
            f"<WireFleet {alive}/{self.shards} shards alive, "
            f"{len(self.composites)} composites>"
        )
