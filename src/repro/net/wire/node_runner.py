"""``WireNode`` — the shard child-process entrypoint.

A wire node is one real OS process hosting one shard of a process
fleet: a classic single-shard :class:`~repro.api.platform.Platform`
(deterministic simulated transport inside, so shard-local execution
stays reproducible) fronted by a :class:`~repro.net.wire.WireTransport`
listener.  The parent process (:mod:`repro.fleet.wire`) speaks to it
exclusively over sockets:

* one **ingress endpoint per composite** accepts ``Execute`` envelopes,
  runs them through the shard platform, and answers ``ExecuteResult``
  on the connection the request arrived on (drain windows arrive whole,
  so a burst is submitted as a batch before the shard is pumped);
* one **control endpoint** answers the ``__wire_*__`` verbs — ping,
  stats, snapshot, recovered-result drain, graceful shutdown.

Topology is *spec-determined*: the child rebuilds its composites from
the :class:`WireNodeSpec` alone, which is what makes cross-process
crash recovery honest — a respawned incarnation (``recover=True``)
runs the same :func:`~repro.durability.replay.recover_attached`
sequence as in-process recovery, with the spec-driven topology rebuild
standing in for the deployment journal (a fresh process has no live
objects to replay), and reports what it recovered through the spawn
pipe.  Only the spec crosses the process boundary; live objects never
do.  Recovered results go back to the parent in pages that each fit
one frame.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import TransportError
from repro.net.message import Message
from repro.net.wire.codec import control_body, encode_message
from repro.net.wire.frames import DEFAULT_MAX_FRAME_BYTES
from repro.net.wire.transport import WireTransport

#: Endpoint every wire node answers control verbs on.
CONTROL_ENDPOINT = "control"

#: Control-namespace verbs of the parent <-> shard handshake.  They ride
#: the same framed codec as protocol envelopes but live outside the
#: envelope catalogue (the ``__...__`` namespace the codec reserves).
WIRE_PING = "__wire_ping__"
WIRE_PONG = "__wire_pong__"
WIRE_STATS = "__wire_stats__"
WIRE_STATS_REPLY = "__wire_stats_reply__"
WIRE_RESULTS = "__wire_results__"
WIRE_RESULTS_REPLY = "__wire_results_reply__"
WIRE_SNAPSHOT = "__wire_snapshot__"
WIRE_SNAPSHOT_REPLY = "__wire_snapshot_reply__"
WIRE_SHUTDOWN = "__wire_shutdown__"
WIRE_OK = "__wire_ok__"


def wire_node_id(shard_id: int) -> str:
    """The transport node id of shard ``shard_id``'s process."""
    return f"wireshard-{shard_id}"


@dataclass(frozen=True)
class WireNodeSpec:
    """Everything a shard process needs to build itself — primitives
    only, so the spec pickles cleanly through a spawn context and a
    recovered incarnation can be built from the *same* values."""

    shard_id: int
    shards_total: int
    composites: int = 4
    tasks: int = 3
    seed: int = 0
    processing_ms: float = 1.0
    service_latency_ms: float = 5.0
    listen_host: str = "127.0.0.1"
    batch_max: int = 16
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Shard-private durability directory ("" = durability off).
    durability_dir: str = ""
    fsync: str = "interval"
    #: Recover from ``durability_dir`` instead of booting fresh.
    recover: bool = False
    #: Virtual-clock budget one ingress batch may pump for.
    ingress_wait_ms: float = 120_000.0

    def __post_init__(self) -> None:
        if not 0 <= self.shard_id < self.shards_total:
            raise ValueError(
                f"shard_id {self.shard_id} out of range for "
                f"{self.shards_total} shards"
            )
        if self.recover and not self.durability_dir:
            raise ValueError("recover=True requires a durability_dir")

    @property
    def node_id(self) -> str:
        return wire_node_id(self.shard_id)

    def composite_names(self) -> "List[str]":
        """This shard's slice of the fleet's composites (pinned spread,
        ``index % shards_total`` — the fleet harness convention)."""
        return [
            f"WireChain{index:02d}"
            for index in range(self.composites)
            if index % self.shards_total == self.shard_id
        ]


# --------------------------------------------------------------------------
# Child-process runtime
# --------------------------------------------------------------------------


class _CompositeIngress:
    """Wire endpoint for one composite: Execute in, ExecuteResult out.

    Exposes ``deliver_batch`` so the transport's drain window arrives
    whole: every Execute in the window is submitted before the shard
    platform is pumped once for all of them — the socket edge keeps the
    batch shape :meth:`Mailbox.deliver_batch` established in-proc.
    """

    def __init__(self, runtime: "_WireNodeRuntime", name: str,
                 deployment: Any) -> None:
        self.runtime = runtime
        self.name = name
        self.deployment = deployment

    def __call__(self, message: Message) -> None:
        self.deliver_batch([message])

    def deliver_batch(self, messages: "List[Message]") -> None:
        from repro.kernel.envelopes import Execute

        runtime = self.runtime
        node, endpoint = self.deployment.address
        results: "Dict[str, Any]" = {}
        pending: "List[Tuple[Message, str]]" = []
        for message in messages:
            envelope = message.envelope
            if not isinstance(envelope, Execute):
                continue  # codec-validated, so only a misaddressed verb
            # Submitted under the parent's request key: the WAL carries
            # it, so a recovered incarnation hands results back under
            # keys the parent can match to its orphaned calls.
            key = envelope.request_key
            runtime.session.client.submit(
                node, endpoint,
                envelope.operation,
                dict(envelope.arguments),
                deadline_ms=envelope.timeout_ms,
                on_result=lambda result, key=key: results.__setitem__(
                    key, result
                ),
                request_key=key,
            )
            pending.append((message, key))
        if not pending:
            return
        runtime.platform.wait_for(
            lambda: all(key in results for _, key in pending),
            timeout_ms=runtime.spec.ingress_wait_ms,
        )
        runtime.executions += len(pending)
        for message, key in pending:
            runtime.reply_result(message, key, results.get(key))


class _WireNodeRuntime:
    """The process-local state of one running wire node."""

    def __init__(self, spec: WireNodeSpec) -> None:
        self.spec = spec
        self.node_id = spec.node_id
        self.platform: Any = None
        self.session: Any = None
        self.wire: "Optional[WireTransport]" = None
        self.deployments: "Dict[str, Any]" = {}
        self.executions = 0
        self.recovery_summary: "Optional[Dict[str, Any]]" = None
        #: request_key -> result dict for executions that finished after
        #: a recovery (their handles died with the old process).
        self.recovered_results: "Dict[str, Dict[str, Any]]" = {}
        self._stop = threading.Event()

    # Boot -------------------------------------------------------------------

    def boot(self) -> None:
        from repro.api.config import PlatformConfig
        from repro.api.platform import Platform

        durability = None
        if self.spec.durability_dir:
            from repro.durability.config import DurabilityConfig

            durability = DurabilityConfig(
                dir=self.spec.durability_dir, fsync=self.spec.fsync
            )
        self.platform = Platform(PlatformConfig(
            seed=self.spec.seed * 31 + self.spec.shard_id,
            processing_ms=self.spec.processing_ms,
            trace=False,
            durability=durability,
        ))
        if self.spec.recover:
            self._recover()
        else:
            self._deploy_topology()
            self._open_session()
        self._open_wire()

    def _recover(self) -> None:
        """Cross-process recovery: deterministic rebuild, then replay.

        The in-process path redeploys from the live deployment journal;
        a fresh OS process has no live objects, so the rebuild step is
        the spec-driven :meth:`_deploy_topology` instead — byte-identical
        topology because every name, host and seed is a pure function
        of the spec.  The session opens before replay so re-driven
        ``ExecuteResult`` deliveries have a home.
        """
        from repro.durability.replay import recover_attached

        dur = self.platform.durability
        report, gate = recover_attached(
            dur, self.platform,
            redeploy=self._deploy_topology, rebind=self._open_session,
        )
        # Pump resumed executions to quiescence; their results land in
        # the client's shared pool (no handles survive a process death)
        # and are served to the parent via __wire_results__.
        self.platform.wait_for(
            lambda: dur.quiescent()[0],
            timeout_ms=self.spec.ingress_wait_ms,
        )
        # Quiescence means no regeneration is still in flight, so the
        # gate's leftover keys can only swallow genuinely new traffic
        # that happens to collide with them: seal the gate.
        sealed = gate.seal()
        self._drain_recovered_results()
        self.recovery_summary = {
            "clean_tail": report.clean_tail,
            "snapshot_id": report.snapshot_id,
            "records_total": report.records_total,
            "deliveries_replayed": report.deliveries_replayed,
            "effects_restored": report.effects_restored,
            "swallowed_sends": report.swallowed_sends,
            "sealed_keys": sealed,
            "redeployed": report.redeployed,
            "recovered_results": len(self.recovered_results),
        }

    def _deploy_topology(self) -> int:
        """Deploy this shard's chain composites; returns how many."""
        from repro.workload.harness import deploy_chain

        spec = self.spec
        for index in range(spec.composites):
            if index % spec.shards_total != spec.shard_id:
                continue
            name = f"WireChain{index:02d}"
            self.deployments[name] = deploy_chain(
                self.platform.deployer, name, index, spec.tasks,
                spec.seed, spec.service_latency_ms,
            )
        return len(self.deployments)

    def _open_session(self) -> None:
        # Deterministic session identity: the client actor of a
        # recovered incarnation must land on the same address the WAL's
        # ExecuteResult deliveries target.
        self.session = self.platform.session(
            f"ingress-{self.spec.shard_id}",
            f"ingress-host-{self.spec.shard_id}",
        )

    def _open_wire(self) -> None:
        self.wire = WireTransport(
            listen_host=self.spec.listen_host,
            listen_port=0,
            batch_max=self.spec.batch_max,
            max_frame_bytes=self.spec.max_frame_bytes,
        )
        node = self.wire.add_node(self.node_id)
        for name, deployment in sorted(self.deployments.items()):
            node.register(name, _CompositeIngress(self, name, deployment))
        node.register(CONTROL_ENDPOINT, self._on_control)
        self.wire.start()

    def live_executions(self) -> int:
        """Executions that still hold state anywhere in this shard: at a
        coordinator (:meth:`Coordinator.executions_seen`) or running at
        a composite wrapper.  Zero once every request has resolved."""
        return sum(
            deployment.wrapper.running_count()
            + sum(
                coordinator.executions_seen()
                for per_op in deployment.coordinators.values()
                for coordinator in per_op.values()
            )
            for deployment in self.deployments.values()
        )

    # Replies ----------------------------------------------------------------

    def reply_result(self, request: Message, request_key: str,
                     result: "Optional[Any]") -> None:
        from repro.kernel.envelopes import ExecuteResult

        if result is None:
            envelope = ExecuteResult(
                status="timeout",
                fault="wire ingress wait budget exhausted",
                request_key=request_key,
            )
        else:
            envelope = ExecuteResult(
                execution_id=result.execution_id,
                status=result.status,
                outputs=dict(result.outputs),
                fault=result.fault,
                request_key=request_key,
            )
        self._reply(request, ExecuteResult.KIND, envelope.to_body())

    def _reply(self, request: Message, kind: str,
               body: "Dict[str, Any]") -> None:
        assert self.wire is not None
        self.wire.send(self._reply_message(request, kind, body))

    def _reply_message(self, request: Message, kind: str,
                       body: "Dict[str, Any]") -> Message:
        return Message(
            kind=kind,
            source=self.node_id,
            source_endpoint=request.target_endpoint,
            target=request.source,
            target_endpoint=request.source_endpoint,
            body=body,
        )

    # Control verbs ----------------------------------------------------------

    def _on_control(self, message: Message) -> None:
        kind = message.kind
        body = message.body or {}
        token = body.get("token", "")
        if kind == WIRE_PING:
            self._reply(message, WIRE_PONG, control_body(
                token=token, shard=self.spec.shard_id, node=self.node_id,
            ))
        elif kind == WIRE_STATS:
            self._reply(message, WIRE_STATS_REPLY, control_body(
                token=token,
                shard=self.spec.shard_id,
                executions=self.executions,
                live_executions=self.live_executions(),
                composites=sorted(self.deployments),
                virtual_now_ms=self.platform.now_ms(),
                wire=dict(self.wire.wire_counters if self.wire else {}),
                recovery=self.recovery_summary,
                threads=threading.active_count(),
            ))
        elif kind == WIRE_RESULTS:
            self._drain_recovered_results()
            self._reply_results_page(message, token)
        elif kind == WIRE_SNAPSHOT:
            dur = getattr(self.platform, "durability", None)
            if dur is None:
                self._reply(message, WIRE_SNAPSHOT_REPLY, control_body(
                    token=token, ok=False, error="durability is off",
                ))
                return
            try:
                snapshot_id = dur.take_snapshot()
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                self._reply(message, WIRE_SNAPSHOT_REPLY, control_body(
                    token=token, ok=False, error=str(exc),
                ))
                return
            self._reply(message, WIRE_SNAPSHOT_REPLY, control_body(
                token=token, ok=True, snapshot_id=snapshot_id,
            ))
        elif kind == WIRE_SHUTDOWN:
            self._reply(message, WIRE_OK, control_body(token=token))
            self._stop.set()
        # Unknown control verbs are dropped: the codec already confines
        # them to the __ namespace, and a one-sided drop is safer than
        # answering a verb from a newer protocol revision.

    def _reply_results_page(self, request: Message, token: str) -> None:
        """Answer ``__wire_results__`` with the next page of the pool.

        A page is cut by encoded size, not by count: each entry's cost
        is what it adds to the encoded reply, so the page always fits
        ``max_frame_bytes`` (a lone entry over the limit still goes
        out, and fails at the sender).  Served results leave the pool;
        ``more`` tells the parent to ask again.
        """
        assert self.wire is not None
        body = control_body(token=token, results={}, more=False)
        reply = self._reply_message(request, WIRE_RESULTS_REPLY, body)
        empty = len(encode_message(reply))
        used = empty
        pool = self.recovered_results
        page: "Dict[str, Dict[str, Any]]" = {}
        for key in list(pool):
            body["results"] = {key: pool[key]}
            # +1: the separator between this entry and the previous one.
            cost = len(encode_message(reply)) - empty + 1
            if page and used + cost > self.spec.max_frame_bytes:
                break
            page[key] = pool.pop(key)
            used += cost
        reply.body = control_body(token=token, results=page, more=bool(pool))
        self.wire.send(reply)

    def _drain_recovered_results(self) -> None:
        client = getattr(self.session, "client", None)
        if client is None:
            return
        for result in client.take_results().values():
            if not result.request_key:
                continue
            self.recovered_results[result.request_key] = {
                "execution_id": result.execution_id,
                "status": result.status,
                "outputs": dict(result.outputs),
                "fault": result.fault,
            }

    # Lifecycle --------------------------------------------------------------

    def wait_shutdown(self) -> None:
        self._stop.wait()
        # Give the __wire_ok__ reply a beat to flush before the
        # listener and its connections come down.
        time.sleep(0.05)

    def close(self) -> None:
        if self.wire is not None:
            self.wire.stop()
            self.wire = None


def _wire_node_main(spec: WireNodeSpec, conn: Any) -> None:
    """Child-process main: boot, report readiness, serve, exit 0."""
    runtime = _WireNodeRuntime(spec)
    try:
        runtime.boot()
    except BaseException as exc:  # noqa: BLE001 - the parent needs the
        # reason, whatever it was; the child is about to die anyway.
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    assert runtime.wire is not None
    conn.send(("ready", {
        "address": list(runtime.wire.address),
        "recovery": runtime.recovery_summary,
    }))
    conn.close()
    try:
        runtime.wait_shutdown()
    finally:
        runtime.close()


# --------------------------------------------------------------------------
# Parent-side handle
# --------------------------------------------------------------------------


class WireNodeHandle:
    """Parent-side view of one spawned shard process."""

    def __init__(self, process: Any, spec: WireNodeSpec,
                 address: "Tuple[str, int]",
                 recovery: "Optional[Dict[str, Any]]") -> None:
        self.process = process
        self.spec = spec
        self.address = address
        #: Replay summary of a ``recover=True`` incarnation, else None.
        self.recovery = recovery

    @property
    def node_id(self) -> str:
        return self.spec.node_id

    @property
    def pid(self) -> "Optional[int]":
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-kill the shard process (SIGKILL): the crash injection
        the durability claim is tested against — no teardown runs, the
        WAL keeps whatever the OS already has."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)

    def join(self, timeout: "Optional[float]" = 10.0) -> "Optional[int]":
        self.process.join(timeout=timeout)
        return self.process.exitcode

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else f"exit={self.process.exitcode}"
        return (
            f"<WireNodeHandle {self.node_id} pid={self.pid} "
            f"{self.address[0]}:{self.address[1]} {state}>"
        )


def spawn_wire_node(
    spec: WireNodeSpec, start_timeout: float = 60.0
) -> WireNodeHandle:
    """Spawn one shard process and wait for its listener to come up.

    Uses the ``spawn`` start method everywhere (it is the only one
    macOS supports and the only one that gives each shard a clean
    interpreter), so the spec must carry everything — no inherited
    state."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_wire_node_main,
        args=(spec, child_conn),
        name=f"wire-node-{spec.shard_id}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    if not parent_conn.poll(start_timeout):
        process.terminate()
        process.join(timeout=10.0)
        raise TransportError(
            f"wire node {spec.node_id} did not report ready within "
            f"{start_timeout:.0f}s"
        )
    try:
        status, payload = parent_conn.recv()
    except EOFError:
        process.join(timeout=10.0)
        raise TransportError(
            f"wire node {spec.node_id} died before reporting ready "
            f"(exitcode {process.exitcode})"
        ) from None
    finally:
        parent_conn.close()
    if status != "ready":
        process.join(timeout=10.0)
        raise TransportError(
            f"wire node {spec.node_id} failed to boot: {payload}"
        )
    return WireNodeHandle(
        process=process,
        spec=spec,
        address=(payload["address"][0], int(payload["address"][1])),
        recovery=payload.get("recovery"),
    )
