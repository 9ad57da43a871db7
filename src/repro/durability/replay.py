"""Deterministic replay of the write-ahead log.

Recovery rebuilds a killed shard in four moves:

1. **Redeploy** — the deployment journal re-creates every wrapper,
   community and coordinator on a fresh kernel (code + topology).
2. **Restore** — the newest valid snapshot re-applies wrapper RNG
   states, execution tables and the effect ledger; effect records in
   the log (written after the snapshot barrier) are re-admitted too.
3. **Replay** — each logged ``deliver`` record is re-handled at its
   original virtual time: the simulator clock is advanced record by
   record (timers scheduled by replayed handlers fire in between,
   exactly as they originally did), the message is decoded through the
   same envelope codecs, and handlers run for real.
4. **Resume** — sends regenerated during replay are swallowed when the
   log shows their delivery was already handled (they would be
   duplicates) and *held* when it does not (they were in flight when
   the shard died); held sends are re-injected into the live transport
   once replay ends, which is what resumes a mid-flight composition.

Provider side effects stay exactly-once throughout: replayed ``Invoke``
handling consults the effect ledger before touching the service (see
:mod:`repro.durability.dedup`).
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from typing import Callable, Optional, Tuple

from repro.durability.dedup import canonical_send_key
from repro.durability.snapshot import restore_state
from repro.exceptions import DurabilityError
from repro.net.message import Message


@dataclasses.dataclass
class ReplayReport:
    """What one recovery actually did (diagnostics + bench metrics)."""

    clean_tail: bool = True
    snapshot_id: Optional[int] = None
    records_total: int = 0
    deliveries_replayed: int = 0
    effects_restored: int = 0
    quarantined: int = 0
    missing_actors: int = 0
    swallowed_sends: int = 0
    held_resent: int = 0
    redeployed: int = 0


class SendGate:
    """Shadows ``transport.send`` during (and after) replay.

    ``expected`` counts the canonical keys of every delivery the log
    already contains.  A send matching an expected key is a replay
    regeneration of traffic that was already handled — swallowed.  A
    send with no expected match while replaying was in flight at the
    crash — held, then re-injected by :meth:`finish`.  After ``finish``
    the gate stays installed and passes unmatched sends straight
    through; leftover expected keys can only be consumed by exact
    duplicates of already-handled messages (client retries carry fresh
    ``request_key``s, so genuine new traffic never matches).
    """

    def __init__(self, transport, expected: "Counter[str]") -> None:
        self.transport = transport
        self.expected = Counter(expected)
        self.replaying = True
        self.swallowed = 0
        self.held: "deque[Message]" = deque()
        self._inner = transport.send

    def install(self) -> None:
        # Instance attribute shadows the bound method: every caller that
        # resolved ``transport.send`` dynamically now goes through us.
        self.transport.send = self._on_send

    def _on_send(self, message: Message) -> None:
        key = canonical_send_key(message)
        if self.expected.get(key, 0) > 0:
            self.expected[key] -= 1
            self.swallowed += 1
            return
        if self.replaying:
            self.held.append(message)
            return
        self._inner(message)

    def finish(self) -> int:
        """End replay; re-inject held in-flight sends.  Returns count."""
        self.replaying = False
        resent = 0
        while self.held:
            self._inner(self.held.popleft())
            resent += 1
        return resent

    def seal(self) -> int:
        """Drop leftover expected keys; returns how many were pending.

        Leftover keys exist to absorb late regenerations from handler
        work still in flight when :meth:`finish` ran.  Once the shard
        has been pumped to quiescence nothing can regenerate any more —
        but a *new process incarnation* restarts the client's request-key
        counter, so genuinely new submissions can collide with leftover
        keys and vanish.  Cross-process recovery must therefore seal the
        gate at quiescence; same-process recovery may, its keys only
        ever match true duplicates.
        """
        leftover = sum(self.expected.values())
        self.expected.clear()
        return leftover


def _noop() -> None:
    return None


def replay_wal(dur, transport, kernel, report: ReplayReport) -> SendGate:
    """Steps 3+4 of recovery: replay ``deliver`` records, resume sends."""
    records, clean = dur.wal.read()
    report.clean_tail = clean
    if not clean:
        dur.wal.store.cut_torn_tail()
    report.records_total = len(records)
    for record in records:
        if record["t"] == "effect":
            dur.effects.restore(
                record["eid"],
                record["iid"],
                {
                    "ok": record["ok"],
                    "outputs": record["outputs"],
                    "fault": record["fault"],
                },
            )
            report.effects_restored += 1
        elif record["t"] == "quarantine":
            report.quarantined += 1
    deliveries = [r for r in records if r["t"] == "deliver"]
    expected: "Counter[str]" = Counter()
    for record in deliveries:
        expected[_record_key(record)] += 1
    gate = SendGate(transport, expected)
    gate.install()
    simulator = getattr(transport, "simulator", None)
    for record in deliveries:
        time_ms = record["ms"]
        if simulator is not None and time_ms > simulator.now:
            # run(until=t) alone does not advance an empty queue; the
            # noop pins the clock, and timers scheduled by earlier
            # replayed handlers fire on the way, as they originally did.
            simulator.schedule_at(time_ms, _noop)
            simulator.run(until=time_ms)
        actor = kernel._actors.get(f"{record['dst']}/{record['dep']}")
        if actor is None:
            report.missing_actors += 1
            continue
        message = Message(
            kind=record["kind"],
            source=record["src"],
            source_endpoint=record["sep"],
            target=record["dst"],
            target_endpoint=record["dep"],
            body=record["body"],
        )
        # Feed the kernel taps first so observers (the tracer) rebuild
        # the same event stream, then hand the message to the mailbox
        # pipeline — full codec decode, middleware, handler.
        kernel._on_delivery(message, time_ms)
        actor.on_message(message)
        report.deliveries_replayed += 1
    report.held_resent = gate.finish()
    report.swallowed_sends = gate.swallowed
    return gate


def _record_key(record) -> str:
    return canonical_send_key(Message(
        kind=record["kind"],
        source=record["src"],
        source_endpoint=record["sep"],
        target=record["dst"],
        target_endpoint=record["dep"],
        body=record["body"],
    ))


def recover_attached(
    dur,
    platform,
    redeploy: "Callable[[], int]",
    rebind: "Optional[Callable[[], None]]" = None,
) -> "Tuple[ReplayReport, SendGate]":
    """Run a full recovery on a fresh platform ``dur`` is attached to.

    The one recovery sequence (classic, fleet shard, wire shard
    process): begin -> ``redeploy`` -> restore the latest snapshot ->
    ``rebind`` -> replay the WAL -> finish.  ``redeploy`` rebuilds the
    topology on ``platform`` and returns how many deployments it made
    (the journal replay in-process; a spec-driven rebuild in a fresh
    OS process, which has no live objects to replay).  ``rebind`` runs
    before replay: session clients must exist on the fresh kernel so
    replayed ``ExecuteResult`` deliveries complete their handles.

    Returns the report and the installed :class:`SendGate`, which a
    cross-process caller seals once the platform is quiescent.
    """
    report = ReplayReport()
    dur.begin_recovery()
    try:
        report.redeployed = redeploy()
        snapshot = dur.snapshots.latest()
        if snapshot is not None:
            snapshot_id, state = snapshot
            restore_state(
                platform.kernel, dur.effects, state,
                directory=platform.directory,
                registry=platform.discovery.registry,
            )
            report.snapshot_id = snapshot_id
        if rebind is not None:
            rebind()
        gate = replay_wal(dur, platform.transport, platform.kernel, report)
    finally:
        dur.finish_recovery()
    return report, gate


def rebind_client(session, platform, old):
    """A new client for ``session`` on ``platform`` that inherits ``old``.

    The new client takes over the dead one's completed set, and every
    handle of ``session`` bound to ``old`` is re-pointed at it with its
    result callback re-registered, so a composition that finishes after
    recovery still completes the original handle.  Returns the new
    client; the caller files it where ``old`` was (the classic
    session's client, or the fleet session's entry for the recovered
    shard).
    """
    new = session.open_client(platform)
    new._completed = set(old._completed)
    new._completed_order = deque(old._completed_order)
    with session._inflight_lock:
        for key, handle in session._inflight.items():
            if handle._client is old:
                new._callbacks[key] = handle._deliver
                handle.client = new
    return new


def recover_platform(crashed):
    """Rebuild a crashed *classic* platform; returns ``(fresh, report)``.

    The crashed platform's sessions are adopted by the fresh one (same
    objects, new transport underneath), so existing handles resolve
    after recovery.
    """
    dur = getattr(crashed, "durability", None)
    if dur is None:
        raise DurabilityError(
            "platform has no durability configured "
            "(set PlatformConfig.durability)"
        )
    if getattr(crashed, "fleet", None) is not None:
        raise DurabilityError(
            "use FleetRuntime.kill_shard()/recover_shard() for fleet "
            "platforms"
        )
    if not dur.crashed:
        dur.crash()
    from repro.api.platform import Platform  # local: api imports us

    config = dataclasses.replace(crashed.config, durability=None)
    fresh = Platform(config)
    fresh.config = crashed.config
    dur.attach(fresh)

    def rebind() -> None:
        for session in crashed.sessions():
            session.platform = fresh
            session.client = rebind_client(session, fresh, session.client)
            fresh._sessions[session.name] = session

    report, _gate = recover_attached(
        dur, fresh, redeploy=lambda: dur.journal.redeploy(fresh),
        rebind=rebind,
    )
    return fresh, report
