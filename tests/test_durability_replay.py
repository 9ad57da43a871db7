"""Deterministic crash recovery: replay, resume, and exactly-once.

The contract under test: with ``fsync="always"`` a crashed platform
rebuilt by :func:`recover_platform` is *indistinguishable* from one
that never crashed — same tracer timelines, same provider counters,
same RNG stream positions — and an in-flight composition resumes and
completes with every provider effect applied exactly once.
"""

import pytest

from repro.api import PlatformConfig
from repro.api.platform import Platform
from repro.durability import DurabilityConfig, recover_platform
from repro.durability.segments import frame
from repro.net.message import Message
from repro.workload.generator import make_chain_workload
from repro.workload.harness import composite_for_workload

SEED = 13


def _trace_dump(tracer):
    out = []
    for timeline in sorted(tracer.timelines(),
                           key=lambda t: t.execution_id):
        out.append((timeline.execution_id, [
            (e.time_ms, e.kind, e.source, e.target, e.detail)
            for e in timeline.events
        ]))
    return out


def _wrapper_counts(platform):
    return {
        a.service.name: (a.completed, a.faulted)
        for a in platform.kernel.actors()
        if type(a).__name__ == "ServiceWrapperRuntime"
    }


def _build(tmp_path, fsync="always", tasks=3, reliability=1.0,
           counting=None, perf=None):
    config = dict(
        seed=SEED,
        durability=DurabilityConfig(dir=str(tmp_path), fsync=fsync),
    )
    if perf is not None:
        config["perf"] = perf
    platform = Platform(PlatformConfig(**config))
    workload = make_chain_workload(
        tasks=tasks, seed=21, service_latency_ms=8.0,
        service_reliability=reliability,
    )
    for index, service in enumerate(workload.services):
        if counting is not None:
            original = service.handler_for("work")
            name = service.name

            def counted(inputs, _original=original, _name=name):
                counting[_name] = counting.get(_name, 0) + 1
                return _original(inputs)

            service.bind("work", counted)
        platform.register_elementary(service, f"replay-host-{index}")
    deployment = platform.deploy_composite(
        composite_for_workload(workload, name="ReplayChain"),
        "replay-host",
    )
    return platform, deployment


class TestQuiescentReplay:
    def test_rebuilds_identical_trace_and_counters(self, tmp_path):
        platform, deployment = _build(tmp_path)
        session = platform.session("u", "u-host")
        results = session.gather(
            session.submit_many([(deployment, "run", {})] * 4)
        )
        assert all(r.ok for r in results)
        before_trace = _trace_dump(platform.tracer)
        before_counts = _wrapper_counts(platform)

        platform.durability.crash()
        fresh, report = recover_platform(platform)
        assert report.clean_tail
        assert report.held_resent == 0
        assert report.missing_actors == 0
        assert _trace_dump(fresh.tracer) == before_trace
        assert _wrapper_counts(fresh) == before_counts

    def test_recovered_platform_matches_an_uncrashed_twin(
        self, tmp_path
    ):
        """Replayed-vs-fresh equivalence: a recovered platform and a
        twin that never crashed produce byte-identical traces."""
        crashed, dep_a = _build(tmp_path / "a")
        twin, dep_b = _build(tmp_path / "b")
        for platform, deployment in ((crashed, dep_a), (twin, dep_b)):
            session = platform.session("u", "u-host")
            results = session.gather(
                session.submit_many([(deployment, "run", {})] * 3)
            )
            assert all(r.ok for r in results)
        crashed.durability.crash()
        fresh, _ = recover_platform(crashed)
        assert _trace_dump(fresh.tracer) == _trace_dump(twin.tracer)
        # ...and both continue identically after the divergence point.
        for platform, deployment in ((fresh, dep_a), (twin, dep_b)):
            handle = platform.session("u", "u-host").submit(
                deployment, "run", {}
            )
            assert handle.result().ok
        assert _trace_dump(fresh.tracer) == _trace_dump(twin.tracer)

    def test_rng_streams_stay_aligned_through_recovery(self, tmp_path):
        """Unreliable services: the recovered platform's fault pattern
        continues exactly where the uncrashed twin's does — ledger hits
        draw-and-discard, so replay consumes the same stream."""
        crashed, dep_a = _build(tmp_path / "a", reliability=0.6, tasks=2)
        twin, dep_b = _build(tmp_path / "b", reliability=0.6, tasks=2)

        def run_batch(platform, deployment, count):
            session = platform.session("u", "u-host")
            return [
                r.ok for r in session.gather(
                    session.submit_many([(deployment, "run", {})] * count)
                )
            ]

        assert run_batch(crashed, dep_a, 5) == run_batch(twin, dep_b, 5)
        crashed.durability.crash()
        fresh, _ = recover_platform(crashed)
        assert run_batch(fresh, dep_a, 5) == run_batch(twin, dep_b, 5)


class TestMidFlightResume:
    def test_inflight_composition_completes_after_recovery(
        self, tmp_path
    ):
        calls = {}
        platform, deployment = _build(tmp_path, counting=calls)
        session = platform.session("u", "u-host")
        handle = session.submit(deployment, "run", {})
        platform.transport.simulator.run(until=20.0)
        assert not handle.done()
        assert calls  # the chain got partway

        platform.durability.crash()
        fresh, report = recover_platform(platform)
        assert fresh.wait_for(handle.done, timeout_ms=60_000)
        assert handle.result().ok
        # Exactly-once: every provider handler ran once, replay hits
        # the effect ledger instead of re-executing.
        assert all(count == 1 for count in calls.values()), calls
        assert all(c == (1, 0) for c in _wrapper_counts(fresh).values())
        assert fresh.durability.effects.hits >= 1

    def test_second_crash_after_recovery_also_recovers(self, tmp_path):
        platform, deployment = _build(tmp_path)
        session = platform.session("u", "u-host")
        assert session.submit(deployment, "run", {}).result().ok
        platform.durability.crash()
        fresh, _ = recover_platform(platform)
        assert fresh.session("u", "u-host").submit(
            deployment, "run", {}
        ).result().ok
        fresh.durability.crash()
        freshest, report = recover_platform(fresh)
        assert report.clean_tail
        counts = _wrapper_counts(freshest)
        assert all(c == (2, 0) for c in counts.values()), counts
        assert freshest.session("u", "u-host").submit(
            deployment, "run", {}
        ).result().ok


class TestTornTail:
    def test_records_after_a_torn_tail_survive_the_next_recovery(
        self, tmp_path
    ):
        """A kill mid-write leaves half a frame on disk.  Recovery cuts
        it, so what the recovered shard then logs under ``always`` is
        still there at the following recovery."""
        platform, deployment = _build(tmp_path)
        assert platform.session("u", "u-host").submit(
            deployment, "run", {}
        ).result().ok
        first_run, _ = platform.durability.wal.read()
        platform.durability.crash()
        last_segment = platform.durability.store.segment_paths()[-1]
        with open(last_segment, "ab") as handle:
            handle.write(frame(b'{"t":"deliver"}')[:7])

        fresh, report = recover_platform(platform)
        assert not report.clean_tail
        assert report.records_total == len(first_run)
        wal = fresh.durability.wal
        logged_before = wal.deliveries_logged + wal.effects_logged
        assert fresh.session("u", "u-host").submit(
            deployment, "run", {}
        ).result().ok
        second_run = wal.deliveries_logged + wal.effects_logged - logged_before
        assert second_run > 0

        fresh.durability.crash()
        freshest, report = recover_platform(fresh)
        assert report.clean_tail
        assert report.records_total == len(first_run) + second_run
        counts = _wrapper_counts(freshest)
        assert all(c == (2, 0) for c in counts.values()), counts


class TestExactlyOnce:
    def test_invoke_double_delivery_hits_the_ledger(self, tmp_path):
        calls = {}
        platform, deployment = _build(tmp_path, counting=calls)
        session = platform.session("u", "u-host")
        assert session.submit(deployment, "run", {}).result().ok
        assert all(count == 1 for count in calls.values())
        records, _ = platform.durability.wal.read()
        invoke = next(
            r for r in records
            if r["t"] == "deliver" and r["kind"] == "invoke"
        )
        hits_before = platform.durability.effects.hits
        # An at-least-once network redelivers the same invoke verbatim.
        platform.transport.send(Message(
            kind=invoke["kind"],
            source=invoke["src"], source_endpoint=invoke["sep"],
            target=invoke["dst"], target_endpoint=invoke["dep"],
            body=dict(invoke["body"]),
        ))
        platform.transport.run_until_idle()
        assert all(count == 1 for count in calls.values()), calls
        assert platform.durability.effects.hits == hits_before + 1

    def test_duplicate_invoke_replies_the_recorded_outcome(
        self, tmp_path
    ):
        platform, deployment = _build(tmp_path)
        session = platform.session("u", "u-host")
        assert session.submit(deployment, "run", {}).result().ok
        records, _ = platform.durability.wal.read()
        invoke = next(
            r for r in records
            if r["t"] == "deliver" and r["kind"] == "invoke"
        )
        effect = next(
            r for r in records
            if r["t"] == "effect"
            and r["iid"] == invoke["body"]["invocation_id"]
        )
        replies = []
        platform.ensure_node("probe-host")
        platform.transport.node("probe-host").register(
            "test:probe", lambda message: replies.append(message)
        )
        platform.transport.send(Message(
            kind="invoke",
            source="probe-host", source_endpoint="test:probe",
            target=invoke["dst"], target_endpoint=invoke["dep"],
            body=dict(invoke["body"]),
        ))
        platform.transport.run_until_idle()
        assert len(replies) == 1
        assert replies[0].body["outputs"] == effect["outputs"]
        assert replies[0].body["status"] == "success"

    def test_execute_result_double_delivery_is_dropped(self, tmp_path):
        platform, deployment = _build(tmp_path)
        session = platform.session("u", "u-host")
        handle = session.submit(deployment, "run", {})
        assert handle.result().ok
        records, _ = platform.durability.wal.read()
        outcome = next(
            r for r in records
            if r["t"] == "deliver" and r["kind"] == "execute_result"
        )
        client = session.client
        pooled_before = dict(client._results)
        # Redeliver the final result: the request key was consumed on
        # first delivery, so the duplicate must vanish without firing
        # anything or polluting the shared results pool.
        platform.transport.send(Message(
            kind=outcome["kind"],
            source=outcome["src"], source_endpoint=outcome["sep"],
            target=outcome["dst"], target_endpoint=outcome["dep"],
            body=dict(outcome["body"]),
        ))
        platform.transport.run_until_idle()
        assert dict(client._results) == pooled_before
        assert handle.result().ok  # original result untouched


class TestZeroCopyComposition:
    """DurabilityMiddleware and the zero-copy fast path must compose.

    Zero-copy hands the *envelope object* to a co-located mailbox and
    skips the ``to_body``/``from_body`` round trip — but the WAL's
    record format *is* the encoded body.  ``Message.body`` materializes
    lazily from the envelope at the logging tap, so the log must come
    out byte-identical to the wire path's, and recovery must work the
    same.  These tests pin all of that."""

    def _zc(self):
        from repro.perf import PerfConfig
        return PerfConfig(zero_copy_local=True)

    @staticmethod
    def _normalized(records):
        """Records with request keys renumbered by first appearance.

        The client request counter is process-global, so two platforms
        built in one test see different ``u-reqN`` suffixes; everything
        else must match exactly."""
        import json
        import re
        seen = {}

        def canon(match):
            return seen.setdefault(
                match.group(0), f"-req<{len(seen)}>"
            )

        return json.loads(
            re.sub(r"-req\d+", canon, json.dumps(records, sort_keys=True))
        )

    def test_wal_records_match_the_wire_path(self, tmp_path):
        """One encoded ``deliver`` record per logical message, with the
        exact body the wire path would have logged."""
        wire, dep_w = _build(tmp_path / "wire")
        fast, dep_f = _build(tmp_path / "fast", perf=self._zc())
        for platform, deployment in ((wire, dep_w), (fast, dep_f)):
            session = platform.session("u", "u-host")
            results = session.gather(
                session.submit_many([(deployment, "run", {})] * 3)
            )
            assert all(r.ok for r in results)
        assert fast.durability.wal.deliveries_logged == \
            wire.durability.wal.deliveries_logged > 0
        fast_records, _ = fast.durability.wal.read()
        wire_records, _ = wire.durability.wal.read()
        assert self._normalized(fast_records) == \
            self._normalized(wire_records)

    def test_crash_recovery_with_zero_copy_matches_wire_twin(
        self, tmp_path
    ):
        """Kill a zero-copy platform mid-history, recover it, and the
        rebuilt trace equals an uncrashed wire-path twin's."""
        crashed, dep_a = _build(tmp_path / "a", perf=self._zc())
        twin, dep_b = _build(tmp_path / "b")
        for platform, deployment in ((crashed, dep_a), (twin, dep_b)):
            session = platform.session("u", "u-host")
            results = session.gather(
                session.submit_many([(deployment, "run", {})] * 3)
            )
            assert all(r.ok for r in results)
        crashed.durability.crash()
        fresh, report = recover_platform(crashed)
        assert report.clean_tail
        assert report.missing_actors == 0
        assert _trace_dump(fresh.tracer) == _trace_dump(twin.tracer)
        assert _wrapper_counts(fresh) == _wrapper_counts(twin)

    def test_inflight_crash_with_zero_copy_is_exactly_once(
        self, tmp_path
    ):
        calls = {}
        platform, deployment = _build(
            tmp_path, counting=calls, perf=self._zc(),
        )
        session = platform.session("u", "u-host")
        handle = session.submit(deployment, "run", {})
        platform.transport.simulator.run(until=20.0)
        assert not handle.done()
        assert calls  # partway through the chain

        platform.durability.crash()
        fresh, _ = recover_platform(platform)
        assert fresh.wait_for(handle.done, timeout_ms=60_000)
        assert handle.result().ok
        assert all(count == 1 for count in calls.values()), calls
        assert all(c == (1, 0) for c in _wrapper_counts(fresh).values())


class TestRelaxedFsync:
    def test_fsync_never_loses_the_tail_but_stays_usable(self, tmp_path):
        platform, deployment = _build(tmp_path, fsync="never")
        session = platform.session("u", "u-host")
        assert session.submit(deployment, "run", {}).result().ok
        lost = platform.durability.crash()
        assert lost > 0  # the whole unsynced run
        fresh, report = recover_platform(platform)
        assert report.records_total == 0
        # The deployment journal still rebuilds the topology, so the
        # platform keeps working — only the unsynced history is gone.
        assert fresh.session("u", "u-host").submit(
            deployment, "run", {}
        ).result().ok

    def test_fsync_interval_bounds_the_loss(self, tmp_path):
        platform, deployment = _build(tmp_path, fsync="interval")
        config = platform.config.durability
        assert config.fsync_interval_records == 64
        session = platform.session("u", "u-host")
        results = session.gather(
            session.submit_many([(deployment, "run", {})] * 6)
        )
        assert all(r.ok for r in results)
        appended = platform.durability.store.records_appended
        lost = platform.durability.crash()
        assert 0 < lost < config.fsync_interval_records
        assert platform.durability.store.records_durable == \
            appended - lost


class TestSendGateSeal:
    """Cross-process incarnations and the gate's leftover keys.

    A fresh OS process restarts the client's request-key counter, so a
    recovered shard's first *new* submission can be byte-identical to a
    send the dead incarnation already made — and the gate's leftover
    expected key would swallow it.  ``seal()`` exists for exactly that
    caller (``repro.net.wire.node_runner``): once the recovered shard
    is quiescent, leftovers are dropped and new traffic flows.
    """

    def _gate_with_one_leftover(self):
        from collections import Counter

        from repro.durability.dedup import canonical_send_key
        from repro.durability.replay import SendGate

        class FakeTransport:
            def __init__(self):
                self.delivered = []

            def send(self, message):
                self.delivered.append(message)

        def execute():
            return Message(
                kind="execute", source="h", source_endpoint="client",
                target="chain-host", target_endpoint="chain",
                body={"operation": "run", "request_key": "ingress-0-req0"},
            )

        transport = FakeTransport()
        expected = Counter({canonical_send_key(execute()): 1})
        gate = SendGate(transport, expected)
        gate.install()
        gate.finish()
        return transport, gate, execute

    def test_leftover_key_would_eat_a_new_incarnation_send(self):
        transport, gate, execute = self._gate_with_one_leftover()
        transport.send(execute())  # restarted counter: identical bytes
        assert transport.delivered == []
        assert gate.swallowed == 1

    def test_seal_lets_identical_new_traffic_through(self):
        transport, gate, execute = self._gate_with_one_leftover()
        assert gate.seal() == 1
        transport.send(execute())
        assert len(transport.delivered) == 1
        assert gate.swallowed == 0
        assert gate.seal() == 0  # idempotent
