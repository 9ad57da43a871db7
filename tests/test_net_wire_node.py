"""Wire node processes and the process fleet.

These tests spawn real OS processes (``spawn`` context, as CI's macOS
runner would) and talk to them only through sockets: boot handshake,
execute round trips, control verbs, graceful shutdown with exit code
0, SIGKILL crash injection, and WAL-replay recovery of a killed shard
*process* — the cross-process version of the PR 6 durability claim.

The suite-wide leak fixture (``tests/conftest.py``) asserts that no
child process and no wire event-loop thread survives any test here.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.exceptions import TransportError
from repro.kernel.envelopes import ExecuteResult
from repro.fleet.wire import WireFleet
from repro.net.wire.node_runner import WireNodeSpec, spawn_wire_node

pytestmark = pytest.mark.wire_process

SPAWN_TIMEOUT_S = 120.0


def small_fleet(**overrides) -> WireFleet:
    kwargs = dict(shards=2, composites=2, tasks=2, seed=11,
                  processing_ms=0.5, service_latency_ms=2.0,
                  start_timeout=SPAWN_TIMEOUT_S)
    kwargs.update(overrides)
    return WireFleet(**kwargs)


class TestSpec:
    def test_shard_id_range_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            WireNodeSpec(shard_id=2, shards_total=2)

    def test_recover_requires_durability(self):
        with pytest.raises(ValueError, match="durability_dir"):
            WireNodeSpec(shard_id=0, shards_total=1, recover=True)

    def test_composites_partition_without_overlap(self):
        specs = [WireNodeSpec(shard_id=s, shards_total=3, composites=8)
                 for s in range(3)]
        names = [n for spec in specs for n in spec.composite_names()]
        assert len(names) == len(set(names)) == 8

    def test_spec_survives_replace_for_recovery(self):
        spec = WireNodeSpec(shard_id=0, shards_total=1,
                            durability_dir="/tmp/x")
        recovered = dataclasses.replace(spec, recover=True)
        assert recovered.recover and recovered.node_id == spec.node_id


class TestSingleNode:
    def test_boot_failure_is_reported_not_hung(self, tmp_path):
        """A child that cannot boot reports the reason through the
        spawn pipe instead of leaving the parent to time out."""
        spec = WireNodeSpec(shard_id=0, shards_total=1,
                            durability_dir=str(tmp_path / "dur"),
                            fsync="interval")
        bad = dataclasses.replace(spec, listen_host="256.0.0.999")
        with pytest.raises(TransportError, match="failed to boot"):
            spawn_wire_node(bad, start_timeout=SPAWN_TIMEOUT_S)

    def test_spawn_execute_shutdown_exit_zero(self):
        with small_fleet(shards=1) as fleet:
            handle = fleet.nodes[0]
            assert handle.alive and handle.pid is not None
            pong = fleet.ping(0)
            assert pong["node"] == "wireshard-0"
            result = fleet.submit(fleet.composites[0]).result(timeout=60.0)
            assert result.ok
        assert handle.join(timeout=10.0) == 0


class TestFleet:
    def test_two_processes_exchange_envelopes(self):
        """The acceptance criterion: >= 2 real shard processes, every
        request a serialized envelope round trip."""
        with small_fleet() as fleet:
            pids = {h.pid for h in fleet.nodes.values()}
            assert len(pids) == 2
            calls = [fleet.submit(name)
                     for name in fleet.composites for _ in range(3)]
            results = [c.result(timeout=60.0) for c in calls]
            assert all(r.ok for r in results)
            stats = fleet.stats()
            assert sum(b["executions"] for b in stats.values()) \
                == len(calls)
            for body in stats.values():
                assert body["wire"]["framing_errors"] == 0
                assert body["wire"]["codec_errors"] == 0

    def test_resolved_burst_leaves_no_live_executions(self):
        """Across the process boundary: once a burst has resolved, no
        coordinator or composite wrapper in the shard holds state for
        any of its executions."""
        with small_fleet(shards=1) as fleet:
            calls = [fleet.submit(name)
                     for name in fleet.composites for _ in range(20)]
            assert all(c.result(timeout=60.0).ok for c in calls)
            body = fleet.stats()[0]
            assert body["executions"] == len(calls)
            assert body["live_executions"] == 0

    def test_one_delivery_thread_per_process(self):
        """A shard process runs its main thread and ``wire-loop``, and
        nothing else; the fleet adds only its frontend's loop to the
        parent."""
        before = threading.active_count()
        with small_fleet(shards=1) as fleet:
            assert threading.active_count() - before == 1
            calls = [fleet.submit(name) for name in fleet.composites]
            assert all(c.result(timeout=60.0).ok for c in calls)
            assert fleet.stats()[0]["threads"] == 2

    def test_unknown_composite_rejected(self):
        with small_fleet(shards=1) as fleet:
            with pytest.raises(TransportError, match="unknown composite"):
                fleet.submit("NotAComposite")

    def test_kill_shard_is_a_real_process_death(self):
        with small_fleet() as fleet:
            fleet.submit(fleet.composites[0]).result(timeout=60.0)
            fleet.kill_shard(0)
            assert not fleet.nodes[0].alive
            # The surviving shard keeps serving.
            survivor = [n for n in fleet.composites
                        if fleet.shard_of(n) == 1][0]
            assert fleet.submit(survivor).result(timeout=60.0).ok

    def test_recover_without_durability_refused(self):
        with small_fleet(shards=1) as fleet:
            with pytest.raises(TransportError, match="durability"):
                fleet.recover_shard(0)

    def test_recover_live_shard_refused(self, tmp_path):
        with small_fleet(shards=1,
                         durability_dir=str(tmp_path)) as fleet:
            with pytest.raises(TransportError, match="still alive"):
                fleet.recover_shard(0)


class TestDurability:
    def test_killed_process_recovers_via_wal_replay(self, tmp_path):
        """Snapshot, SIGKILL the shard *process*, respawn with
        recover=True: the fresh incarnation replays its WAL and serves
        again; an orphaned in-flight call completes via resubmission."""
        with small_fleet(durability_dir=str(tmp_path),
                         fsync="always") as fleet:
            for name in fleet.composites:
                assert fleet.submit(name).result(timeout=60.0).ok
            snap = fleet.snapshot_shard(0)
            assert snap.get("ok"), snap
            assert fleet.submit(fleet.composites[0]).result(
                timeout=60.0
            ).ok
            old_pid = fleet.nodes[0].pid
            fleet.kill_shard(0)
            orphan = fleet.submit(fleet.composites[0])
            summary = fleet.recover_shard(0)
            assert fleet.nodes[0].pid != old_pid
            assert summary["snapshot_id"] == snap["snapshot_id"]
            assert summary["redeployed"] >= 1
            assert orphan.result(timeout=60.0).ok
            assert fleet.submit(fleet.composites[0]).result(
                timeout=60.0
            ).ok
            recovery = fleet.stats()[0]["recovery"]
            assert recovery is not None
            assert recovery["snapshot_id"] == snap["snapshot_id"]

    def test_recovery_reports_replayed_work(self, tmp_path):
        """Without a snapshot the whole WAL replays: the recovered
        incarnation's report shows the records it consumed."""
        with small_fleet(shards=1, durability_dir=str(tmp_path),
                         fsync="always") as fleet:
            for _ in range(2):
                assert fleet.submit(fleet.composites[0]).result(
                    timeout=60.0
                ).ok
            fleet.kill_shard(0)
            summary = fleet.recover_shard(0)
            assert summary["records_total"] > 0
            assert summary["snapshot_id"] is None
            assert fleet.submit(fleet.composites[0]).result(
                timeout=60.0
            ).ok

    def test_result_hand_back_pages_under_the_frame_limit(self, tmp_path):
        """More finished work than one reply frame holds: the recovered
        shard hands its results back in pages, and every call whose
        reply died with the shard resolves from the WAL."""
        lost = 80  # ~9 KiB of results against a 4 KiB frame limit
        fleet = small_fleet(shards=1, durability_dir=str(tmp_path),
                            fsync="always")
        fleet.specs = [dataclasses.replace(spec, max_frame_bytes=4096)
                       for spec in fleet.specs]
        dropping = []
        collect = fleet._collect

        def drop_results(message):
            # The shard finished the work, but the replies never reach
            # the parent: they are lost with the shard about to die.
            if not (dropping and message.kind == ExecuteResult.KIND):
                collect(message)

        fleet._collect = drop_results
        with fleet:
            assert fleet.submit(fleet.composites[0]).result(
                timeout=60.0
            ).ok
            assert fleet.snapshot_shard(0).get("ok")
            dropping.append(True)
            calls = [fleet.submit(fleet.composites[i % 2])
                     for i in range(lost)]
            deadline = time.monotonic() + 60.0
            while fleet.stats()[0]["executions"] < 1 + lost:
                assert time.monotonic() < deadline, "shard never finished"
                time.sleep(0.05)
            fleet.kill_shard(0)
            summary = fleet.recover_shard(0)
            assert summary["recovered_results"] == lost
            assert summary["resolved_from_wal"] == lost
            assert summary["resubmitted"] == 0
            assert all(call.done() and call.peek().ok for call in calls)
