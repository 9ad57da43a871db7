"""WAL framing, fsync crash semantics, and the logging middleware.

The torn-write sweep is the core guarantee: a reader presented with a
log cut at *any* byte offset inside the final record recovers every
record before it and reports the tail dirty — no offset panics, none
yields a phantom record.
"""

import json
import os

import pytest

from repro.api import PlatformConfig
from repro.api.platform import Platform
from repro.durability import DurabilityConfig
from repro.durability.segments import (
    HEADER_SIZE,
    SegmentStore,
    SegmentWriter,
    frame,
    read_segment,
)
from repro.durability.wal import WriteAheadLog
from repro.exceptions import DurabilityError
from repro.net.message import Message


def _payloads(n):
    return [f"record-{i:03d}-{'x' * (7 * i)}".encode() for i in range(n)]


class TestFraming:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "seg")
        writer = SegmentWriter(path, fsync="always")
        for payload in _payloads(5):
            writer.append(payload)
        writer.close()
        payloads, clean, valid = read_segment(path)
        assert payloads == _payloads(5)
        assert clean
        assert valid == os.path.getsize(path)

    def test_torn_write_at_every_byte_offset_of_final_record(
        self, tmp_path
    ):
        """Cut the file anywhere inside the last frame: the records
        before it survive and the tail reads as dirty."""
        path = str(tmp_path / "seg")
        writer = SegmentWriter(path, fsync="always")
        for payload in _payloads(3):
            writer.append(payload)
        writer.close()
        data = open(path, "rb").read()
        last_frame = frame(_payloads(3)[2])
        boundary = len(data) - len(last_frame)

        # Cut exactly on the boundary: two whole records, clean tail.
        torn = str(tmp_path / "torn")
        with open(torn, "wb") as handle:
            handle.write(data[:boundary])
        payloads, clean, valid = read_segment(torn)
        assert payloads == _payloads(2) and clean and valid == boundary

        # Cut at every offset strictly inside the final frame.
        for cut in range(boundary + 1, len(data)):
            with open(torn, "wb") as handle:
                handle.write(data[:cut])
            payloads, clean, valid = read_segment(torn)
            assert payloads == _payloads(2), f"cut at byte {cut}"
            assert not clean, f"cut at byte {cut} read as clean"
            assert valid == boundary, f"cut at byte {cut}"

    def test_corrupt_crc_stops_the_read(self, tmp_path):
        path = str(tmp_path / "seg")
        writer = SegmentWriter(path, fsync="always")
        for payload in _payloads(3):
            writer.append(payload)
        writer.close()
        data = bytearray(open(path, "rb").read())
        # Flip one payload byte inside the second frame.
        second_start = len(frame(_payloads(1)[0]))
        data[second_start + HEADER_SIZE] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        payloads, clean, valid = read_segment(path)
        assert payloads == _payloads(1)
        assert not clean
        assert valid == second_start

    def test_corrupt_magic_stops_the_read(self, tmp_path):
        path = str(tmp_path / "seg")
        writer = SegmentWriter(path, fsync="always")
        for payload in _payloads(2):
            writer.append(payload)
        writer.close()
        data = bytearray(open(path, "rb").read())
        first_len = len(frame(_payloads(1)[0]))
        data[first_len] ^= 0xFF  # second frame's magic
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        payloads, clean, _ = read_segment(path)
        assert payloads == _payloads(1)
        assert not clean


class TestFsyncPolicies:
    def test_always_loses_nothing_on_crash(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "seg"), fsync="always")
        for payload in _payloads(4):
            writer.append(payload)
        assert writer.records_durable == 4
        assert writer.crash() == 0
        payloads, clean, _ = read_segment(str(tmp_path / "seg"))
        assert payloads == _payloads(4) and clean

    def test_never_loses_the_whole_unsynced_tail(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "seg"), fsync="never")
        for payload in _payloads(4):
            writer.append(payload)
        assert writer.records_durable == 0
        assert os.path.getsize(str(tmp_path / "seg")) == 0
        assert writer.crash() == 4
        payloads, clean, _ = read_segment(str(tmp_path / "seg"))
        assert payloads == [] and clean

    def test_interval_syncs_every_n_records(self, tmp_path):
        writer = SegmentWriter(
            str(tmp_path / "seg"), fsync="interval",
            fsync_interval_records=3,
        )
        for payload in _payloads(7):
            writer.append(payload)
        # Two full intervals durable, one record pending.
        assert writer.records_durable == 6
        assert writer.syncs == 2
        assert writer.crash() == 1

    def test_explicit_sync_drains_the_pending_tail(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "seg"), fsync="never")
        for payload in _payloads(3):
            writer.append(payload)
        writer.sync()
        assert writer.records_durable == 3
        assert writer.crash() == 0

    def test_clean_close_is_durable_under_any_policy(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "seg"), fsync="never")
        for payload in _payloads(3):
            writer.append(payload)
        writer.close()
        payloads, clean, _ = read_segment(str(tmp_path / "seg"))
        assert payloads == _payloads(3) and clean

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = SegmentWriter(str(tmp_path / "seg"))
        writer.close()
        with pytest.raises(DurabilityError):
            writer.append(b"late")


class TestSegmentStore:
    def test_rolls_segments_at_the_size_limit(self, tmp_path):
        store = SegmentStore(
            str(tmp_path), fsync="always", segment_max_bytes=64
        )
        for payload in _payloads(10):
            store.append(payload)
        assert len(store.segment_paths()) > 1
        payloads, clean = store.read_all()
        assert payloads == _payloads(10) and clean
        store.close()

    def test_truncate_never_reuses_segment_numbers(self, tmp_path):
        store = SegmentStore(str(tmp_path), fsync="always")
        store.append(b"one")
        first = store.segment_paths()
        assert store.truncate() == 1
        assert store.segment_paths() == []
        store.append(b"two")
        assert store.segment_paths() != first
        assert store.segment_paths()[0] > first[0]
        store.close()

    def test_reopened_store_resumes_numbering(self, tmp_path):
        store = SegmentStore(str(tmp_path), fsync="always",
                             segment_max_bytes=16)
        for payload in _payloads(6):
            store.append(payload)
        store.close()
        reopened = SegmentStore(str(tmp_path), fsync="always")
        reopened.append(b"after-restart")
        paths = reopened.segment_paths()
        assert paths == sorted(paths)
        payloads, clean = reopened.read_all()
        assert payloads == _payloads(6) + [b"after-restart"] and clean
        reopened.close()

    def test_torn_non_final_segment_stops_the_read(self, tmp_path):
        store = SegmentStore(str(tmp_path), fsync="always",
                             segment_max_bytes=16)
        for payload in _payloads(6):
            store.append(payload)
        store.close()
        paths = store.segment_paths()
        assert len(paths) > 2
        with open(paths[1], "ab") as handle:
            handle.write(b"\x00garbage")
        payloads, clean = store.read_all()
        assert not clean
        # Nothing past the hole is returned: ordering beyond it is
        # no longer trustworthy.
        first_seg, _, _ = read_segment(paths[0])
        second_seg, _, _ = read_segment(paths[1])
        assert payloads == first_seg + second_seg

    def test_cut_torn_tail_keeps_later_appends_readable(self, tmp_path):
        store = SegmentStore(str(tmp_path), fsync="always")
        for payload in _payloads(3):
            store.append(payload)
        store.close()
        torn = store.segment_paths()[-1]
        with open(torn, "ab") as handle:
            handle.write(frame(b"half a frame")[:HEADER_SIZE + 2])

        reopened = SegmentStore(str(tmp_path), fsync="always")
        assert reopened.read_all() == (_payloads(3), False)
        reopened.cut_torn_tail()
        assert read_segment(torn)[1]
        for payload in _payloads(6)[3:]:
            reopened.append(payload)
        reopened.close()
        assert SegmentStore(str(tmp_path)).read_all() == (_payloads(6), True)

    def test_crash_with_no_open_writer_loses_nothing(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        assert store.crash() == 0


class TestWriteAheadLog:
    def _message(self, kind="invoke", body=None):
        return Message(
            kind=kind, source="n1", source_endpoint="coord:C:run:T0",
            target="n2", target_endpoint="wrapper:S",
            body=body or {"invocation_id": "T0-1"},
        )

    def _wal(self, tmp_path, **kwargs):
        return WriteAheadLog(SegmentStore(str(tmp_path), **kwargs))

    def test_record_round_trip(self, tmp_path):
        wal = self._wal(tmp_path, fsync="always")
        wal.append_delivery(self._message(), 12.5)
        wal.append_effect("C:run:1", "T0-1",
                          {"ok": True, "outputs": {"x": 1}, "fault": ""})
        wal.append_quarantine(
            self._message(body={"bogus": 1}), ValueError("bad body"), 13.0
        )
        records, clean = wal.read()
        assert clean
        assert [r["t"] for r in records] == \
            ["deliver", "effect", "quarantine"]
        deliver, effect, quarantine = records
        assert deliver["kind"] == "invoke" and deliver["ms"] == 12.5
        assert deliver["src"] == "n1" and deliver["dep"] == "wrapper:S"
        assert effect["eid"] == "C:run:1" and effect["outputs"] == {"x": 1}
        assert quarantine["error"] == "bad body"
        assert quarantine["body"] == {"bogus": 1}
        wal.close()

    def test_suspended_wal_appends_nothing(self, tmp_path):
        wal = self._wal(tmp_path, fsync="always")
        wal.suspended = True
        wal.append_delivery(self._message(), 1.0)
        wal.append_effect("e", "i", {"ok": True, "outputs": {}, "fault": ""})
        wal.append_quarantine(self._message(), ValueError("x"), 2.0)
        records, _ = wal.read()
        assert records == []
        assert wal.deliveries_logged == 0
        assert wal.quarantined == 0
        wal.close()

    def test_records_are_canonical_json(self, tmp_path):
        wal = self._wal(tmp_path, fsync="always")
        wal.append_delivery(self._message(), 1.0)
        payloads, _ = wal.store.read_all()
        parsed = json.loads(payloads[0])
        assert payloads[0] == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ).encode()
        wal.close()


class TestLoggingMiddleware:
    """The WAL riding the kernel mailbox, observed via a live platform."""

    @pytest.fixture
    def platform(self, tmp_path):
        platform = Platform(PlatformConfig(
            seed=1,
            durability=DurabilityConfig(dir=str(tmp_path), fsync="always"),
        ))
        yield platform
        platform.durability.wal.close()

    def _deploy_demo(self, platform):
        from repro.workload.generator import make_chain_workload
        from repro.workload.harness import composite_for_workload

        workload = make_chain_workload(tasks=2, seed=4,
                                       service_latency_ms=5.0)
        for index, service in enumerate(workload.services):
            platform.register_elementary(service, f"host-{index}")
        return platform.deploy_composite(
            composite_for_workload(workload, name="WalDemo"), "demo-host"
        )

    def test_every_handled_delivery_is_logged(self, platform):
        deployment = self._deploy_demo(platform)
        session = platform.session("alice", "alice-host")
        result = session.submit(deployment, "run", {}).result()
        assert result.ok
        records, clean = platform.durability.wal.read()
        assert clean
        kinds = {r["kind"] for r in records if r["t"] == "deliver"}
        # The full coordination protocol passes through the choke point.
        assert {"execute", "notify", "invoke", "invoke_result"} <= kinds
        assert platform.durability.wal.deliveries_logged == sum(
            1 for r in records if r["t"] == "deliver"
        )
        # Effects were recorded before their replies (WAL order).
        effect_positions = [i for i, r in enumerate(records)
                            if r["t"] == "effect"]
        assert len(effect_positions) == 2

    def test_malformed_envelope_is_quarantined_with_verb_and_sender(
        self, platform
    ):
        deployment = self._deploy_demo(platform)
        wrapper = platform.directory.resolve(deployment.composite.name)
        platform.ensure_node("evil-host")
        platform.transport.node("evil-host").register(
            "test:evil", lambda message: None
        )
        platform.transport.send(Message(
            kind="execute",
            source="evil-host", source_endpoint="test:evil",
            target=wrapper[0], target_endpoint=wrapper[1],
            body={"not_a_field": 1},
        ))
        platform.transport.run_until_idle()
        records, _ = platform.durability.wal.read()
        quarantined = [r for r in records if r["t"] == "quarantine"]
        assert len(quarantined) == 1
        record = quarantined[0]
        assert record["kind"] == "execute"
        assert record["src"] == "evil-host"
        assert record["sep"] == "test:evil"
        assert record["body"] == {"not_a_field": 1}
        assert record["error"]

    def test_malformed_detail_counter_names_verb_and_sender(
        self, platform
    ):
        deployment = self._deploy_demo(platform)
        wrapper = platform.directory.resolve(deployment.composite.name)
        platform.ensure_node("evil-host")
        platform.transport.node("evil-host").register(
            "test:evil", lambda message: None
        )
        for _ in range(2):
            platform.transport.send(Message(
                kind="execute",
                source="evil-host", source_endpoint="test:evil",
                target=wrapper[0], target_endpoint=wrapper[1],
                body={"oops": True},
            ))
        platform.transport.run_until_idle()
        counters = platform.kernel.counters
        key = (wrapper[1], "execute", "evil-host/test:evil")
        assert counters.malformed_detail[key] == 2
        assert counters.malformed[wrapper[1]] == 2
        counters.clear()
        assert counters.malformed_detail == {}
