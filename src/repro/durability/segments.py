"""CRC/length-framed write-ahead log segments.

On-disk frame format (all integers big-endian)::

    +-------+----------+-----------+-----------------+
    | magic | length   | crc32     | payload         |
    | 2 B   | 4 B      | 4 B       | ``length`` B    |
    +-------+----------+-----------+-----------------+

A reader stops at the first frame that is incomplete (torn write at
power loss) or fails its CRC; everything before it is valid.  Segments
are append-only and numbered monotonically (``wal-000001.seg``...),
so truncation after a snapshot is just deleting files — numbering
never restarts, which keeps replay ordering unambiguous.

Durability is modelled honestly: appended records sit in an explicit
in-memory ``pending`` buffer and reach the file *only* at sync points
decided by the fsync policy.  :meth:`SegmentWriter.crash` drops the
pending buffer — exactly what power loss does to an OS page cache that
was never fsynced — so tests and benchmarks measure the real trade-off
between ``always``/``interval``/``never`` instead of a flattering one.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from typing import List, Optional, Tuple

from repro.exceptions import DurabilityError

MAGIC = b"\xa5\x5a"
_HEADER = struct.Struct(">II")  # (payload length, crc32)
HEADER_SIZE = len(MAGIC) + _HEADER.size  # 10 bytes

_SEGMENT_RE = re.compile(r"^wal-(\d{6})\.seg$")


def frame(payload: bytes) -> bytes:
    """One framed record ready to append."""
    return MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_segment(path: str) -> Tuple[List[bytes], bool, int]:
    """Read one segment, surviving a torn tail.

    Returns ``(payloads, clean, valid_bytes)``: the payloads of every
    frame up to the first incomplete or corrupt one, whether the file
    ended exactly on a frame boundary, and the byte offset of the last
    valid frame end (the safe truncation point).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    payloads: List[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < HEADER_SIZE:
            return payloads, False, offset
        if data[offset:offset + len(MAGIC)] != MAGIC:
            return payloads, False, offset
        length, crc = _HEADER.unpack_from(data, offset + len(MAGIC))
        end = offset + HEADER_SIZE + length
        if end > total:
            return payloads, False, offset
        payload = data[offset + HEADER_SIZE:end]
        if zlib.crc32(payload) != crc:
            return payloads, False, offset
        payloads.append(payload)
        offset = end
    return payloads, True, offset


class SegmentWriter:
    """Append-only writer for one segment file.

    Records buffer in memory until a sync point; ``sync()`` writes the
    buffered frames, flushes, and ``os.fsync``s, so file content always
    equals durable content.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "interval",
        fsync_interval_records: int = 64,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.fsync_interval_records = fsync_interval_records
        self._file = open(path, "ab")
        self._pending: List[bytes] = []
        self.records_appended = 0
        self.records_durable = 0
        self.bytes_appended = 0
        self.syncs = 0
        self.closed = False

    def append(self, payload: bytes) -> None:
        if self.closed:
            raise DurabilityError(f"segment {self.path} is closed")
        framed = frame(payload)
        self._pending.append(framed)
        self.records_appended += 1
        self.bytes_appended += len(framed)
        if self.fsync == "always":
            self.sync()
        elif (
            self.fsync == "interval"
            and len(self._pending) >= self.fsync_interval_records
        ):
            self.sync()

    def sync(self) -> None:
        """Make everything appended so far durable."""
        if not self._pending:
            return
        self._file.write(b"".join(self._pending))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._pending.clear()
        self.records_durable = self.records_appended
        self.syncs += 1

    def crash(self) -> int:
        """Simulate power loss: drop the unsynced tail.  Returns records lost."""
        lost = self.records_appended - self.records_durable
        self._pending.clear()
        self._file.close()
        self.closed = True
        return lost

    def close(self) -> None:
        """Clean shutdown: sync whatever is pending, then close."""
        if self.closed:
            return
        self.sync()
        self._file.close()
        self.closed = True


class SegmentStore:
    """A directory of numbered segments with rolling and truncation."""

    def __init__(
        self,
        directory: str,
        fsync: str = "interval",
        fsync_interval_records: int = 64,
        segment_max_bytes: int = 1 << 20,
    ) -> None:
        self.directory = directory
        self.fsync = fsync
        self.fsync_interval_records = fsync_interval_records
        self.segment_max_bytes = segment_max_bytes
        os.makedirs(directory, exist_ok=True)
        existing = self._segment_indices()
        self._next_index = (existing[-1] + 1) if existing else 1
        self._writer: Optional[SegmentWriter] = None
        # Aggregate counters folded in as writers close or roll.
        self.records_appended = 0
        self.bytes_appended = 0
        self._closed_syncs = 0
        self._closed_durable = 0

    def _segment_indices(self) -> List[int]:
        indices = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                indices.append(int(match.group(1)))
        return sorted(indices)

    def segment_paths(self) -> List[str]:
        """Existing segment files in append order."""
        return [
            os.path.join(self.directory, f"wal-{index:06d}.seg")
            for index in self._segment_indices()
        ]

    def _fold_writer(self) -> None:
        assert self._writer is not None
        self._closed_syncs += self._writer.syncs
        self._closed_durable += self._writer.records_durable
        self._writer = None

    def _open_writer(self) -> SegmentWriter:
        path = os.path.join(self.directory, f"wal-{self._next_index:06d}.seg")
        self._next_index += 1
        self._writer = SegmentWriter(
            path,
            fsync=self.fsync,
            fsync_interval_records=self.fsync_interval_records,
        )
        return self._writer

    def append(self, payload: bytes) -> None:
        writer = self._writer
        if writer is None or writer.closed:
            writer = self._open_writer()
        elif writer.bytes_appended >= self.segment_max_bytes:
            writer.close()
            self._fold_writer()
            writer = self._open_writer()
        writer.append(payload)
        self.records_appended += 1
        self.bytes_appended += HEADER_SIZE + len(payload)

    def sync(self) -> None:
        if self._writer is not None and not self._writer.closed:
            self._writer.sync()

    @property
    def syncs(self) -> int:
        live = self._writer.syncs if self._writer is not None else 0
        return self._closed_syncs + live

    @property
    def records_durable(self) -> int:
        live = self._writer.records_durable if self._writer is not None else 0
        return self._closed_durable + live

    def read_all(self) -> Tuple[List[bytes], bool]:
        """All valid payloads across segments, oldest first.

        ``clean`` is False when any segment had a torn/corrupt tail; a
        corrupt *non-final* segment conservatively stops the read there
        (records beyond a hole have no ordering guarantee).
        """
        payloads: List[bytes] = []
        for path in self.segment_paths():
            segment_payloads, clean, _ = read_segment(path)
            payloads.extend(segment_payloads)
            if not clean:
                return payloads, False
        return payloads, True

    def cut_torn_tail(self) -> None:
        """Durably truncate the last segment to its last whole frame.

        Recovery calls this after reading and before the recovered
        incarnation appends, so the log stays a gapless run of whole
        frames: a torn frame left on disk would stop every later
        :meth:`read_all` there and hide the records appended after it.
        """
        paths = self.segment_paths()
        if not paths:
            return
        _, clean, valid_bytes = read_segment(paths[-1])
        if not clean:
            with open(paths[-1], "r+b") as handle:
                handle.truncate(valid_bytes)
                os.fsync(handle.fileno())

    def truncate(self) -> int:
        """Delete every segment (after a durable snapshot).  Returns count.

        Numbering keeps increasing, so a truncated store never reuses a
        segment name.
        """
        if self._writer is not None:
            self._writer.close()
            self._fold_writer()
        paths = self.segment_paths()
        for path in paths:
            os.remove(path)
        return len(paths)

    def crash(self) -> int:
        """Drop the unsynced tail, as power loss would.  Returns records lost."""
        if self._writer is None:
            return 0
        lost = self._writer.crash()
        self._fold_writer()
        return lost

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._fold_writer()
