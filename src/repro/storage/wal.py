"""The write-ahead log: append-only, CRC-fenced commit records.

Durability in the original Perm comes for free from PostgreSQL's WAL;
this module gives the reproduction the same contract in one file. Each
record is framed as::

    [u32 payload length][u32 CRC-32 of payload][payload JSON][commit marker]

The trailing one-byte commit marker plus the CRC make torn writes
detectable at any byte offset: a record is *durable* iff its full frame
is present, its marker matches and its payload checksums. Recovery
(:func:`read_records`) walks the file frame by frame from the start and
stops at the first incomplete or corrupt one — everything before it is
the durable committed prefix, everything after it is a torn tail to
truncate. The checkpoint (``snapshot.log``, :mod:`repro.storage.persist`)
is written and read in the same frames.

Three durability modes trade safety for commit latency:

==========  =========================================================
``fsync``   flush + ``os.fsync`` per append: survives OS/power loss.
``os``      flush to the OS page cache: survives process crash (kill
            -9), not power loss.
``off``     buffered in the process: fastest; a crash may lose the
            most recent commits but never corrupts the prefix
            (writes are still sequential and framed).
==========  =========================================================
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Iterator, Optional

from ..errors import OperationalError

_FRAME = struct.Struct(">II")  # payload length, CRC-32 of payload
FRAME_HEADER_SIZE = _FRAME.size
COMMIT_MARKER = b"\xc5"

DURABILITY_MODES = ("fsync", "os", "off")


def encode_record(record: dict) -> bytes:
    """One durable frame for *record* (strict JSON payload)."""
    payload = json.dumps(
        record, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    return (
        _FRAME.pack(len(payload), zlib.crc32(payload)) + payload + COMMIT_MARKER
    )


def read_records(path: str) -> Iterator[tuple[dict, int]]:
    """Iterate the durable prefix of the log at *path*.

    Yields ``(record, end_offset)`` for every complete, CRC-valid,
    marker-fenced record in append order, reading one frame at a time
    (recovery never holds more than the record it is replaying). The
    last ``end_offset`` — 0 if nothing was yielded — is where the durable
    prefix ends; a file longer than that has a torn tail, the caller's
    to truncate.
    """
    with open(path, "rb") as handle:
        while True:
            header = handle.read(FRAME_HEADER_SIZE)
            if len(header) < FRAME_HEADER_SIZE:
                return
            length, crc = _FRAME.unpack(header)
            body = handle.read(length + len(COMMIT_MARKER))
            payload = body[:length]
            if body[length:] != COMMIT_MARKER or zlib.crc32(payload) != crc:
                return
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return
            if not isinstance(record, dict):
                return
            yield record, handle.tell()


def truncate_log(path: str, length: int) -> None:
    """Cut the log back to its durable prefix (drops a torn tail)."""
    with open(path, "r+b") as handle:
        handle.truncate(length)
        handle.flush()
        os.fsync(handle.fileno())


class WriteAheadLog:
    """An open, append-only log file with a configurable durability mode.

    Thread-safe: appends serialize on an internal lock (commits already
    serialize on the transaction-manager lock, but non-transactional
    writes and DDL may race it)."""

    def __init__(self, path: str, durability: str = "fsync"):
        if durability not in DURABILITY_MODES:
            raise OperationalError(
                f"unknown durability mode {durability!r} "
                f"(valid: {', '.join(DURABILITY_MODES)})"
            )
        self.path = path
        self.durability = durability
        self._lock = threading.Lock()
        self._file: Optional = open(path, "ab")
        self._size = self._file.tell()
        # Telemetry (guarded by the lock).
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsync_count = 0

    def _check_open(self) -> None:
        if self._file is None:
            raise OperationalError("write-ahead log is closed")

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._size

    def append(self, record: dict) -> int:
        """Append one record and make it durable per the configured
        mode. Returns the byte offset the log ends at afterwards."""
        frame = encode_record(record)
        with self._lock:
            self._check_open()
            self._file.write(frame)
            if self.durability == "fsync":
                self._file.flush()
                os.fsync(self._file.fileno())
                self.fsync_count += 1
            elif self.durability == "os":
                self._file.flush()
            self._size += len(frame)
            self.records_appended += 1
            self.bytes_appended += len(frame)
            return self._size

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        with self._lock:
            self._check_open()
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsync_count += 1

    def reset(self) -> None:
        """Empty the log (checkpoint rotation: the snapshot now carries
        everything the log did)."""
        with self._lock:
            self._check_open()
            self._file.flush()
            self._file.truncate(0)
            self._file.seek(0)
            os.fsync(self._file.fileno())
            self._size = 0

    def close(self) -> None:
        with self._lock:
            if self._file is None:
                return
            try:
                self._file.flush()
                if self.durability == "fsync":
                    os.fsync(self._file.fileno())
            finally:
                self._file.close()
                self._file = None
