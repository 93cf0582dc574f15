"""Durability and crash recovery: the WAL/checkpoint layer.

The central property: **a kill at any byte offset recovers exactly the
committed prefix.** Three attack surfaces cover it:

* a deterministic truncation matrix — build a WAL, then recover from a
  copy truncated at every interesting byte offset (mid-header,
  mid-payload, missing commit marker, plus seeded random offsets) and
  at a corrupted (bit-flipped) record;
* a subprocess kill matrix — a seeded writer is SIGKILLed mid-commit at
  random points (including while inside fsync) and the survivor must
  equal the transaction oracle's committed prefix, with every
  acknowledged fsync-durable commit present;
* a recover→write→crash loop asserting replay idempotence: version
  stamps stay monotone across restarts and no committed transaction is
  ever applied twice;
* the checkpoint's own windows — a crash after ``snapshot.log`` is
  renamed but before ``wal.log`` resets, a leftover temp file, and
  snapshots recovery must refuse rather than half-load (damaged, cut at
  a frame boundary, another format, a format-1 directory).

``REPRO_CRASH_SEEDS`` widens the seed bank (the CI crash-recovery job
runs more); failures dump the data directory under
``.recovery-failures/`` for deterministic replay.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from crashharness import (
    commit_txn,
    expected_state,
    kill_after_acks,
    read_recovered,
    spawn_writer,
    verify_recovered,
)

from repro.engine.database import Database
from repro.errors import OperationalError
from repro.storage import wal as wal_mod
from repro.storage.persist import SNAPSHOT_NAME, WAL_NAME

CRASH_SEEDS = int(os.environ.get("REPRO_CRASH_SEEDS", "4"))
TIER1_CRASH_SEEDS = 4


def _seed_params():
    for seed in range(CRASH_SEEDS):
        marks = [pytest.mark.exhaustive] if seed >= TIER1_CRASH_SEEDS else []
        yield pytest.param(seed, marks=marks, id=f"seed{seed}")


def _wal_path(data_dir) -> str:
    return os.path.join(data_dir, WAL_NAME)


def _read_log(path) -> tuple[list[dict], int, int]:
    """``(records, durable length, file length)`` of the log at *path*."""
    frames = list(wal_mod.read_records(path))
    durable = frames[-1][1] if frames else 0
    return [record for record, _ in frames], durable, os.path.getsize(path)


def _create_oracle_tables(conn) -> None:
    conn.run("CREATE TABLE t (id int, val int)")
    conn.run("CREATE TABLE progress (k int)")


# ---------------------------------------------------------------------------
# WAL framing unit tests
# ---------------------------------------------------------------------------


class TestWalFraming:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = wal_mod.WriteAheadLog(path, durability="fsync")
        log.append({"seq": 1, "x": "a"})
        log.append({"seq": 2, "x": "b"})
        log.close()
        records, durable, total = _read_log(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert durable == total

    def test_torn_tail_at_every_offset(self, tmp_path):
        """Truncating anywhere inside record N keeps exactly records
        1..N-1 — the byte-exact prefix property."""
        path = str(tmp_path / "wal.log")
        log = wal_mod.WriteAheadLog(path, durability="off")
        ends = []
        for seq in range(1, 4):
            ends.append(log.append({"seq": seq, "pad": "p" * seq}))
        log.close()
        with open(path, "rb") as handle:
            full = handle.read()
        for cut in range(len(full) + 1):
            torn = str(tmp_path / "torn.log")
            with open(torn, "wb") as handle:
                handle.write(full[:cut])
            records, durable, total = _read_log(torn)
            survivors = [end for end in ends if end <= cut]
            assert [r["seq"] for r in records] == list(
                range(1, len(survivors) + 1)
            ), f"cut at byte {cut}"
            assert durable == (survivors[-1] if survivors else 0)
            assert total == cut

    def test_corrupt_payload_fails_crc(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = wal_mod.WriteAheadLog(path)
        first_end = log.append({"seq": 1})
        log.append({"seq": 2, "value": "sentinel"})
        log.close()
        with open(path, "r+b") as handle:
            handle.seek(first_end + wal_mod.FRAME_HEADER_SIZE + 2)
            byte = handle.read(1)
            handle.seek(first_end + wal_mod.FRAME_HEADER_SIZE + 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        records, durable, _ = _read_log(path)
        assert [r["seq"] for r in records] == [1]
        assert durable == first_end

    def test_reset_empties_the_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = wal_mod.WriteAheadLog(path)
        log.append({"seq": 1})
        log.reset()
        log.append({"seq": 9})
        log.close()
        records, _, _ = _read_log(path)
        assert [r["seq"] for r in records] == [9]

    def test_unknown_durability_mode_refused(self, tmp_path):
        with pytest.raises(OperationalError, match="durability"):
            wal_mod.WriteAheadLog(str(tmp_path / "w"), durability="lazy")


# ---------------------------------------------------------------------------
# Basic persistence
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_round_trip_across_restart(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE people (name text, age int)")
            conn.run("INSERT INTO people VALUES ('ann', 34), ('bob', 27)")
            conn.run("UPDATE people SET age = 35 WHERE name = 'ann'")
            conn.run("CREATE VIEW adults AS SELECT name FROM people WHERE age >= 30")
        with Database(path=d) as db:
            conn = db.connect()
            assert conn.run("SELECT * FROM people ORDER BY name").rows == [
                ("ann", 35),
                ("bob", 27),
            ]
            assert conn.run("SELECT * FROM adults").rows == [("ann",)]

    def test_drop_survives_restart(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE a (x int)")
            conn.run("CREATE TABLE b (x int)")
            conn.run("DROP TABLE a")
        with Database(path=d) as db:
            assert not db.catalog.has_table("a")
            assert db.catalog.has_table("b")

    def test_provenance_registration_survives_restart(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE src (x int)")
            conn.run("INSERT INTO src VALUES (1), (2)")
            conn.run("CREATE TABLE copy AS SELECT PROVENANCE x FROM src")
            before = db.catalog.provenance_attrs("copy")
            assert before
        with Database(path=d) as db:
            assert db.catalog.provenance_attrs("copy") == before

    def test_rolled_back_transaction_leaves_no_trace(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (x int)")
            conn.run("BEGIN")
            conn.run("INSERT INTO t VALUES (1)")
            conn.run("ROLLBACK")
            stats = db.wal_stats()
            # Only the CREATE TABLE record: a rolled-back transaction
            # must never reach the log.
            assert stats["records_appended"] == 1
        with Database(path=d) as db:
            assert db.connect().run("SELECT * FROM t").rows == []

    def test_non_finite_floats_survive_restart(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE f (x float)")
            conn.run("INSERT INTO f VALUES (1e308 * 10), (0 - 1e308 * 10), (1.5)")
        with Database(path=d) as db:
            rows = db.connect().run("SELECT x FROM f").rows
            assert rows[0][0] == float("inf")
            assert rows[1][0] == float("-inf")
            assert rows[2][0] == 1.5

    def test_checkpoint_rotates_log_and_recovers(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (x int)")
            conn.run("INSERT INTO t VALUES (1), (2)")
            assert db.wal_stats()["wal_bytes"] > 0
            result = conn.run("CHECKPOINT")
            assert result.rows == [("CHECKPOINT",)]
            stats = db.wal_stats()
            assert stats["wal_bytes"] == 0
            assert stats["checkpoints"] == 1
            conn.run("INSERT INTO t VALUES (3)")
        with Database(path=d) as db:
            stats = db.wal_stats()
            # Only the post-checkpoint insert replays.
            assert stats["records_replayed"] == 1
            assert db.connect().run("SELECT x FROM t ORDER BY x").rows == [
                (1,),
                (2,),
                (3,),
            ]

    def test_automatic_checkpoint_on_threshold(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d, checkpoint_bytes=512) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (x int, pad text)")
            for i in range(12):
                conn.run(f"INSERT INTO t VALUES ({i}, '{'p' * 64}')")
            stats = db.wal_stats()
            assert stats["checkpoints"] >= 1
            assert stats["wal_bytes"] < 512 + 2048
        with Database(path=d) as db:
            assert len(db.connect().run("SELECT x FROM t").rows) == 12

    def test_failed_automatic_checkpoint_leaves_the_commit_standing(
        self, tmp_path, monkeypatch
    ):
        # The commit is durable before the threshold check runs, so a
        # failing checkpoint must not report it as failed (a client
        # retrying it would insert the row twice).
        import errno

        from repro.storage import persist

        def no_space(path, chunks):
            raise OSError(errno.ENOSPC, "No space left on device")

        d = str(tmp_path / "db")
        with Database(path=d, checkpoint_bytes=1) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (x int)")
            with monkeypatch.context() as patch:
                patch.setattr(persist, "_write_atomically", no_space)
                conn.run("INSERT INTO t VALUES (1)")
                stats = db.wal_stats()
                assert (stats["checkpoint_failures"], stats["checkpoints"]) == (1, 0)
                assert stats["wal_bytes"] > 0
                # An explicit checkpoint still reports its failure.
                with pytest.raises(OSError):
                    conn.run("CHECKPOINT")
                with pytest.raises(OSError):
                    db.checkpoint()
                assert db.wal_stats()["checkpoint_failures"] == 1
            conn.run("INSERT INTO t VALUES (2)")
            stats = db.wal_stats()
            assert (stats["checkpoints"], stats["wal_bytes"]) == (1, 0)
        with Database(path=d) as db:
            assert db.connect().run("SELECT x FROM t ORDER BY x").rows == [(1,), (2,)]

    @pytest.mark.parametrize("durability", wal_mod.DURABILITY_MODES)
    def test_fsyncs_follow_the_durability_mode(self, tmp_path, monkeypatch, durability):
        # "fsync" reaches the disk at least once per commit; "os" and
        # "off" never fsync on the commit path. Both the real calls and
        # the reported count are checked.
        commits = 20
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        with Database(path=str(tmp_path / "db"), durability=durability) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (x int)")
            before, reported = len(calls), db.wal_stats()["fsyncs"]
            for i in range(commits):
                conn.run(f"INSERT INTO t VALUES ({i})")
            fsynced = len(calls) - before
            reported = db.wal_stats()["fsyncs"] - reported
        if durability == "fsync":
            assert fsynced >= commits and reported >= commits
        else:
            assert (fsynced, reported) == (0, 0)

    def test_checkpoint_is_noop_in_memory(self):
        db = Database()
        conn = db.connect()
        result = conn.run("CHECKPOINT")
        assert result.rows == [("CHECKPOINT (in-memory)",)]
        assert db.wal_stats() == {"enabled": False}

    def test_truncate_survives_restart(self, tmp_path):
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (x int)")
            conn.run("INSERT INTO t VALUES (1), (2)")
            conn.run("BEGIN")
            conn.run("DELETE FROM t")
            conn.run("COMMIT")
        with Database(path=d) as db:
            assert db.connect().run("SELECT * FROM t").rows == []

    def test_recovered_reads_identical_across_engines(self, tmp_path):
        d = str(tmp_path / "db")
        seed = 11
        with Database(path=d) as db:
            conn = db.connect()
            _create_oracle_tables(conn)
            for k in range(1, 9):
                commit_txn(conn, seed, k)
        with Database(path=d) as db:
            results = [
                db.connect(engine=engine).run("SELECT id, val FROM t ORDER BY id").rows
                for engine in ("row", "vectorized", "sqlite")
            ]
            assert results[0] == results[1] == results[2]
            assert dict(results[0]) == expected_state(seed, 8)


# ---------------------------------------------------------------------------
# Deterministic truncation matrix
# ---------------------------------------------------------------------------


class TestTruncationMatrix:
    @pytest.mark.parametrize("seed", _seed_params())
    def test_kill_at_any_byte_offset_recovers_committed_prefix(
        self, tmp_path, seed
    ):
        """Build a WAL in-process, then recover from copies truncated at
        seeded byte offsets plus every commit-boundary neighborhood; the
        survivor must equal the oracle's committed prefix exactly."""
        d = str(tmp_path / "db")
        commit_ends = []
        with Database(path=d) as db:
            conn = db.connect()
            _create_oracle_tables(conn)
            for k in range(1, 13):
                commit_txn(conn, seed, k)
                commit_ends.append(db.wal_stats()["wal_bytes"])
        total = os.path.getsize(_wal_path(d))
        assert commit_ends[-1] == total

        rng = random.Random(seed)
        offsets = {0, 1, total - 1, total}
        for end in commit_ends:
            # Just-durable, torn header, and torn marker positions.
            offsets.update({end, end - 1, min(end + 3, total)})
        offsets.update(rng.randrange(total + 1) for _ in range(12))
        for cut in sorted(offsets):
            crash_dir = str(tmp_path / f"crash{cut}")
            shutil.copytree(d, crash_dir)
            with open(_wal_path(crash_dir), "r+b") as handle:
                handle.truncate(cut)
            survivors = sum(1 for end in commit_ends if end <= cut)
            count = verify_recovered(crash_dir, seed, context=f"cut at {cut}")
            assert count == survivors, f"cut at byte {cut}"
            shutil.rmtree(crash_dir)

    def test_bit_flip_in_tail_record_loses_only_that_commit(self, tmp_path):
        seed = 3
        d = str(tmp_path / "db")
        commit_ends = []
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (id int, val int)")
            conn.run("CREATE TABLE progress (k int)")
            from crashharness import plan_txn

            for k in range(1, 5):
                ids = [r[0] for r in conn.run("SELECT id FROM t ORDER BY id").rows]
                _, _, inserts = plan_txn(ids, seed, k)
                conn.run("BEGIN")
                for rid, value in inserts:
                    conn.run(f"INSERT INTO t VALUES ({rid}, {value})")
                conn.run(f"INSERT INTO progress VALUES ({k})")
                conn.run("COMMIT")
                commit_ends.append(db.wal_stats()["wal_bytes"])
        # Flip one payload byte inside the final record.
        with open(_wal_path(d), "r+b") as handle:
            target = commit_ends[-2] + wal_mod.FRAME_HEADER_SIZE + 4
            handle.seek(target)
            byte = handle.read(1)
            handle.seek(target)
            handle.write(bytes([byte[0] ^ 0x40]))
        count, state, db = read_recovered(d)
        db.close()
        assert count == 3
        # The oracle only models inserts here, so rebuild expectations.
        expect: dict[int, int] = {}
        from crashharness import plan_txn

        for k in range(1, 4):
            _, _, inserts = plan_txn(sorted(expect), seed, k)
            expect.update(dict(inserts))
        assert state == expect


# ---------------------------------------------------------------------------
# Subprocess kill matrix
# ---------------------------------------------------------------------------


TXNS_PER_WRITER = 40


class TestKillMatrix:
    @pytest.mark.parametrize("durability", ["fsync", "os"])
    @pytest.mark.parametrize("seed", _seed_params())
    def test_sigkill_mid_commit_recovers_acked_prefix(
        self, tmp_path, seed, durability
    ):
        """SIGKILL a live writer at a seeded point mid-stream; recovery
        must produce the oracle's committed prefix and (fsync/os modes
        survive a process kill) include every acknowledged commit."""
        d = str(tmp_path / "db")
        rng = random.Random(seed * 7919 + (0 if durability == "fsync" else 1))
        proc = spawn_writer(d, seed, 1, TXNS_PER_WRITER, durability)
        acked, finished = kill_after_acks(
            proc,
            acks=rng.randint(1, TXNS_PER_WRITER // 2),
            delay=rng.choice([0.0, 0.0, 0.001, 0.003]),
        )
        count = verify_recovered(
            d, seed, context=f"SIGKILL after {len(acked)} acks ({durability})"
        )
        if not finished:
            # The kill landed mid-stream: an acknowledged commit was
            # durable before the ack was printed.
            assert count >= len(acked)
            assert count <= TXNS_PER_WRITER

    def test_kill_during_initial_ddl(self, tmp_path):
        """A kill before the first commit must recover to an empty (or
        table-less) database, never a half-created catalog crash."""
        d = str(tmp_path / "db")
        proc = spawn_writer(d, 0, 1, TXNS_PER_WRITER, "fsync")
        proc.kill()
        proc.wait(timeout=30)
        if proc.stdout is not None:
            proc.stdout.close()
        if proc.stderr is not None:
            proc.stderr.close()
        count = verify_recovered(d, 0, context="SIGKILL at startup")
        assert count >= 0


# ---------------------------------------------------------------------------
# Replay idempotence: recover -> write -> crash -> recover, in a loop
# ---------------------------------------------------------------------------


class TestReplayIdempotence:
    @pytest.mark.parametrize("seed", _seed_params())
    def test_crash_loop_never_double_applies(self, tmp_path, seed):
        """Across repeated crash/recover cycles every committed
        transaction applies exactly once (``progress`` stays a
        duplicate-free contiguous prefix, checked by the oracle) and
        version stamps stay monotone across restarts."""
        d = str(tmp_path / "db")
        rng = random.Random(seed + 424243)
        committed = 0
        last_stamp = 0
        for round_no in range(4):
            proc = spawn_writer(
                d, seed, committed + 1, TXNS_PER_WRITER, "fsync"
            )
            acked, finished = kill_after_acks(
                proc,
                acks=rng.randint(1, 10),
                delay=rng.choice([0.0, 0.001]),
            )
            if acked:
                # Monotone across the restart: the new process's stamps
                # must exceed everything the previous one committed.
                assert acked[0][1] > last_stamp, (
                    f"round {round_no}: stamp regressed across recovery"
                )
                last_stamp = max(stamp for _, stamp in acked)
            committed = verify_recovered(
                d, seed, context=f"crash loop round {round_no}"
            )
            assert committed >= len(acked) + (0 if round_no == 0 else 0)
            if finished:
                break

    def test_recovery_is_idempotent_without_writes(self, tmp_path):
        """Recovering the same directory repeatedly (no new writes) is a
        fixed point: same state, no new WAL records, same replay count."""
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            conn.run("CREATE TABLE t (x int)")
            conn.run("INSERT INTO t VALUES (1), (2), (3)")
        with open(_wal_path(d), "rb") as handle:
            wal_before = handle.read()
        for _ in range(3):
            with Database(path=d) as db:
                assert db.connect().run("SELECT x FROM t ORDER BY x").rows == [
                    (1,),
                    (2,),
                    (3,),
                ]
                assert db.wal_stats()["records_replayed"] == 2
            with open(_wal_path(d), "rb") as handle:
                assert handle.read() == wal_before


# ---------------------------------------------------------------------------
# The checkpoint's own windows
# ---------------------------------------------------------------------------


def _snapshot_path(data_dir) -> str:
    return os.path.join(data_dir, SNAPSHOT_NAME)


def _checkpointed(path, seed: int, commits: int) -> None:
    """A directory holding *commits* oracle transactions, checkpointed."""
    with Database(path=path) as db:
        conn = db.connect()
        _create_oracle_tables(conn)
        for k in range(1, commits + 1):
            commit_txn(conn, seed, k)
        conn.run("CHECKPOINT")


class TestCheckpointWindows:
    @pytest.mark.parametrize("seed", _seed_params())
    def test_crash_between_snapshot_rename_and_log_reset(self, tmp_path, seed):
        """The new snapshot is in place but the old log was never
        emptied: every logged commit is already inside the snapshot, so
        nothing replays — and nothing applies twice."""
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            _create_oracle_tables(conn)
            for k in range(1, 9):
                commit_txn(conn, seed, k)
            shutil.copy(_wal_path(d), str(tmp_path / "old.log"))
            conn.run("CHECKPOINT")
        assert os.path.getsize(_wal_path(d)) == 0
        shutil.copy(str(tmp_path / "old.log"), _wal_path(d))
        count, state, db = read_recovered(d)
        try:
            assert (count, state) == (8, expected_state(seed, 8))
            assert db.wal_stats()["records_replayed"] == 0
            # Life goes on past the stale log: new commits land after it
            # and are the only records the next recovery replays.
            conn = db.connect()
            for k in range(9, 12):
                commit_txn(conn, seed, k)
        finally:
            db.close()
        count, state, db = read_recovered(d)
        try:
            assert (count, state) == (11, expected_state(seed, 11))
            assert db.wal_stats()["records_replayed"] == 3
        finally:
            db.close()

    @pytest.mark.parametrize("leftover", ["garbage", "half-written"])
    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_leftover_temp_snapshot_is_ignored_and_removed(
        self, tmp_path, leftover, checkpointed
    ):
        """A crash mid-checkpoint leaves ``snapshot.log.tmp`` behind; the
        previous snapshot (or none at all) plus the log governs."""
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            _create_oracle_tables(conn)
            for k in range(1, 5):
                commit_txn(conn, 7, k)
            if checkpointed:
                conn.run("CHECKPOINT")
            commit_txn(conn, 7, 5)
        scratch = str(tmp_path / "scratch")
        _checkpointed(scratch, 8, 3)  # a different, plausible snapshot
        with open(_snapshot_path(scratch), "rb") as handle:
            other = handle.read()
        tmp = _snapshot_path(d) + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(b"\x00not a log" if leftover == "garbage" else other[: len(other) // 2])
        assert verify_recovered(d, 7, context=f"{leftover} temp snapshot") == 5
        assert not os.path.exists(tmp)

    @pytest.mark.parametrize(
        "damage, reason",
        [
            ("bit-flip", "torn or corrupt"),
            ("cut-at-frame-boundary", "torn or corrupt"),
            ("cut-mid-frame", "torn or corrupt"),
            ("other-format", "unsupported data-directory format 3"),
            ("headerless", "does not start with a checkpoint header"),
            ("format-1", "format-1 data directory"),
        ],
    )
    def test_damaged_or_foreign_snapshot_is_refused(self, tmp_path, damage, reason):
        """A snapshot is all-or-nothing: recovery names what is wrong
        instead of opening whatever prefix it could read."""
        d = str(tmp_path / "db")
        _checkpointed(d, 5, 6)
        path = _snapshot_path(d)
        frames = list(wal_mod.read_records(path))
        records = [record for record, _ in frames]
        ends = [end for _, end in frames]
        if damage == "bit-flip":
            with open(path, "r+b") as handle:
                handle.seek(ends[1] + wal_mod.FRAME_HEADER_SIZE + 4)
                byte = handle.read(1)
                handle.seek(-1, os.SEEK_CUR)
                handle.write(bytes([byte[0] ^ 0x40]))
        elif damage == "cut-at-frame-boundary":
            wal_mod.truncate_log(path, ends[-2])  # closing header gone
        elif damage == "cut-mid-frame":
            wal_mod.truncate_log(path, ends[-1] - 3)
        elif damage == "other-format":
            records[0] = records[-1] = dict(records[0], format=3)
        elif damage == "headerless":
            del records[0]
        else:
            with open(os.path.join(d, "MANIFEST.json"), "w") as handle:
                handle.write('{"format": 1}')
        if damage in ("other-format", "headerless"):
            with open(path, "wb") as handle:
                handle.write(b"".join(map(wal_mod.encode_record, records)))
        with pytest.raises(OperationalError, match=reason):
            Database(path=d)

    def test_never_checkpointed_directory_needs_no_snapshot(self, tmp_path):
        """No ``snapshot.log`` at all is a valid directory (the log alone
        rebuilds it), also one created before snapshots were logs."""
        d = str(tmp_path / "db")
        with Database(path=d) as db:
            conn = db.connect()
            _create_oracle_tables(conn)
            for k in range(1, 4):
                commit_txn(conn, 2, k)
        os.makedirs(os.path.join(d, "heap"))  # what format 1 left behind
        assert not os.path.exists(_snapshot_path(d))
        assert verify_recovered(d, 2, context="log-only directory") == 3
