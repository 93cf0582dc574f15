"""Concurrency tests over real sockets: admission control, abrupt
disconnects, and a bank-invariant transfer stress with many clients."""

from __future__ import annotations

import random
import threading

import pytest

from repro import errors
from repro.engine.database import Database
from repro.server import PermServer, ServerThread
from repro.server.session import Session
from serverharness import connect, wait_until


class TestAdmissionControl:
    def test_session_limit_rejects_with_server_busy(self):
        server = PermServer(database=Database(), max_sessions=1, max_workers=2)
        with ServerThread(server):
            with connect(server) as first:
                first.query("SELECT 1")
                with pytest.raises(errors.ServerBusy, match="session limit"):
                    connect(server)
                assert server.stats.sessions_rejected == 1
            # The slot frees once the first session tears down.
            assert wait_until(lambda: server.stats.sessions_open == 0)
            with connect(server) as again:
                assert again.query("SELECT 1").rows == [(1,)]

    def test_pending_limit_rejects_but_session_survives(self, monkeypatch):
        """With one slow request in flight and max_pending=1, the next
        request gets ServerBusy — and succeeds on retry afterwards."""
        release = threading.Event()
        entered = threading.Event()
        original = Session.handle

        def slow_handle(self, message):
            if message.get("sql") == "SELECT 'slow'":
                entered.set()
                release.wait(timeout=30)
            return original(self, message)

        monkeypatch.setattr(Session, "handle", slow_handle)
        server = PermServer(database=Database(), max_pending=1, max_workers=4)
        with ServerThread(server):
            slow = connect(server)
            fast = connect(server)
            worker = threading.Thread(target=slow.query, args=("SELECT 'slow'",))
            worker.start()
            try:
                assert entered.wait(timeout=10)
                with pytest.raises(errors.ServerBusy, match="queue is full"):
                    fast.query("SELECT 1")
                assert server.stats.busy_rejections == 1
            finally:
                release.set()
                worker.join(timeout=30)
            # Rejection did not kill the session: the retry succeeds.
            assert fast.query("SELECT 1").rows == [(1,)]
            slow.close()
            fast.close()

    def test_more_sessions_than_workers_queue_and_all_get_answered(self):
        """Sixteen sessions send at once to a two-worker pool. With the
        pending bound above the burst, admission control queues every
        request: none is rejected and every session gets its answers."""
        sessions, ops = 16, 6
        server = PermServer(
            database=Database(), max_workers=2, max_pending=sessions * 2
        )
        failures: list[BaseException] = []
        with ServerThread(server):
            with connect(server) as setup:
                setup.query("CREATE TABLE accounts (id int, balance int)")
                setup.query(
                    "INSERT INTO accounts VALUES "
                    + ", ".join(f"({i}, 100)" for i in range(sessions))
                )
            ready = threading.Barrier(sessions, timeout=30)

            def worker(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    with connect(server) as c:
                        ready.wait()  # every session live before anyone sends
                        for _ in range(ops):
                            if rng.random() < 0.3:
                                src, dst = rng.sample(range(sessions), 2)
                                c.query(
                                    "UPDATE accounts SET balance = balance - 1 "
                                    "WHERE id = ?",
                                    [src],
                                )
                                c.query(
                                    "UPDATE accounts SET balance = balance + 1 "
                                    "WHERE id = ?",
                                    [dst],
                                )
                            else:
                                account = rng.randrange(sessions)
                                rows = c.query(
                                    "SELECT id FROM accounts WHERE id = ?", [account]
                                ).rows
                                assert rows == [(account,)]
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[:3]
            with connect(server) as check:
                total = check.query("SELECT SUM(balance) FROM accounts").rows
                snap = check.stats()["server"]
        assert total == [(sessions * 100,)]
        assert snap["sessions_total"] >= sessions + 1
        assert (snap["sessions_rejected"], snap["busy_rejections"]) == (0, 0)
        assert snap["latency"]["p50_ms"] is not None
        assert snap["latency"]["p99_ms"] is not None


class TestDisconnect:
    def test_abrupt_disconnect_rolls_back_open_transaction(self, server):
        with connect(server) as setup:
            setup.query("CREATE TABLE t (a int, b int)")
            setup.query("INSERT INTO t VALUES (1, 0)")
        victim = connect(server)
        victim.begin()
        victim.query("UPDATE t SET b = 99 WHERE a = 1")
        victim.disconnect()  # no CLOSE handshake
        assert wait_until(lambda: server.stats.sessions_open == 0)
        with connect(server) as observer:
            # The abandoned write is gone...
            assert observer.query("SELECT b FROM t").rows == [(0,)]
            # ...and its snapshot no longer pins anything: a conflicting
            # write on the same row commits cleanly.
            observer.begin()
            observer.query("UPDATE t SET b = 1 WHERE a = 1")
            observer.commit()
            assert observer.query("SELECT b FROM t").rows == [(1,)]
        assert server.stats.disconnects >= 1

    def test_mid_query_disconnect_rolls_back_and_frees_slot(self, monkeypatch):
        """Dropping the socket while a query is still executing on the
        worker pool must also roll back and free the session slot."""
        entered = threading.Event()
        release = threading.Event()
        original = Session.handle

        def slow_handle(self, message):
            if message.get("sql") == "SELECT 'slow'":
                entered.set()
                release.wait(timeout=30)
            return original(self, message)

        monkeypatch.setattr(Session, "handle", slow_handle)
        server = PermServer(database=Database(), max_sessions=1, max_workers=2)
        with ServerThread(server):
            with connect(server) as setup:
                setup.query("CREATE TABLE t (a int)")
                setup.query("INSERT INTO t VALUES (1)")
            assert wait_until(lambda: server.stats.sessions_open == 0)
            victim = connect(server)
            victim.begin()
            victim.query("UPDATE t SET a = 99")
            def send_slow() -> None:
                try:
                    victim.request({"op": "query", "sql": "SELECT 'slow'"})
                except (errors.PermError, OSError):
                    pass  # the disconnect races the response; both are fine

            sender = threading.Thread(target=send_slow)
            sender.daemon = True
            sender.start()
            assert entered.wait(timeout=10)
            victim.disconnect()  # mid-query: the handler is still running
            release.set()
            sender.join(timeout=30)
            assert wait_until(lambda: server.stats.sessions_open == 0)
            with connect(server) as observer:  # slot is free again
                assert observer.query("SELECT a FROM t").rows == [(1,)]

    def test_disconnect_frees_the_session_slot(self):
        server = PermServer(database=Database(), max_sessions=1, max_workers=2)
        with ServerThread(server):
            gone = connect(server)
            gone.query("SELECT 1")
            gone.disconnect()
            assert wait_until(lambda: server.stats.sessions_open == 0)
            with connect(server) as next_one:
                assert next_one.query("SELECT 1").rows == [(1,)]


class TestBankStress:
    """Concurrent transfers between accounts through real sockets must
    preserve the total balance — the classic snapshot-isolation bank
    invariant, here exercised end-to-end through the wire protocol."""

    ACCOUNTS = 8
    CLIENTS = 6
    TRANSFERS = 12

    def test_concurrent_transfers_preserve_total(self, server):
        with connect(server) as setup:
            setup.query("CREATE TABLE accounts (id int, balance int)")
            for i in range(self.ACCOUNTS):
                setup.query("INSERT INTO accounts VALUES (?, ?)", [i, 100])
        total = self.ACCOUNTS * 100
        failures: list[BaseException] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                with connect(server) as c:
                    done = 0
                    while done < self.TRANSFERS:
                        src, dst = rng.sample(range(self.ACCOUNTS), 2)
                        amount = rng.randint(1, 10)
                        try:
                            c.begin()
                            c.query(
                                "UPDATE accounts SET balance = balance - ? WHERE id = ?",
                                [amount, src],
                            )
                            c.query(
                                "UPDATE accounts SET balance = balance + ? WHERE id = ?",
                                [amount, dst],
                            )
                            c.commit()
                            done += 1
                        except (errors.SerializationError, errors.ServerBusy):
                            try:
                                c.rollback()
                            except errors.PermError:
                                pass
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        with connect(server) as check:
            rows = check.query("SELECT SUM(balance) FROM accounts").rows
            assert rows == [(total,)]
            stats = check.stats()
            assert (
                stats["server"]["queries"]
                >= self.CLIENTS * self.TRANSFERS * 2
            )
