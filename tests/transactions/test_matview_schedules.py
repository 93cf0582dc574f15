"""Seeded concurrent schedules with materialized-view readers.

Same harness, same serial-order oracle, one twist: the database carries
four materialized views (delta-safe filter/join, a provenance-carrying
one, a non-delta-safe aggregate) and readers query through them while
writers churn the base tables. The oracle models each matview as its
unfolded defining query over the transaction's snapshot plus its own
writes — exactly the engine's freshness contract — so any reader served
stale-but-"fresh" matview rows, or any maintenance delta that drifts
from the recomputed contents, fails the schedule with a replayable seed.
"""

from __future__ import annotations

import os

import pytest

import repro
from txnharness import MATVIEW_DEFS, generate_schedule, run_schedule

ENGINES = ("row", "vectorized", "sqlite")
SEED_COUNT = int(os.environ.get("REPRO_TXN_SEEDS", "50"))
TIER1_SEEDS = 25  # half the plain bank: maintenance makes each run pricier


def _params():
    for seed in range(min(SEED_COUNT, TIER1_SEEDS * 4)):
        marks = [pytest.mark.exhaustive] if seed >= TIER1_SEEDS else []
        yield pytest.param(seed, marks=marks, id=f"seed{seed}")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", _params())
def test_matview_schedule_snapshot_consistency(seed: int, engine: str):
    counters = run_schedule(generate_schedule(seed, matviews=True), engine=engine)
    assert counters["reads"] + counters["commits"] + counters["rollbacks"] > 0


def test_matview_seed_bank_reads_through_views():
    """The widened read pool must actually route traffic through the
    matviews, and the bank must still provoke real write-write
    conflicts underneath them."""
    totals = {
        "reads": 0,
        "commits": 0,
        "conflicts": 0,
        "rollbacks": 0,
        "matview_reads": 0,
    }
    for seed in range(12):
        counters = run_schedule(
            generate_schedule(seed, matviews=True), engine="row"
        )
        for key, value in counters.items():
            totals[key] += value
    assert totals["matview_reads"] >= 10
    assert totals["conflicts"] >= 1
    assert totals["commits"] >= 10


def test_matview_schedules_are_deterministic():
    first = generate_schedule(11, matviews=True)
    second = generate_schedule(11, matviews=True)
    assert first.describe() == second.describe()
    # The flag changes the read pool, so flagged and plain schedules
    # draw different step sequences from the same seed — but plain
    # schedules must be byte-stable against the pre-matview generator
    # (their seed bank is pinned by test_schedules.py).
    assert first.matviews and not generate_schedule(11).matviews


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("other_installs_first", [True, False])
def test_two_sessions_catch_up_from_different_snapshots(engine, other_installs_first):
    """Session A computes a catch-up of the aggregate from its snapshot;
    before it installs, a commit lands — and, in one variant, session B
    catches the view up from the newer snapshot and installs first. The
    compare-and-swap on the view's fold decides: A's stale result is
    dropped rather than regressing the view, or installed and then
    caught up again; no delta applies twice. Both sessions, and the
    view, end equal to the unfolded query."""
    database = repro.Database()
    setup, a, b = (database.connect(engine=engine) for _ in range(3))
    setup.execute("CREATE TABLE acct (id int, grp text, bal int)")
    setup.executemany(
        "INSERT INTO acct VALUES (?, ?, ?)",
        [(i, "xyz"[i % 3], 10 * i) for i in range(1, 10)],
    )
    unfolded = MATVIEW_DEFS["grp_tot"]
    setup.execute(f"CREATE MATERIALIZED VIEW grp_tot AS {unfolded}")
    setup.execute("UPDATE acct SET bal = bal + 5 WHERE id = 1")  # the view falls behind

    maintainer = database.matview_maintainer
    install = maintainer.install
    interleaved = []

    def install_after_a_commit(entry, contents, expected=None):
        if expected is not None and not interleaved:
            interleaved.append(True)
            # Between A's compute and its install: a commit lands
            # (deleting the 'x' group's first member), and maybe B reads.
            setup.execute("DELETE FROM acct WHERE id = 3")
            if other_installs_first:
                assert b.execute("SELECT * FROM grp_tot").fetchall() == (
                    setup.execute(unfolded).fetchall()
                )
        return install(entry, contents, expected)

    maintainer.install = install_after_a_commit
    try:
        served = a.execute("SELECT * FROM grp_tot").fetchall()
    finally:
        maintainer.install = install
    assert interleaved
    expected = setup.execute(unfolded).fetchall()
    assert served == expected
    assert b.execute("SELECT * FROM grp_tot").fetchall() == expected
    stats = database.matview_stats()
    # B's catch-up and A's dropped one, or A's two in a row.
    assert (stats["catch_ups"], stats["recomputes"]) == (
        (1, 0) if other_installs_first else (2, 0)
    )
    entry = database.catalog.matview("grp_tot")
    assert entry.base_versions == {"acct": database.catalog.table("acct").table.version}
    assert not stats["views"]["grp_tot"]["stale"]


def test_concurrent_catch_ups_under_thread_switching(tmp_path):
    """More reader threads than cores catch the same aggregate up while
    a writer commits, with the interpreter switching threads as often as
    it can: installs race on the compare-and-swap, counters on the
    maintainer's lock. Every other commit skips the commit hook, so an
    SPJ view is caught up by readers and maintained by the writer's next
    commit in turn — its installs race the commit's positioned update.
    A delta applied twice, or a catch-up from an older snapshot installed
    over a newer one, would leave a view off the unfolded query (or its
    fold off its stored rows) at the end; an install between a commit's
    hook and its own install would leave the log replaying to other row
    ids than the ones in memory."""
    import sys
    import threading

    path = str(tmp_path / "db")
    database = repro.Database(path=path, durability="off")
    setup = database.connect()
    setup.execute("CREATE TABLE acct (id int, grp text, bal int)")
    setup.executemany(
        "INSERT INTO acct VALUES (?, ?, ?)",
        [(i, "xyz"[i % 3], i) for i in range(1, 31)],
    )
    views = {name: MATVIEW_DEFS[name] for name in ("grp_tot", "hot_acct")}
    for name, unfolded in views.items():
        setup.execute(f"CREATE MATERIALIZED VIEW {name} AS {unfolded}")
    maintain = database.manager.matview_maintainer
    commits = iter(range(10**6))
    database.manager.matview_maintainer = lambda seq, changes: (
        maintain(seq, changes) if next(commits) % 2 else ([], None)
    )
    failures: list = []
    done = threading.Event()

    def writer() -> None:
        conn = database.connect()
        try:
            for step in range(40):
                conn.execute("UPDATE acct SET bal = bal + 1 WHERE id = ?", [step % 30 + 1])
                conn.execute("INSERT INTO acct VALUES (?, ?, ?)", [100 + step, "xyzw"[step % 4], step])
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            failures.append(exc)
        finally:
            done.set()
            conn.close()

    def reader() -> None:
        conn = database.connect()
        try:
            while not done.is_set():
                for name in views:
                    conn.execute(f"SELECT * FROM {name}").fetchall()
            for name in views:
                conn.execute(f"SELECT * FROM {name}").fetchall()
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)
        finally:
            conn.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for name, unfolded in views.items():
        assert setup.execute(f"SELECT * FROM {name}").fetchall() == (
            setup.execute(unfolded).fetchall()
        )
    fold = database.catalog.matview("hot_acct").state.fold
    assert [row for row, _ in fold] == database.catalog.matview("hot_acct").table._state[0]
    stats = database.matview_stats()
    assert stats["catch_ups"] > 0
    assert not any(view["stale"] for view in stats["views"].values())
    heaps = {name: database.catalog.matview(name).table._state for name in views}
    database.close()
    with repro.Database(path=path) as recovered:
        for name, state in heaps.items():
            assert recovered.catalog.matview(name).table._state == state
    reasons = [*stats["stale_reasons"], *stats["recompute_reasons"]]
    assert not any(reason.startswith("error:") for reason in reasons), reasons
