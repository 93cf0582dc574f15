"""Query latency vs data size against a durable database.

One on-disk ``Database(path=...)`` is grown to ``$BENCH_SCALING_ROWS``
rows (default 200k; CI sets 10M) in 100k-row durable commits, and at
each of three points (1 %, 10 % and 100 % of the total) the row,
vectorized and sqlite engines run three analytic queries with a warm
plan cache. The tuple-at-a-time row engine stops at 1M rows. Every
engine must agree on the final answer; the timings go to
``BENCH_scaling.json``. Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py -s
"""

from __future__ import annotations

import json
import os
import time

from repro.engine.database import Database

SCALING_ROWS = int(os.environ.get("BENCH_SCALING_ROWS", "200000"))
ROW_ENGINE_CAP = 1_000_000
DURABILITY = "os"
LOAD_CHUNK = 100_000
ARTIFACT = "BENCH_scaling.json"

SCALING_QUERIES = {
    "scan_filter_agg": "SELECT count(*) AS n, sum(val) AS s FROM metrics WHERE grp < 100",
    "filter_project": "SELECT id, val FROM metrics WHERE grp = 7",
    "group_agg": "SELECT grp % 10 AS g, sum(id) AS s, avg(val) AS a "
                 "FROM metrics GROUP BY grp % 10",
}


def _scaling_points(total: int) -> list[int]:
    return sorted({max(10_000, total // 100), max(10_000, total // 10), total})


def _load_metrics_rows(conn, start: int, stop: int) -> float:
    """Append rows [start, stop) to metrics in bounded-memory chunks;
    returns wall seconds. Every chunk is one durable commit, so the
    sweep exercises the WAL at bulk-load granularity."""
    began = time.perf_counter()
    for lo in range(start, stop, LOAD_CHUNK):
        hi = min(lo + LOAD_CHUNK, stop)
        conn.load_rows(
            "metrics",
            [(i, i % 1000, (i * 7 % 10000) / 10.0) for i in range(lo, hi)],
        )
    return time.perf_counter() - began


def _timed(conn, sql: str) -> float:
    start = time.perf_counter()
    conn.run(sql)
    return time.perf_counter() - start


def test_durable_scaling_sweep(tmp_path):
    points = _scaling_points(SCALING_ROWS)
    measurements: list[dict] = []
    with Database(path=str(tmp_path / "scaling"), durability=DURABILITY) as db:
        connections = {
            engine: db.connect(engine=engine)
            for engine in ("row", "vectorized", "sqlite")
        }
        loader = connections["row"]
        loader.run("CREATE TABLE metrics (id int, grp int, val float)")
        loaded = 0
        for point in points:
            load_seconds = _load_metrics_rows(loader, loaded, point)
            loaded = point
            iterations = 3 if point <= 1_000_000 else 1
            for name, sql in SCALING_QUERIES.items():
                for engine, conn in connections.items():
                    if engine == "row" and point > ROW_ENGINE_CAP:
                        continue
                    conn.run(sql)  # warm the plan cache / sqlite mirror
                    best = min(_timed(conn, sql) for _ in range(iterations))
                    measurements.append(
                        {
                            "rows": point,
                            "engine": engine,
                            "query": name,
                            "ms": round(best * 1000, 3),
                            "load_s": round(load_seconds, 3),
                        }
                    )
        wal = db.wal_stats()
        # The sweep really ran against the durable store, and every
        # engine agrees at the final point on the aggregate query.
        assert wal["wal_bytes"] > 0
        answers = {
            engine: tuple(conn.run(SCALING_QUERIES["scan_filter_agg"]).rows)
            for engine, conn in connections.items()
            if not (engine == "row" and loaded > ROW_ENGINE_CAP)
        }
        assert len(set(answers.values())) == 1, answers

    print(f"\n== Durable scaling sweep ({DURABILITY} durability) ==")
    for m in measurements:
        print(f"{m['rows']:>12,}  {m['query']:<16} {m['engine']:<10} {m['ms']:>10.2f} ms")
    payload = {
        "durable_sweep": {
            "rows": SCALING_ROWS,
            "durability": DURABILITY,
            "row_engine_cap": ROW_ENGINE_CAP,
            "wal_bytes": wal["wal_bytes"],
            "measurements": measurements,
        }
    }
    with open(ARTIFACT, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {ARTIFACT}")
