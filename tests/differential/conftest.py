"""Per-engine fixtures for the cross-engine differential harness.

Each workload database is built once per execution engine with
identical deterministic content, so any result difference within a
group is attributable to the engines alone. The engine matrix is the
backend registry's differential set (``row``, ``vectorized``,
``sqlite``, ``sqlite-partition``, plus ``duckdb``/third-party backends
wherever they are registered) — registering a backend automatically
enrolls it in every agreement assertion here.
"""

from __future__ import annotations

import pytest

from repro.backend import differential_engines
from repro.workloads.forum import create_forum_db
from repro.workloads.tpch import TpchConfig, create_tpch_db

ENGINES = differential_engines()

# Small but non-trivial: plenty of value/NULL variety, fast to build.
_TPCH_CONFIG = TpchConfig(customers=25, orders=90, parts=15)

# Tiny batches so every vectorized query crosses batch boundaries —
# scan chunking, hash-join flushing, limit/offset skipping and the
# row-fallback adapter all run their multi-batch paths under the
# differential assertions (the production default is ~1024).
_TEST_BATCH_SIZE = 13


def _shrink_batches(connection):
    connection.pipeline.planner.batch_size = _TEST_BATCH_SIZE
    return connection


def _build(factory, engine):
    connection = factory(engine=engine)
    if engine == "vectorized":
        _shrink_batches(connection)
    return connection


@pytest.fixture(scope="session")
def engine_pairs():
    """{workload: {engine: Connection}} with identical data per group."""
    return {
        "forum": {
            engine: _build(create_forum_db, engine) for engine in ENGINES
        },
        "tpch": {
            engine: _build(
                lambda engine: create_tpch_db(_TPCH_CONFIG, engine=engine), engine
            )
            for engine in ENGINES
        },
    }


@pytest.fixture(scope="session")
def optimizer_pairs():
    """{workload: {engine/mode label: Connection}} — identical data, six
    configurations: row/vectorized/sqlite x cost/rules."""
    groups = {}
    for workload, build in (
        ("forum", lambda engine, optimizer: create_forum_db(engine=engine, optimizer=optimizer)),
        (
            "tpch",
            lambda engine, optimizer: create_tpch_db(
                _TPCH_CONFIG, engine=engine, optimizer=optimizer
            ),
        ),
    ):
        groups[workload] = {
            f"{engine}/{mode}": build(engine, mode)
            for engine in ("row", "vectorized", "sqlite")
            for mode in ("cost", "rules")
        }
    return groups
