"""Smoke test of the end-to-end benchmark (not part of tier-1). Run it
explicitly, from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Every workload runs at smoke sizes; the whole file takes under 30 s.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import harness, workloads

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)

# The traced counts that legitimately depend on the seed. Literals select
# different numbers of rows, and the dashboard's random updates move rows
# in and out of the maintained view; the served deck's shuffle decides how
# many reads come between two writes, so how often a mirror is reloaded.
SEED_DEPENDENT = {"executor.rows_out", "backend.tables_synced"}


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        harness.PER_LAYER
    )
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_command_prints_the_contract_line(name):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", name, "--smoke"]
        + ["--seed", "3", "--seconds", "0.3", "--trace", "0"],
        cwd=harness.ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def _counts(record: dict) -> dict:
    return {
        name: entry["value"]
        for name, entry in record["metrics"].items()
        if entry["unit"] == "count"
    }


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = (
        harness.run_workload(cls, seed, 0.0, trace=True, smoke=True) for seed in (1, 1, 2)
    )
    for record in (first, again, other):
        assert record["failed"] == 0, record["errors"]
        assert list(record["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert _counts(first) == _counts(again)
    assert {k: v for k, v in _counts(first).items() if k not in SEED_DEPENDENT} == {
        k: v for k, v in _counts(other).items() if k not in SEED_DEPENDENT
    }
    # The counts that say the workload did what it is there for.
    counts = _counts(first)
    if name == "adhoc_frontend":
        assert counts["engine.plan_cache_hits"] == 0 and counts["core.rewritten_nodes"] > 0
    if name == "analytic_pushdown":
        assert counts["backend.tables_synced"] == 0  # mirrors are warm after set-up
        assert first["metrics"]["executor.vectorized.execute_ms"]["value"] == 0
    if name == "served_mixed":
        assert counts["storage.wal.fsyncs"] == first["samples"]["write"]
    if name == "dashboard_matview":
        cycles = first["samples"]["write"]
        assert counts["engine.matview.incremental_commits"] == cycles
        assert counts["engine.matview.auto_refreshes"] == cycles


def test_a_wrong_expected_hash_is_a_failed_op(monkeypatch):
    real = workloads.load_expected

    def corrupted(name):
        statements = real(name)
        key = next(k for k in statements if k.startswith("spj_filter@1"))
        statements[key] = [statements[key][0], "0" * 16]
        return statements

    monkeypatch.setattr(workloads, "load_expected", corrupted)
    record = harness.run_workload(
        workloads.AnalyticVectorized, 1, 0.2, trace=False, smoke=True
    )
    assert record["correct"] is False and record["failed"] >= 1
    assert record["failed"] < record["attempted"]
