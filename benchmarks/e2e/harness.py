"""Measurement machinery shared by every workload: the metric names, the
one record schema, closed-loop phases, and the untraced and traced run.

Nothing here knows a workload; :mod:`benchmarks.e2e.workloads` supplies
those, :mod:`benchmarks.e2e.tracing` the spans. The program under test
(``src/repro``) is only ever *called*: times are taken around calls
into it, and counts come from counters it already keeps.
"""

from __future__ import annotations

import gc
import hashlib
import json
import marshal
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
# Everything a run writes (durable-database directories, trace files)
# lands here; the directory is gitignored.
OUT_DIR = ROOT / ".bench_e2e"

SCHEMA = 1
# Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

# (name, unit, better). BENCHMARK.json repeats these with the bounds;
# test_e2e_smoke.py asserts the two agree.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# A value of 0 means "this layer does not run on this workload".
PER_LAYER = (
    ("client.write_p50_ms", "ms", "lower"),
    ("client.write_p95_ms", "ms", "lower"),
    ("sql.parse_ms", "ms", "lower"),
    ("sql.print_ms", "ms", "lower"),
    ("analyzer.analyze_ms", "ms", "lower"),
    ("core.rewrite_ms", "ms", "lower"),
    ("core.rewritten_nodes", "count", "lower"),
    ("core.prov_overhead_ratio", "ratio", "lower"),
    ("optimizer.optimize_ms", "ms", "lower"),
    ("optimizer.passes", "count", "lower"),
    ("optimizer.joinbacks_eliminated", "count", "higher"),
    ("optimizer.columns_pruned", "count", "higher"),
    ("optimizer.joins_reordered", "count", "higher"),
    ("planner.plan_ms", "ms", "lower"),
    ("engine.front_share", "ratio", "lower"),
    ("engine.dispatch_ms", "ms", "lower"),
    ("engine.plan_cache_hit_ratio", "ratio", "higher"),
    ("engine.plan_cache_hits", "count", "higher"),
    ("executor.row.execute_ms", "ms", "lower"),
    ("executor.vectorized.execute_ms", "ms", "lower"),
    ("executor.rows_out", "count", "lower"),
    ("backend.sqlite.execute_ms", "ms", "lower"),
    ("backend.statements_executed", "count", "lower"),
    ("backend.sync_ms", "ms", "lower"),
    ("backend.tables_synced", "count", "lower"),
    ("backend.partition.execute_ms", "ms", "lower"),
    ("backend.partition.rescues", "count", "lower"),
    ("backend.partition.speedup_vs_sqlite", "ratio", "higher"),
    ("engine.matview.maintain_ms", "ms", "lower"),
    ("engine.matview.incremental_commits", "count", "higher"),
    ("engine.matview.stale_marks", "count", "lower"),
    ("engine.matview.refresh_ms", "ms", "lower"),
    ("engine.matview.auto_refreshes", "count", "lower"),
    ("storage.table.dml_ms", "ms", "lower"),
    ("storage.mvcc.commit_ms", "ms", "lower"),
    ("storage.mvcc.conflicts", "count", "lower"),
    ("storage.mvcc.versions_retained", "count", "lower"),
    ("storage.mvcc.gc_runs", "count", "lower"),
    ("storage.wal.append_ms", "ms", "lower"),
    ("storage.wal.fsyncs", "count", "lower"),
    ("storage.wal.bytes_per_commit", "B", "lower"),
    ("storage.wal.checkpoint_ms", "ms", "lower"),
    ("storage.wal.recovery_ms", "ms", "lower"),
    ("server.encode_ms", "ms", "lower"),
    ("server.decode_ms", "ms", "lower"),
    ("server.bytes_per_row", "B", "lower"),
    ("server.wire_overhead_ms", "ms", "lower"),
    ("server.busy_rejections", "count", "lower"),
    ("server.retries", "count", "lower"),
    ("server.conflicts", "count", "lower"),
    ("harness.attributed_share", "ratio", "higher"),
    ("harness.trace_overhead_share", "ratio", "lower"),
)

# ---------------------------------------------------------------------------
# Small statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def result_hash(rows: list) -> str:
    """Order- and type-sensitive digest of a result. ``marshal`` version
    2 writes values without back-references and floats as their eight
    bytes, so equal rows hash equally whichever engine built them, at a
    few milliseconds per 10 000 rows."""
    return hashlib.blake2b(marshal.dumps(rows, 2), digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


def fingerprint() -> dict:
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": f"{platform.system().lower()}-{platform.machine()}",
        "numpy": has_numpy,
    }


def fingerprint_id() -> str:
    """File-name form of the fingerprint (baselines are per machine kind)."""
    fp = fingerprint()
    version = ".".join(fp["python"].split(".")[:2])
    suffix = "numpy" if fp["numpy"] else "nonumpy"
    return f"{fp['platform']}-{fp['nproc']}cpu-py{version}-{suffix}"


def git_sha() -> str:
    # Only where the checkout itself is a repository: git would otherwise
    # search the parent directories, which are not the benchmark's to read.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Closed-loop phases
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    kind: str  # "read" or "write"
    label: str  # op class within the workload
    payload: object = None


class Sample(NamedTuple):
    op_id: int
    kind: str
    label: str
    seconds: float
    ok: bool


class Phase:
    """What one measured (or warm-up, or traced) phase observed."""

    def __init__(self):
        self.samples: list[Sample] = []
        self.block_rates: list[float] = []  # one per whole block
        self.whole = 0  # samples that belong to whole blocks
        self.errors: list[str] = []

    @classmethod
    def merged(cls, first: "Phase", second: "Phase") -> "Phase":
        phase = cls()
        phase.samples = first.samples + second.samples
        phase.block_rates = first.block_rates + second.block_rates
        phase.whole = len(phase.samples)  # only block-counted phases are merged
        phase.errors = first.errors + second.errors
        return phase

    def latencies_ms(self, kind: str, label: Optional[str] = None) -> list[float]:
        """Latencies of the whole blocks' ops. The block the deadline cut
        short is left out: it would tilt the op mix, and a percentile
        that sits between two statements' costs jumps when it does. (A
        phase too short for one whole block has only that one.)"""
        return [
            s.seconds * 1000.0
            for s in self.samples[: self.whole or None]
            if s.kind == kind and (label is None or s.label == label)
        ]

    def op_ids(self, label: str) -> set[int]:
        return {s.op_id for s in self.samples if s.label == label}

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def throughput(self) -> float:
        """Completed ops per second of the caller's time: the median,
        over whole blocks, of (ops in block / time the caller waited for
        them). Every block of a workload has the same op mix, so the
        median discards the blocks another tenant of the machine
        disturbed. The caller's checking of results is not counted."""
        if self.block_rates:
            return statistics.median(self.block_rates)
        return len(self.samples) / sum(s.seconds for s in self.samples)


def run_phase(
    client,
    *,
    first_block: int,
    seconds: Optional[float] = None,
    blocks: Optional[int] = None,
    tracer=None,
) -> Phase:
    """Drive *client*'s deterministic op stream from block *first_block*,
    either for *seconds* or for exactly *blocks* blocks. Closed loop: the
    next op is sent when the previous one has returned."""
    phase = Phase()
    deadline = None if seconds is None else time.perf_counter() + seconds
    block = first_block
    while True:
        ops = client.block(block)
        busy = 0.0
        done = 0
        for op in ops:
            op_id = len(phase.samples)
            if tracer is not None:
                session = client.session_of(op) if hasattr(client, "session_of") else None
                tracer.begin_op(op_id, session)
            began = time.perf_counter()
            try:
                result = client.execute(op)
                error = None
            except Exception:  # noqa: BLE001 - a failed op is a data point
                error = traceback.format_exc()
            elapsed = time.perf_counter() - began
            if tracer is not None:
                tracer.end_op()
            busy += elapsed
            done += 1
            ok = error is None and client.check(op, result)
            if error is not None and len(phase.errors) < 3:
                phase.errors.append(error)
            phase.samples.append(Sample(op_id, op.kind, op.label, elapsed, ok))
            if deadline is not None and time.perf_counter() >= deadline:
                break
        if done == len(ops):
            phase.block_rates.append(done / busy)
            phase.whole = len(phase.samples)
        block += 1
        if blocks is not None:
            if block - first_block >= blocks:
                return phase
        elif time.perf_counter() >= deadline:
            return phase


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(cls, seed: int, smoke: bool, trace: bool):
    """Build a workload and run its warm-up block; returns (workload,
    seconds, warm-up phase)."""
    began = time.perf_counter()
    workload = cls(seed, smoke, trace)
    workload.setup()
    warm = run_phase(workload, first_block=0, blocks=1)
    return workload, time.perf_counter() - began, warm


def run_workload(cls, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run workload class *cls* once; returns the run record."""
    if trace:
        record = _run_traced(cls, seed, smoke)
    else:
        record = _run_untraced(cls, seed, seconds, smoke)
    record.update(
        schema=SCHEMA,
        workload=cls.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        smoke=smoke,
        git_sha=git_sha(),
        fingerprint=fingerprint(),
    )
    return record


def _finish(workload, phases: Sequence[Phase]) -> tuple[int, int, list[str]]:
    """End-of-run verification; returns (attempted, failed, messages).
    Each end-of-run check that fails counts as one failed op."""
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    messages = [e for p in phases for e in p.errors]
    problems = workload.finish()
    return attempted + len(problems), failed + len(problems), messages + problems


def _run_untraced(cls, seed: int, seconds: float, smoke: bool) -> dict:
    setups = []
    workload = warm = None
    repeats = 2 if smoke else SETUP_REPEATS
    for _ in range(repeats):
        if workload is not None:
            workload.teardown()
            workload = None
            gc.collect()
        workload, elapsed, warm = _set_up(cls, seed, smoke, False)
        setups.append(elapsed)
    try:
        phase = run_phase(workload, first_block=1, seconds=seconds)
        rss = peak_rss_mb()
        attempted, failed, messages = _finish(workload, [warm, phase])
    finally:
        workload.teardown()
    reads = phase.latencies_ms("read")
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": phase.throughput(),
        "read_p50_ms": percentile(reads, 0.50),
        "read_p95_ms": percentile(reads, 0.95),
        "peak_rss_mb": rss,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": {
            "read": len(reads),
            "write": len(phase.latencies_ms("write")),
            "blocks": len(phase.block_rates),
            "setups": len(setups),
        },
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END
        },
        "errors": messages[:3],
    }


def _run_traced(cls, seed: int, smoke: bool) -> dict:
    from .tracing import (
        TraceSummary,
        Tracer,
        engine_layer_metrics,
        instrument_engine,
    )

    workload, _, warm = _set_up(cls, seed, smoke, True)
    tracer = Tracer()
    try:
        # Untraced, traced, untraced, the same number of blocks each: a
        # drift over the run (a growing table, a busier machine) weighs
        # on both sides of the overhead comparison alike.
        blocks = 1 if smoke else workload.trace_blocks
        lead = run_phase(workload, first_block=1, blocks=blocks)
        instrument_engine(tracer)
        workload.instrument(tracer)
        before = workload.counters()
        traced = run_phase(workload, first_block=1 + blocks, blocks=blocks, tracer=tracer)
        after = workload.counters()
        tracer.unpatch()
        trail = run_phase(workload, first_block=1 + 2 * blocks, blocks=blocks)
        untraced = Phase.merged(lead, trail)
        attempted, failed, messages = _finish(workload, [warm, traced, untraced])
        summary = TraceSummary(tracer.spans)
        grown = {name: after[name] - before[name] for name in after}
        grown.update(tracer.counts)
        values = engine_layer_metrics(summary, traced)
        lookups = grown.get("engine.plan_cache_hits", 0) + grown.get("_plan_cache_misses", 0)
        values["engine.plan_cache_hit_ratio"] = (
            grown.get("engine.plan_cache_hits", 0) / lookups if lookups else 0
        )
        # Base: the traced phase.
        values["harness.trace_overhead_share"] = (
            untraced.throughput() / traced.throughput() - 1.0
        )
        # Write latencies are the user's, but only two workloads write;
        # taken from the phase that ran untraced.
        writes = untraced.latencies_ms("write")
        values["client.write_p50_ms"] = percentile(writes, 0.50)
        values["client.write_p95_ms"] = percentile(writes, 0.95)
        extra, detail = workload.layer_metrics(summary, traced, grown)
        values.update(extra)
        values.update((k, v) for k, v in grown.items() if not k.startswith("_"))
    finally:
        tracer.unpatch()
        workload.teardown()
    tracer.dump(
        OUT_DIR / f"trace.{cls.name}.json",
        {"workload": cls.name, "seed": seed, "blocks": blocks},
    )
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise AssertionError(f"layer metrics missing from PER_LAYER: {sorted(unknown)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": {
            "read": len(traced.latencies_ms("read")),
            "write": len(traced.latencies_ms("write")),
            "untraced_write": len(writes),
            "blocks": len(traced.block_rates),
            "spans": len(tracer.spans),
        },
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER
        },
        "detail": detail,
        "errors": messages[:3],
    }


def result_line(record: dict) -> str:
    """The contract's last line of standard output."""
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def print_record(record: dict, out=sys.stdout) -> None:
    """Every metric by name with its unit, and the sample counts beside
    the percentiles."""
    samples = record["samples"]
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} seed={record['seed']} {mode}: "
        f"{record['attempted']} ops attempted, {record['failed']} failed "
        f"(failed_share {record['failed'] / record['attempted']:.4f}); samples {samples}",
        file=out,
    )
    for name, entry in record["metrics"].items():
        note = ""
        if name.startswith("read_p"):
            note = f"  (n={samples['read']})"
        elif name.startswith("client.write_p"):
            note = f"  (n={samples['untraced_write']}, untraced blocks)"
        print(f"  {name:38s} {entry['value']:14.4f} {entry['unit']}{note}", file=out)
    for message in record["errors"]:
        print("  ! " + message.strip().splitlines()[-1], file=out)
