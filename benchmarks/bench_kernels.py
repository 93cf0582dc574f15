"""Typed-kernel microbenchmarks for the vectorized engine.

Times the bulk columnar kernels in ``repro.executor.columns`` against
equivalent per-element Python loops over the same data — the speedup
the typed-buffer representation buys before any operator logic is
involved. Also times the mandatory exact spill path (an int64-escaping
operand forces Python-object evaluation) so its cost stays visible.

Results go to ``BENCH_kernels.json`` (override with $BENCH_KERNELS_JSON)
so CI can archive the kernel trajectory across PRs.

Reproduce with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -s
"""

from __future__ import annotations

import json
import os
import time

import pytest
from conftest import print_table

from repro.datatypes import SQLType
from repro.executor.columns import (
    HAVE_NUMPY,
    INT64_MAX,
    build_typed_column,
    int_sum_exact,
    typed_extreme,
    vec_and,
    vec_arith,
    vec_cmp_const,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="without numpy no column packs: there is no kernel to time"
)

ROWS = int(os.environ.get("BENCH_KERNEL_ROWS", "1000000"))
REPEATS = 5


def _artifact_path() -> str:
    return os.environ.get("BENCH_KERNELS_JSON", "BENCH_kernels.json")


def _best(func) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return min(samples)


def test_kernel_microbench():
    ints = [i % 100_000 for i in range(ROWS)]
    floats = [(i * 7 % 10_000) / 10.0 for i in range(ROWS)]
    int_col = build_typed_column(ints, SQLType.INT)
    float_col = build_typed_column(floats, SQLType.FLOAT)
    assert int_col is not None and float_col is not None

    mask_a = vec_cmp_const(int_col, "<", 50_000)
    mask_b = vec_cmp_const(int_col, ">", 10_000)

    cases = {
        "build_i64": lambda: build_typed_column(ints, SQLType.INT),
        "arith_col_col_add": lambda: vec_arith("+", int_col, int_col, ROWS),
        "arith_col_scalar_mul": lambda: vec_arith("*", int_col, 3, ROWS),
        "arith_f64_add": lambda: vec_arith("+", float_col, float_col, ROWS),
        "cmp_const_lt": lambda: vec_cmp_const(int_col, "<", 50_000),
        "and_masks": lambda: vec_and(mask_a, mask_b),
        "sum_i64_exact": lambda: int_sum_exact(int_col),
        "max_i64": lambda: typed_extreme(int_col, True),
        # The mandatory spill: the scalar operand exceeds int64, so the
        # kernel must produce exact Python bignums instead of a buffer.
        "arith_spill_bignum": lambda: vec_arith("+", int_col, INT64_MAX, ROWS),
    }
    baselines = {
        "arith_col_col_add": lambda: [v + v for v in ints],
        "arith_col_scalar_mul": lambda: [v * 3 for v in ints],
        "arith_f64_add": lambda: [v + v for v in floats],
        "cmp_const_lt": lambda: [v < 50_000 for v in ints],
        "sum_i64_exact": lambda: sum(ints),
        "max_i64": lambda: max(ints),
    }

    # The machine paths must engage: a None return means the kernel
    # declined and the engine would fall back per-element.
    for name in ("arith_col_col_add", "cmp_const_lt", "and_masks"):
        assert cases[name]() is not None, name
    assert cases["arith_spill_bignum"]()[0] == ints[0] + INT64_MAX

    results: dict[str, dict] = {}
    table = []
    for name, func in cases.items():
        kernel_s = _best(func)
        entry = {"kernel_ms": round(kernel_s * 1000, 3)}
        speedup = ""
        if name in baselines:
            base_s = _best(baselines[name])
            entry["python_ms"] = round(base_s * 1000, 3)
            entry["speedup"] = round(base_s / kernel_s, 2)
            speedup = f"{entry['speedup']:.1f}x"
        results[name] = entry
        table.append(
            (
                name,
                f"{entry['kernel_ms']:.2f}",
                f"{entry.get('python_ms', ''):}",
                speedup,
            )
        )
    print_table(
        f"Columnar kernels over {ROWS:,} rows",
        ["kernel", "kernel ms", "python ms", "speedup"],
        table,
    )

    path = _artifact_path()
    payload = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload["kernels"] = {"rows": ROWS, "results": results}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {path}")

    # Advisory floor, far under the measured margin: bulk int
    # arithmetic must clearly beat the per-element loop.
    assert results["arith_col_col_add"]["speedup"] >= 2.0
