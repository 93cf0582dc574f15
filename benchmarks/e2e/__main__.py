"""``python3 -m benchmarks.e2e`` — the one benchmark command.

With ``--workload`` it runs that workload once in this process and ends
its standard output with the result line BENCHMARK.json's contract asks
for. Without, it runs every workload, each in a subprocess of its own
(so ``peak_rss_mb`` and caches are per workload), ``--runs`` times, and
can write the records to ``--out`` for :mod:`benchmarks.e2e.compare`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from . import harness  # noqa: E402
from .workloads import WORKLOADS, regenerate_expected  # noqa: E402

RECORD_PREFIX = "RECORD "


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"], help="measured phase length"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: fixed-size traced run printing the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", type=Path, help="write the run records to this file")
    parser.add_argument(
        "--regenerate-expected",
        action="store_true",
        help="rewrite expected/*.json (refused unless row, vectorized and sqlite agree)",
    )
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    record = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke
    )
    harness.print_record(record)
    print(RECORD_PREFIX + json.dumps(record))
    print(harness.result_line(record), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    records = []
    for run in range(args.runs):
        for name in WORKLOADS:
            command = [sys.executable, "-m", "benchmarks.e2e", "--workload", name]
            command += ["--seed", str(args.seed + run), "--seconds", str(args.seconds)]
            command += ["--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
                return 1
            for line in lines[:-1]:  # the last line repeats the record's metrics
                if line.startswith(RECORD_PREFIX):
                    records.append(json.loads(line[len(RECORD_PREFIX) :]))
                else:
                    print(line, flush=True)
    if args.out is not None:
        payload = {
            "schema": harness.SCHEMA,
            "git_sha": harness.git_sha(),
            "fingerprint": harness.fingerprint(),
            "runs": records,
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out} ({len(records)} records)")
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.regenerate_expected:
        regenerate_expected()
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
