"""``python3 -m benchmarks.e2e.compare BASE.json NEW.json``

Compares two record files written by ``python3 -m benchmarks.e2e --out``
(same machine, same benchmark code), one row per workload and
end-to-end metric, against the bounds in BENCHMARK.json:

* *regression* — NEW's median is worse than BASE's by more than the bound;
* *unresolved* — within the bound, but the run-to-run spread (distance
  between the quartiles over the median) of either side exceeds the
  bound, so "unchanged" cannot be claimed;
* *improved* / *ok* otherwise.

Every ratio is printed with its base. Exits 1 on a regression or when
NEW fails a larger share of its ops than BASE.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median (None below two runs)."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def load_runs(path: str) -> tuple[dict, dict]:
    """(untraced, traced) records of a file, each workload -> [record]."""
    untraced, traced = defaultdict(list), defaultdict(list)
    for record in json.loads(Path(path).read_text())["runs"]:
        (traced if record["trace"] else untraced)[record["workload"]].append(record)
    return untraced, traced


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    ratio = statistics.median(new) / statistics.median(base)
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return "REGRESSION", ratio
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if len(spreads) < 2 or max(spreads) > bound:
        return "unresolved", ratio
    return ("improved" if -worse_by > bound else "ok"), ratio


def failed_share(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def compare(base_path: str, new_path: str, out=sys.stdout) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, base_traced = load_runs(base_path)
    new, new_traced = load_runs(new_path)
    status = 0
    print(
        f"{'workload':20s} {'metric':18s} {'base median':>14s} {'new median':>14s} "
        f"{'ratio':>7s} {'bound':>6s} {'spread b/n':>13s}  verdict",
        file=out,
    )
    for workload in base:
        if workload not in new:
            print(f"{workload:20s} missing from {new_path}", file=out)
            status = 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            word, ratio = verdict(b, n, metric["better"], metric["bound"])
            if word == "REGRESSION":
                status = 1
            spreads = "/".join(
                "n=1" if s is None else f"{s:.3f}" for s in (spread(b), spread(n))
            )
            print(
                f"{workload:20s} {name:18s} {statistics.median(b):14.4f} "
                f"{statistics.median(n):14.4f} {ratio:7.3f} {metric['bound']:6.2f} "
                f"{spreads:>13s}  {word} ({ratio:.3f} of base "
                f"{statistics.median(b):.4g} {metric['unit']}, "
                f"{len(b)} vs {len(n)} runs)",
                file=out,
            )
        shares = failed_share(base[workload]), failed_share(new[workload])
        word = "REGRESSION" if shares[1] > shares[0] else "ok"
        if word == "REGRESSION":
            status = 1
        print(
            f"{workload:20s} {'failed_share':18s} {shares[0]:14.4f} {shares[1]:14.4f} "
            f"{'':7s} {'any':>6s} {'':13s}  {word}",
            file=out,
        )
    # Counts of the traced runs must repeat exactly for the same seed.
    for workload in base_traced:
        pairs = {r["seed"]: r for r in new_traced.get(workload, [])}
        for record in base_traced[workload]:
            other = pairs.get(record["seed"])
            if other is None:
                continue
            moved = [
                f"{name} {entry['value']} -> {other['metrics'][name]['value']}"
                for name, entry in record["metrics"].items()
                if entry["unit"] == "count" and entry["value"] != other["metrics"][name]["value"]
            ]
            print(
                f"{workload:20s} traced counts, seed {record['seed']}: "
                + ("identical" if not moved else "; ".join(moved)),
                file=out,
            )
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
