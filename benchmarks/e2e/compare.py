"""Compare two result files against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

Each file is what ``run.py`` writes in its all-workloads mode; ``A`` is
the baseline.  Every (workload, end-to-end metric) pair gets one row
and one verdict, judged on the change of the median relative to ``A``
and never on a floor:

``same``        B's median is within the metric's bound of A's
``better``      it moved the good way by more than the bound
``worse``       it moved the bad way by more than the bound
``unresolved``  A's own runs spread (first to third quartile, as a
                share of their median) wider than the bound, so a move
                of that size proves nothing, unless every run of B is
                better than every run of A, which still counts as
                ``better``

Spread needs at least two untraced runs per side (``run.py --repeat``);
with one run it is taken as zero.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
    if spread(a) > bound:
        separated = min(sign * v for v in b) > max(sign * v for v in a)
        return "better" if separated else "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def values_of(results: dict, workload: str, metric: str) -> List[float]:
    runs = results["workloads"].get(workload, {}).get("end_to_end", [])
    return [
        run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]
    ]


def compare(a: dict, b: dict, benchmark: dict) -> List[tuple]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            va = values_of(a, workload, metric["name"])
            vb = values_of(b, workload, metric["name"])
            if not va or not vb:
                continue
            rows.append(
                (
                    workload,
                    metric["name"],
                    statistics.median(va),
                    statistics.median(vb),
                    metric["bound"],
                    verdict(va, vb, metric["better"], metric["bound"]),
                )
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, benchmark)
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for workload, metric, ma, mb, bound, word in rows:
        print(
            f"{workload:16s} {metric:20s} {ma:12.6g} {mb:12.6g} "
            f"{(mb - ma) / abs(ma):+8.2%} {bound:6.2%}  {word}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
