"""Tiered quality gates over CI benchmark artifacts.

The live half of the gate story runs inside the monitor —
:meth:`~repro.core.monitor.ContractMonitor.check_gates` evaluates a
:class:`~repro.core.monitor.GateSpec`'s compliance floors against the
in-process SLA aggregates.  This module is the offline half: the same
spec evaluated against the ``BENCH_<name>.json`` artifacts the smoke
benchmarks emit, so CI can fail a build whose measured compliance or
overhead slipped.

Usage (CI runs exactly this)::

    python -m repro.bench.gates bench-reports

The default spec requires gold >= 99%, silver >= 95%, bronze >= 90%
compliance (evaluated against the ``contract_monitor`` artifact's
per-tier figures, vacuously passing for unexercised tiers), the
monitor's observation overhead at most 2% of burst time, and — from
the ``maintenance`` artifact — at most one column gathered per rung
beyond those the first query after an ingest reads, with
refresh-from-below at least 10x cheaper than a rebuild, and — from
the ``zone_maps``, ``recycler`` and ``memory`` artifacts — the base
cover's and the selection cache's savings, the rows a cone charges
on a cell-laid rung, and the cover's under a memory budget with no block promoted by an exact query and no demotion
once the working set fits, and — from the ``reservoir`` artifact — the reservoir's
array-step offer at least 5x its hit-by-hit transcription.  ``--spec``
points at a JSON file in the mapping shape
:meth:`GateSpec.coerce` accepts (see CONTRIBUTING.md).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Mapping, Optional

from repro.core.monitor import (
    GateReport,
    GateResult,
    GateSpec,
    MetricGate,
    SlaBucket,
    evaluate_floors,
)

#: The spec CI enforces when none is supplied: the tier floors the
#: presets promise, plus the monitor-overhead bound the tentpole
#: claims and the gather-width bound of the maintenance benchmark.
#: ``required=True`` makes a missing contract_monitor artifact a
#: failure — the gate exists to notice when the benchmark silently
#: stopped running.
DEFAULT_SPEC = GateSpec(
    floors={"bronze": 0.90, "silver": 0.95, "gold": 0.99},
    metrics=(
        MetricGate(
            artifact="contract_monitor",
            metric="overhead_ratio",
            max_value=0.02,
            required=True,
        ),
        # after an ingest a rung gathers the columns the next query
        # reads plus the hidden _pi, not the whole row (not required:
        # bench_contract_monitor.py replays this spec over a directory
        # that may hold its own report alone)
        MetricGate(
            artifact="maintenance", metric="max_excess_columns", max_value=1
        ),
        # paper §3.1: refresh-from-below is an order of magnitude
        # cheaper than a rebuild from the base
        MetricGate(artifact="maintenance", metric="refresh.saving", min_value=10),
        # a row answer gathers only the rows it returns, on every rung
        # of a cone row query climbed to the base
        MetricGate(artifact="maintenance", metric="rows.gather_ratio", max_value=1),
        # base scans read the largest rung plus its complement, laid out
        # by interest cell: ≥3x fewer tuples than scanning the unsorted
        # base (not required, like the maintenance gates)
        MetricGate(
            artifact="zone_maps", metric="base_cover.tuples_ratio", min_value=3
        ),
        # a cone over the largest cell-laid rung charges about its cells:
        # zones of the rung's share of 1 024 base rows keep 5.3 % of the
        # rung per smoke cone (9.3 % on 64 zones of ≥ 1 024 rows; a work
        # count, not a wall time; not required, like the maintenance
        # gates)
        MetricGate(artifact="zone_maps", metric="cone.kept_share", max_value=0.06),
        # repeated bounded climbs: the selection cache serves every rung
        # scan of a repetition, so scans read ≥3x fewer tuples than
        # uncached climbs charged the same (not required, like the
        # maintenance gates)
        MetricGate(
            artifact="recycler", metric="ladder.performed_saving", min_value=3
        ),
        # under a memory budget impression tables stay exact copies of
        # base rows, so exact cones still read the base cover: ≥3x fewer
        # tuples than a hierarchy-less twin (not required, like the
        # maintenance gates)
        MetricGate(
            artifact="memory", metric="budgeted.exact_tuples_ratio", min_value=3
        ),
        # exact answers read demoted blocks' raw bytes from the spill:
        # they promote nothing, so the governor has nothing to undo
        # once the working set fits (not required, like the
        # maintenance gates)
        MetricGate(artifact="memory", metric="exact.promotions", max_value=0),
        MetricGate(
            artifact="memory", metric="budgeted.demotions_after_fit", max_value=0
        ),
        # Algorithm R's array-step offer at the largest layer's capacity:
        # ≥5x the hit-by-hit loop it replaced, timed in the same process
        # (a ratio, not a wall-clock floor; not required, like the
        # maintenance gates)
        MetricGate(artifact="reservoir", metric="algorithm_r.speedup", min_value=5),
    ),
)


def load_reports(directory: str) -> Dict[str, Mapping[str, object]]:
    """Read every ``BENCH_*.json`` in ``directory``, keyed by its
    ``benchmark`` name (falling back to the filename stem)."""
    reports: Dict[str, Mapping[str, object]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path) as handle:
            payload = json.load(handle)
        stem = os.path.basename(path)[len("BENCH_"):-len(".json")]
        reports[str(payload.get("benchmark", stem))] = payload
    return reports


def _dig(metrics: Mapping[str, object], dotted: str) -> Optional[float]:
    """Resolve a dotted path into nested metric mappings, or None."""
    node: object = metrics
    for key in dotted.split("."):
        if not isinstance(node, Mapping) or key not in node:
            return None
        node = node[key]
    try:
        return float(node)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _tier_buckets(
    metrics: Mapping[str, object],
) -> Dict[str, SlaBucket]:
    """Rebuild per-tier buckets from an artifact's ``tiers`` metric.

    The benchmark emits ``{"tiers": {tier: {"observed": n, "met": k,
    ...}}}``; only the totals matter here — floors compare met/total,
    the status breakdown stays with the live monitor.
    """
    buckets: Dict[str, SlaBucket] = {}
    tiers = metrics.get("tiers")
    if not isinstance(tiers, Mapping):
        return buckets
    for tier, entry in tiers.items():
        if not isinstance(entry, Mapping):
            continue
        total = int(entry.get("observed", 0))
        met = int(entry.get("met", 0))
        buckets[str(tier)] = SlaBucket(total=total, met=met, missed=total - met)
    return buckets


def evaluate_artifacts(
    spec: "GateSpec | Mapping[str, object]", directory: str
) -> GateReport:
    """Evaluate ``spec`` against the artifacts in ``directory``.

    Compliance floors read the ``contract_monitor`` artifact's
    per-tier figures (vacuous pass when the artifact, or a tier, was
    never exercised — unless a ``required`` metric gate pins the
    artifact's presence); metric gates bound one dotted-path metric of
    one artifact each.
    """
    spec = GateSpec.coerce(spec)
    reports = load_reports(directory)
    results: List[GateResult] = []
    if spec.floors:
        monitor_report = reports.get("contract_monitor")
        if monitor_report is None:
            results.append(
                GateResult(
                    gate="tier:*",
                    passed=True,
                    value=None,
                    detail=(
                        "no contract_monitor artifact; floors not "
                        "evaluated (a required metric gate reports the "
                        "absence)"
                    ),
                )
            )
        else:
            metrics = monitor_report.get("metrics", {})
            results.extend(
                evaluate_floors(spec.floors, _tier_buckets(metrics))
            )
    for gate in spec.metrics:
        label = f"{gate.artifact}:{gate.metric}"
        artifact = reports.get(gate.artifact)
        if artifact is None:
            results.append(
                GateResult(
                    gate=label,
                    passed=not gate.required,
                    value=None,
                    detail=(
                        f"artifact BENCH_{gate.artifact}.json missing "
                        f"({'required' if gate.required else 'optional'})"
                    ),
                )
            )
            continue
        value = _dig(artifact.get("metrics", {}), gate.metric)
        if value is None:
            results.append(
                GateResult(
                    gate=label,
                    passed=not gate.required,
                    value=None,
                    detail=(
                        f"metric {gate.metric!r} absent "
                        f"({'required' if gate.required else 'optional'})"
                    ),
                )
            )
            continue
        bounds = []
        passed = True
        if gate.min_value is not None:
            bounds.append(f">= {gate.min_value:g}")
            passed = passed and value >= gate.min_value
        if gate.max_value is not None:
            bounds.append(f"<= {gate.max_value:g}")
            passed = passed and value <= gate.max_value
        results.append(
            GateResult(
                gate=label,
                passed=passed,
                value=value,
                detail=(
                    f"measured {value:g} vs bound "
                    f"{' and '.join(bounds) or '(none)'}"
                ),
            )
        )
    return GateReport(results=tuple(results))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Evaluate tiered quality gates over BENCH_*.json "
        "artifacts"
    )
    parser.add_argument(
        "directory",
        nargs="?",
        default=os.environ.get("BENCH_REPORT_DIR") or ".",
        help="directory holding BENCH_*.json reports "
        "(default: $BENCH_REPORT_DIR or .)",
    )
    parser.add_argument(
        "--spec",
        help="JSON gate-spec file (default: the built-in floors + "
        "overhead bound)",
    )
    args = parser.parse_args(argv)
    if args.spec:
        with open(args.spec) as handle:
            spec: "GateSpec | Mapping[str, object]" = json.load(handle)
    else:
        spec = DEFAULT_SPEC
    report = evaluate_artifacts(spec, args.directory)
    print(report.describe())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
