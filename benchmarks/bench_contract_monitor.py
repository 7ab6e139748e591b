"""E10 — contract-monitoring claims: observation that never intrudes.

The contract monitor (:mod:`repro.core.monitor`) watches every
settled query and streams per-tier SLA compliance, error-margin and
latency histograms, and a violation log out of the server
(``server.report().sla``).  Monitoring is only trustworthy if it is
*pure*: it must change nothing it observes, cost next to nothing, and
report exactly what happened.  This benchmark pins all three on a
mixed-tier burst (bronze / silver / gold sessions plus untiered
budget-bounded queries that genuinely miss):

  (a) **byte-identity** — a monitored run returns results, charges,
      achieved errors, and full attempt traces byte-identical to a
      monitor-disabled run of the same workload on an
      identically-seeded engine: observation never intrudes;
  (b) **exact aggregation** — the fleet report's per-tier and
      per-status counts equal ground truth recomputed directly from
      the outcomes, query by query — no sampling, no drift;
  (c) **bounded overhead** — time spent inside the monitor's observe
      path is at most 2% of the burst's wall-clock;
  (d) **gates** — the live ``check_gates`` floors and the offline
      artifact evaluator (:mod:`repro.bench.gates`) agree and pass.

Standalone (``python benchmarks/bench_contract_monitor.py [--smoke]``).
Writes ``BENCH_contract_monitor.json`` (see ``bench/report.py``); CI
then replays the quality gates over the artifact directory.
"""

import os
import time

from repro.bench.gates import DEFAULT_SPEC, evaluate_artifacts
from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.monitor import ContractMonitor
from repro.core.server import SciBorqServer
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog

#: The sky regions the burst probes (ra, dec, radius).
REGIONS = [
    (150.0, 10.0, 6.0),
    (165.0, 8.0, 5.0),
    (180.0, 12.0, 7.0),
    (195.0, 6.0, 5.0),
    (210.0, 10.0, 6.0),
    (225.0, 8.0, 4.0),
]

#: Tier name -> session contract for the mixed-tier arms.
TIERS = ("bronze", "silver", "gold")


class TimedMonitor(ContractMonitor):
    """A monitor that clocks its own observe path, for claim (c)."""

    def __init__(self) -> None:
        super().__init__()
        self.observe_seconds = 0.0

    def observe(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return super().observe(*args, **kwargs)
        finally:
            self.observe_seconds += time.perf_counter() - started

    def observe_exact(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return super().observe_exact(*args, **kwargs)
        finally:
            self.observe_seconds += time.perf_counter() - started


def build_engine(n: int, seed: int) -> SciBorq:
    """A deterministic engine; equal seeds produce identical state."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=seed,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(n // 4, n // 20)
    )
    build_skyserver(
        n, generator=SkyGenerator(rng=seed + 1), loader=engine.loader
    )
    return engine


def region_query(index: int) -> Query:
    ra, dec, radius = REGIONS[index % len(REGIONS)]
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, dec, radius),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
    )


def workload(per_tier: int, untiered: int):
    """Deterministic (slot, tier-or-None, query) burst.

    ``untiered`` slots run under a deliberately starved time budget so
    the burst contains genuine ``missed`` verdicts — exactness must
    hold on violations, not just on a clean sheet.
    """
    slot = 0
    for round_index in range(per_tier):
        for tier in TIERS:
            yield slot, tier, region_query(slot)
            slot += 1
    for index in range(untiered):
        yield slot, None, region_query(index)
        slot += 1


def run_burst(n: int, seed: int, per_tier: int, untiered: int, monitor):
    """One burst arm; returns (outcomes, elapsed_seconds, server sla)."""
    engine = build_engine(n, seed)
    starved = Contract.within_budget(1.0)
    with SciBorqServer(engine, max_workers=2, monitor=monitor) as server:
        sessions = {
            tier: server.open_session(f"{tier}-user", contract=tier)
            for tier in TIERS
        }
        untiered_session = server.open_session("untiered-user")
        outcomes = {}
        started = time.perf_counter()
        for slot, tier, query in workload(per_tier, untiered):
            if tier is None:
                outcomes[slot] = (None, untiered_session.execute(
                    query, starved
                ))
            else:
                outcomes[slot] = (tier, sessions[tier].execute(query))
        elapsed = time.perf_counter() - started
        sla = (
            server.report().sla
            if server.monitor is not None
            else None
        )
    return outcomes, elapsed, sla


def trace(outcome):
    """Everything observation must leave untouched, as one value."""
    estimates = {
        name: (est.value, est.se)
        for name, est in (outcome.result.estimates or {}).items()
    }
    attempts = tuple(
        (a.source, a.rows, a.cost, a.relative_error, a.satisfied)
        for a in outcome.attempts
    )
    return (outcome.total_cost, outcome.achieved_error, estimates, attempts)


def expected_status(outcome) -> str:
    """Ground-truth verdict status, recomputed from the outcome."""
    if outcome.met_quality and outcome.met_budget:
        return "met"
    return "missed"


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI: same claims, seconds not minutes",
    )
    args = parser.parse_args()
    if args.smoke:
        n, per_tier, untiered = 150_000, 16, 2
    else:
        n, per_tier, untiered = 400_000, 40, 8
    seed = 9900
    total = per_tier * len(TIERS) + untiered
    print(
        f"contract-monitor benchmark: n={n} queries={total} "
        f"({per_tier} per tier + {untiered} budget-starved untiered; "
        f"{'smoke' if args.smoke else 'full'})"
    )

    # (a) byte-identity: the monitored arm vs the disabled arm on
    # identically-seeded engines
    bare_outcomes, bare_elapsed, bare_sla = run_burst(
        n, seed, per_tier, untiered, monitor=False
    )
    assert bare_sla is None
    timed = TimedMonitor()
    outcomes, elapsed, sla = run_burst(
        n, seed, per_tier, untiered, monitor=timed
    )
    assert sla is not None
    identical = 0
    for slot, (tier, outcome) in outcomes.items():
        bare_tier, bare_outcome = bare_outcomes[slot]
        assert tier == bare_tier
        assert trace(outcome) == trace(bare_outcome), (
            f"query {slot} diverged under monitoring"
        )
        identical += 1

    # (b) exact aggregation: report counts vs per-query ground truth
    truth_by_tier = {}
    truth_status = {"met": 0, "missed": 0}
    for tier, outcome in outcomes.values():
        status = expected_status(outcome)
        truth_status[status] += 1
        bucket = truth_by_tier.setdefault(
            tier or "untiered", {"observed": 0, "met": 0}
        )
        bucket["observed"] += 1
        bucket["met"] += status == "met"
    assert sla.observed == total
    for status, count in truth_status.items():
        assert getattr(sla, status) == count, (
            f"{status}: report {getattr(sla, status)} != truth {count}"
        )
    for tier, bucket in truth_by_tier.items():
        assert sla.by_tier[tier].total == bucket["observed"]
        assert sla.by_tier[tier].met == bucket["met"]
    assert truth_status["missed"] > 0, (
        "the starved untiered queries were meant to miss"
    )
    compliance = truth_status["met"] / total
    assert sla.compliance == compliance

    # (c) bounded overhead: observe-path time as a share of the burst
    overhead_ratio = timed.observe_seconds / max(elapsed, 1e-9)
    assert overhead_ratio <= 0.02, (
        f"monitor overhead {overhead_ratio:.2%} exceeds the 2% bound"
    )

    # (d) live gates pass: every tiered session stayed inside its
    # preset (the misses are all untiered by construction)
    live = timed.check_gates(DEFAULT_SPEC)
    assert live.passed, live.describe()

    print("== E10a: byte-identity ==")
    print(
        f"  {identical}/{total} queries byte-identical "
        f"(answers, charges, attempt traces) with monitoring on ✓"
    )
    print("== E10b: exact aggregation ==")
    print(
        f"  fleet {sla.compliance:.1%} met, "
        f"missed {sla.missed} — all equal ground truth ✓"
    )
    print("== E10c: overhead ==")
    print(
        f"  observe path {timed.observe_seconds * 1e3:.2f}ms of "
        f"{elapsed:.3f}s burst = {overhead_ratio:.3%} (bound 2%) ✓"
    )
    print("== E10d: gates ==")
    print("  " + live.describe().replace("\n", "\n  "))
    print(f"  {sla.describe()}")
    print(
        f"  wall-clock: monitored {elapsed:.3f}s vs "
        f"disabled {bare_elapsed:.3f}s"
    )

    path = write_bench_report(
        "contract_monitor",
        {
            "mode": "smoke" if args.smoke else "full",
            "rows": n,
            "queries": total,
            "identical_checked": identical,
            "compliance": compliance,
            "observed": total,
            "met": truth_status["met"],
            "missed": truth_status["missed"],
            "tiers": {
                tier: {
                    "observed": bucket["observed"],
                    "met": bucket["met"],
                    "compliance": bucket["met"] / bucket["observed"],
                }
                for tier, bucket in truth_by_tier.items()
            },
            "overhead_ratio": overhead_ratio,
            "observe_seconds": timed.observe_seconds,
            "burst_wall_seconds": elapsed,
            "bare_wall_seconds": bare_elapsed,
            "error_p99": sla.error_margin.p99,
            "latency_p99_seconds": sla.latency.p99,
        },
    )

    # the offline evaluator must agree with the live gates over the
    # artifact just written
    offline = evaluate_artifacts(DEFAULT_SPEC, os.path.dirname(path) or ".")
    print(offline.describe())
    assert offline.passed, offline.describe()


if __name__ == "__main__":
    main()
