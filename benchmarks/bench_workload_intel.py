"""E9 — the query log as the fleet's shared asset: a replayed log warms
the next engine.

SciBORQ's premise is that "publicly accessible query logs provide a
basis to derive areas of interest" (§2.1).  The engine already derives
them on the query path: every query's requested values feed
``engine.interest``, which the biased policy samples by.  The log
itself (``engine.query_log``) is what one engine hands the next: a
fresh engine replays the fleet's logged queries through
``engine.interest.observe_query`` and rebuilds its biased impressions
around the sky regions the fleet asked for before the first query
arrives.  This benchmark pins two claims:

  (a) **≥2× fewer tuples to contract** — after a drifting
      multi-session workload (WorkloadGenerator focal-point shift), an
      engine warmed by replaying the fleet's log reaches the same error
      contract on cones around the fleet's focus charging at most half
      the tuples a cold engine charges;
  (b) **byte-identical answers** — two engines warmed through the
      identical replay answer identical queries byte-identically
      (values, standard errors, confidence intervals, charges): the
      warm-up is deterministic end to end.

Standalone (``python benchmarks/bench_workload_intel.py [--smoke]``).
Writes ``BENCH_workload_intel.json`` (see ``bench/report.py``) so CI
keeps the trajectory as workflow artifacts.
"""

from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.server import SciBorqServer
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.skyserver.workload_gen import FocalPoint, WorkloadGenerator

# Chosen so the gap is *structural*: a replayed-interest biased reflex
# layer answers cones around the focus inside the bound, while the cold
# engine's uniform-ish layers must escalate to the base table.
CONTRACT = Contract.within_error(0.2)

#: Where the fleet's interest concentrates, then shifts to.
FOCUS = FocalPoint(ra=185.0, dec=5.0, spread_ra=3.0, spread_dec=2.0)
SHIFTED = FocalPoint(ra=230.0, dec=-15.0, spread_ra=3.0, spread_dec=2.0)


def build_engine(n: int, seed: int, layer_sizes) -> SciBorq:
    """A deterministic engine; equal seeds produce identical state.

    Both arms use the *same* biased construction — the only difference
    between cold and warm is whether replayed interest exists when the
    ladder is (re)built, so the measured gap is the log, not the
    policy.
    """
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=seed,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="biased", layer_sizes=layer_sizes
    )
    build_skyserver(
        n, generator=SkyGenerator(rng=seed + 1), loader=engine.loader
    )
    return engine


def drifting_workload(count: int, rng: int):
    """Cone searches focused on FOCUS, shifting to SHIFTED mid-stream."""
    generator = WorkloadGenerator(
        focal_points=[FOCUS],
        cone_fraction=1.0,
        aggregate_fraction=1.0,
        radius_range=(1.0, 3.0),
        rng=rng,
    )
    for query in generator.queries(count // 2):
        yield query
    generator.shift([SHIFTED, FOCUS])
    for query in generator.queries(count - count // 2):
        yield query


def train_fleet(n, seed, sessions, queries):
    """Phase 1: a multi-session server runs its drifting workload.

    Returns a snapshot of the engine's query log: what the fleet
    asked, in order.
    """
    engine = build_engine(n, seed, layer_sizes=(4_000, 400))
    with SciBorqServer(engine, max_workers=4) as server:
        users = [server.open_session(f"scientist-{i}") for i in range(sessions)]
        for index, query in enumerate(drifting_workload(queries, rng=71)):
            users[index % sessions].execute(query, Contract.within_error(0.2))
    return engine.query_log.snapshot()


def build_warm(n, seed, log):
    """Phase 2 treatment arm: a fresh engine that replays the fleet's
    log into its interest model, then rebuilds its biased impressions
    over the loaded data."""
    engine = build_engine(n, seed, layer_sizes=(4_000, 400))
    for entry in log:
        engine.interest.observe_query(entry.query)
    engine.rebuild("PhotoObjAll")
    return engine


def probe_queries(count: int):
    """Deterministic cones around the fleet's focus.

    ``SHIFTED`` lies outside ``DEC_RANGE``, so cones there match
    nothing; the probes stay where the data and the interest are.
    """
    offsets = ((0.0, 0.0), (2.0, 1.0), (-2.0, -1.0), (1.0, -1.5))
    probes = []
    for index in range(count):
        d_ra, d_dec = offsets[index % len(offsets)]
        radius = 2.0 + (index % 3)
        probes.append(
            Query(
                table="PhotoObjAll",
                predicate=RadialPredicate(
                    "ra", "dec", FOCUS.ra + d_ra, FOCUS.dec + d_dec, radius
                ),
                aggregates=[
                    AggregateSpec("count"),
                    AggregateSpec("avg", "r_mag"),
                ],
            )
        )
    return probes


def summarize(outcome):
    """Everything determinism must preserve, byte for byte."""
    estimates = {
        name: (est.value, est.se, est.ci)
        for name, est in (outcome.result.estimates or {}).items()
    }
    return (outcome.total_cost, len(outcome.attempts), estimates)


def run_probes(engine, probes):
    outcomes = [engine.execute(query, CONTRACT) for query in probes]
    return outcomes, sum(o.total_cost for o in outcomes)


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
        n, train_sessions, train_queries = 60_000, 3, 48
        probes_count = 6
    else:
        n, train_sessions, train_queries = 400_000, 8, 240
        probes_count = 12
    seed = 9100
    print(
        f"query-log warm-up benchmark: n={n} trainers={train_sessions}"
        f"×{train_queries} probes={probes_count} "
        f"({'smoke' if args.smoke else 'full'})"
    )

    log = train_fleet(n, seed, train_sessions, train_queries)
    probes = probe_queries(probes_count)

    # (a) the tuples-to-contract gap around the fleet's focus
    cold = build_engine(n, seed, layer_sizes=(4_000, 400))
    cold_outcomes, cold_tuples = run_probes(cold, probes)
    warm = build_warm(n, seed, log)
    warm_outcomes, warm_tuples = run_probes(warm, probes)
    for outcome in cold_outcomes + warm_outcomes:
        assert outcome.met_quality
    ratio = cold_tuples / max(warm_tuples, 1e-9)
    assert ratio >= 2.0, (
        f"warmed arm saved only {ratio:.2f}× tuples "
        f"(cold {cold_tuples:g}, warm {warm_tuples:g}); need ≥2×"
    )

    # (b) determinism: an identically-warmed twin answers the same
    twin = build_warm(n, seed, log)
    twin_outcomes, twin_tuples = run_probes(twin, probes)
    assert twin_tuples == warm_tuples
    for ours, theirs in zip(warm_outcomes, twin_outcomes):
        assert summarize(ours) == summarize(theirs)

    print("== E9a: tuples to contract ==")
    print(
        f"  cold {cold_tuples:g} vs warm {warm_tuples:g} tuples on "
        f"{probes_count} probes around the focus → {ratio:.2f}× (need ≥2×) ✓"
    )
    print("== E9b: determinism ==")
    print(
        f"  twin warmed engine byte-identical on all {probes_count} "
        f"probes ✓"
    )
    print(f"  replayed {len(log)} logged queries")

    write_bench_report(
        "workload_intel",
        {
            "smoke": args.smoke,
            "n": n,
            "probes": probes_count,
            "cold_tuples": cold_tuples,
            "warm_tuples": warm_tuples,
            "tuples_ratio": ratio,
            "log_entries_replayed": len(log),
        },
    )


if __name__ == "__main__":
    main()
