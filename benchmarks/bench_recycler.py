"""E11 — the selection cache (the recycler, ref [13]) under a repetitive
workload.

SkyServer's public workload repeats cone searches around hot objects.
Each claim runs a Zipf-ish repeated cone workload twice — without and
with the cache — and compares the work each run *performed*.  A served
scan is charged its solo cost (``ExecutionContext.charged_units`` is
identical either way), so the saving is measured as
``charged_units - shared_units``: the tuples scans actually read.

* **exact path**: repeated cone row queries on the base table; every
  repetition after the first is served;
* **ladder**: repeated bounded cone aggregates that climb every rung to
  the base — impression, delta or complement, base: every rung scan of a
  repetition is served, with attempts and charges identical to the
  uncached climb.

Two entry points: ``pytest benchmarks/bench_recycler.py -q -s``, and
standalone ``python benchmarks/bench_recycler.py [--smoke]``, which
writes ``BENCH_recycler.json``; ``repro.bench.gates`` holds the ladder
saving at 3x or more.
"""

import numpy as np

from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Executor, Query, Recycler
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract
from repro.util.clock import ExecutionContext

TABLE = "PhotoObjAll"
REPEATS = 5
DISTINCT = 12
#: no sample meets it: the ladder answers at every rung, then the base
TO_THE_BASE = Contract.within_error(1e-9)


def centres():
    rng = np.random.default_rng(2121)
    return [
        (float(rng.uniform(140, 215)), float(rng.uniform(5, 45)))
        for _ in range(DISTINCT)
    ]


def row_queries():
    return [
        Query(
            table=TABLE,
            predicate=RadialPredicate("ra", "dec", ra, dec, 3.0),
            select=("objID",),
            limit=100,
        )
        for _ in range(REPEATS)
        for ra, dec in centres()
    ]


def cone_aggregates():
    return [
        Query(
            table=TABLE,
            predicate=RadialPredicate("ra", "dec", ra, dec, 3.0),
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
        )
        for _ in range(REPEATS)
        for ra, dec in centres()
    ]


def performed(context: ExecutionContext) -> float:
    """Tuples the context's scans actually read."""
    return context.charged_units - context.shared_units


def run_exact_claim(catalog):
    """Repeated cone row queries on the base: an executor without the
    cache against one with it."""
    cold, warm = Executor(catalog), Executor(catalog, recycler=Recycler())
    cold_context, warm_context = ExecutionContext(), ExecutionContext()
    for query in row_queries():
        cold.execute(query, context=cold_context)
        warm.execute(query, context=warm_context)
    stats = warm.recycler.stats
    saving = performed(cold_context) / performed(warm_context)
    print("== E11: the cache on repeated exact cone searches ==")
    print(f"  queries: {REPEATS * DISTINCT} ({DISTINCT} distinct x {REPEATS})")
    print(f"  charged either way: {warm_context.charged_units:g} tuples")
    print(
        f"  performed: {performed(cold_context):g} without the cache, "
        f"{performed(warm_context):g} with it — {saving:.1f}x"
    )
    print(f"  hits={stats.hits} misses={stats.misses} hit_rate={stats.hit_rate:.2f}")
    # a hit is charged as the scan it replaces
    assert warm_context.charged_units == cold_context.charged_units
    # every repetition after the first is a hit
    assert (stats.misses, stats.hits) == (DISTINCT, (REPEATS - 1) * DISTINCT)
    # the scans saved approach the repetition factor
    assert saving > REPEATS * 0.6
    return {"hit_rate": stats.hit_rate, "performed_saving": saving}


def run_ladder_claim(engine):
    """Repeated bounded cone aggregates climbing every rung, on the
    engine's own executor: once without the cache, once with it."""
    executor = engine.executor
    kept = executor.recycler
    outcomes, contexts = {}, {}
    try:
        for label, recycler in (("cold", None), ("warm", Recycler())):
            executor.recycler = recycler
            contexts[label] = ExecutionContext()
            outcomes[label] = [
                engine.execute(query, TO_THE_BASE, context=contexts[label])
                for query in cone_aggregates()
            ]
        stats = recycler.stats
    finally:
        executor.recycler = kept
    cold, warm = outcomes["cold"], outcomes["warm"]
    rungs = len(warm[0].attempts)
    saving = performed(contexts["cold"]) / performed(contexts["warm"])
    print("== E11: the cache on repeated bounded climbs ==")
    print(f"  {len(warm)} climbs of {rungs} rungs: {[a.source for a in warm[0].attempts]}")
    print(
        f"  performed: {performed(contexts['cold']):g} without the cache, "
        f"{performed(contexts['warm']):g} with it — {saving:.1f}x"
    )
    print(f"  hits={stats.hits} misses={stats.misses} hit_rate={stats.hit_rate:.2f}")
    assert all(outcome.attempts[-1].source == TABLE for outcome in warm)
    # served rungs answer and charge exactly as the uncached climb
    for mine, theirs in zip(warm, cold):
        assert [(a.source, a.cost) for a in mine.attempts] == [
            (a.source, a.cost) for a in theirs.attempts
        ]
        assert mine.result.estimates["count(*)"].value == (
            theirs.result.estimates["count(*)"].value
        )
    # every rung scan of every repetition is a hit
    assert stats.hits == (REPEATS - 1) * stats.misses
    assert saving > REPEATS * 0.6
    return {
        "rungs": rungs,
        "hits": stats.hits,
        "hit_rate": stats.hit_rate,
        "performed_saving": saving,
    }


def test_recycler_saves_repeated_scans(benchmark, medium_context):
    benchmark.pedantic(
        run_exact_claim, args=(medium_context.engine.catalog,), rounds=1, iterations=1
    )


def test_recycler_serves_every_rung_of_a_repeated_climb(benchmark, medium_context):
    benchmark.pedantic(
        run_ladder_claim, args=(medium_context.engine,), rounds=1, iterations=1
    )


def main() -> None:
    import argparse

    from repro.bench.harness import build_experiment_context

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI: same claims, seconds not minutes",
    )
    args = parser.parse_args()
    n = 200_000 if args.smoke else 1_000_000
    layer_sizes = (n // 10, n // 100, n // 1000)
    context = build_experiment_context(
        n_objects=n, policy="uniform", layer_sizes=layer_sizes, rng=2024
    )
    print(
        f"recycler benchmark: n={n} layers={list(layer_sizes)} "
        f"({'smoke' if args.smoke else 'full'})"
    )
    exact = run_exact_claim(context.engine.catalog)
    ladder = run_ladder_claim(context.engine)
    write_bench_report("recycler", {"n": n, "exact": exact, "ladder": ladder})
    print("all recycler claims hold ✓")


if __name__ == "__main__":
    main()
