"""E7 — shared-scan claims: concurrent bounded queries share one scan.

SciBORQ's serving story (and LifeRaft's core observation) is that
exploratory science traffic is redundant: many users probe the same
table — often the same hot regions — at the same time, each under
their own bounds.  The shared-scan batch scheduler
(:mod:`repro.core.scheduler`) and the executor's selection cache
(:mod:`repro.columnstore.recycler`) turn that redundancy into
wall-clock: in-flight rung scans of the same table convoy on one pass,
equal predicates are evaluated once, a scan that queued behind its
twin's pass is served by it, and every query is still charged exactly
its solo cost.

Standalone benchmark (``python benchmarks/bench_shared_scan.py
[--smoke]``) pins two claims with 8 concurrent sessions probing the
same table through a shared server:

  (a) **identity** — per-query results, tuples charged, attempts, and
      ``ProgressUpdate`` streams are byte-identical between the
      shared-scan server and an identically-seeded server with
      sharing disabled and no selection cache;
  (b) **throughput** — completing the whole 8-session workload takes
      ≥2x less wall-clock with sharing than without, at equal pool
      width (the cache's hits and the convoys' dedups count the scans
      another query's evaluation served).

Writes ``BENCH_shared_scan.json`` (see ``bench/report.py``) so CI
keeps the performance trajectory as workflow artifacts.
"""

import time

from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import And, Between
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.server import SciBorqServer
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog

SESSIONS = 8
ERROR_BOUND = 0.005  # tight enough to force deep multi-rung climbs


def build_engine(n: int, seed: int, cache: bool = True) -> SciBorq:
    """A deterministic engine; equal seeds produce identical state.

    ``cache=False`` builds it without the selection cache.
    """
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        recycler_bytes=16 * 1024 * 1024 if cache else None,
        rng=seed,
    )
    engine.create_hierarchy(
        "PhotoObjAll",
        policy="uniform",
        layer_sizes=(n // 4, n // 20),
    )
    build_skyserver(n, generator=SkyGenerator(rng=seed + 1), loader=engine.loader)
    return engine


def _band(r_lo: float, p_lo: float) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=And(
            [
                Between("r_mag", r_lo, r_lo + 0.5),
                Between("petro_rad", p_lo, p_lo + 1.0),
            ]
        ),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "g_mag")],
    )


def hot_queries() -> list:
    """The workload's hot selections: what 8 users probe simultaneously.

    Narrow magnitude / size bands with a tight error bound force
    full-ladder climbs over attributes no layout clusters — the
    scan-heavy regime where redundancy costs the most (a sky cone reads
    only the zones of its cells, and leaves little to share) — while the
    matched sets stay small, so per-query estimation (which sharing
    cannot and must not dedup) does not drown the scans.
    """
    return [_band(17.0, 1.0), _band(18.5, 2.0)]


def workload_jobs(sessions, queries, rounds: int):
    """Query-major interleave: every user asks the hot thing at once."""
    jobs = []
    for _ in range(rounds):
        for query in queries:
            for session in sessions:
                jobs.append((session, query))
    return jobs


def warm_server(session) -> None:
    """Steady-state the server before timing.

    Runs *different* bands over the same columns, so materialised
    rungs, their gathered columns, zone maps, and delta/complement
    caches are built (one-off costs both arms would otherwise pay
    inside the timer) while the selection cache stays cold for the hot
    workload — the shared arm gets no head start on the queries being
    measured.
    """
    for r_lo in (16.0, 20.0):
        session.execute(_band(r_lo, 3.0))


def run_arm(shared: bool, n: int, seed: int, rounds: int):
    """One timed pass of the whole 8-session workload.

    The server keeps its default, core-capped pool width — the sane
    production sizing — while all 8 sessions stay concurrently in
    flight; sharing must win by removing redundant work, not by
    rearranging threads.  The solo arm has neither convoys nor the
    selection cache.
    """
    engine = build_engine(n, seed, cache=shared)
    with SciBorqServer(engine, shared_scans=shared) as server:
        sessions = [
            server.open_session(
                f"user-{i}", contract=Contract.within_error(ERROR_BOUND)
            )
            for i in range(SESSIONS)
        ]
        warm_server(sessions[0])
        jobs = workload_jobs(sessions, hot_queries(), rounds)
        started = time.perf_counter()
        handles = [server.submit(session, query) for session, query in jobs]
        outcomes = [handle.result() for handle in handles]
        elapsed = time.perf_counter() - started
        stats = None
        if shared:
            stats = (server.scheduler.stats, engine.recycler.stats)
        summaries = []
        for handle, outcome in zip(handles, outcomes):
            updates = [
                (
                    update.rung,
                    update.source,
                    update.achieved_error,
                    update.spent,
                    update.satisfied,
                )
                for update in handle.updates
            ]
            attempts = [
                (a.source, a.rows, a.cost, a.relative_error, a.delta_rows)
                for a in outcome.attempts
            ]
            estimates = {
                name: (est.value, est.se)
                for name, est in (outcome.result.estimates or {}).items()
            }
            summaries.append(
                (updates, attempts, estimates, outcome.total_cost)
            )
    return summaries, elapsed, stats


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
        n, rounds, repetitions = 2_000_000, 2, 2
    else:
        n, rounds, repetitions = 4_000_000, 3, 2
    total_queries = rounds * len(hot_queries()) * SESSIONS
    print(
        f"shared-scan benchmark: n={n} sessions={SESSIONS} "
        f"queries={total_queries} ({'smoke' if args.smoke else 'full'})"
    )

    solo_times, shared_times = [], []
    solo_summaries = shared_summaries = None
    convoy_stats = None
    for repetition in range(repetitions):
        seed = 9000 + repetition
        solo_summaries, solo_elapsed, _ = run_arm(False, n, seed, rounds)
        shared_summaries, shared_elapsed, convoy_stats = run_arm(
            True, n, seed, rounds
        )
        solo_times.append(solo_elapsed)
        shared_times.append(shared_elapsed)
        print(
            f"  rep {repetition}: solo {solo_elapsed:.3f}s, "
            f"shared {shared_elapsed:.3f}s "
            f"({solo_elapsed / shared_elapsed:.2f}x)"
        )
        # (a) identity: byte-identical per-query outcomes and charges
        assert shared_summaries == solo_summaries, (
            "shared-scan execution diverged from solo execution"
        )
    print("== E7a: identity ==")
    print(
        f"  {total_queries} queries: results, tuples charged, attempts, "
        f"and progress streams identical in both arms ✓"
    )

    solo_best, shared_best = min(solo_times), min(shared_times)
    speedup = solo_best / shared_best
    assert convoy_stats is not None
    convoy_stats, cache_stats = convoy_stats
    served = convoy_stats.deduped_scans + cache_stats.hits
    print("== E7b: throughput ==")
    print(f"  {convoy_stats.describe()}")
    print(f"  selection cache: {cache_stats.hits} hits, {cache_stats.misses} misses")
    print(
        f"  wall-clock (best of {repetitions}): solo {solo_best:.3f}s, "
        f"shared {shared_best:.3f}s → {speedup:.2f}x"
    )
    assert served > 0, "no scan was ever served by another query's evaluation"
    assert speedup >= 2.0, (
        f"shared scans must be ≥2x faster at {SESSIONS} concurrent "
        f"same-table sessions; measured {speedup:.2f}x"
    )
    print(f"  ≥2x server throughput at {SESSIONS} concurrent sessions ✓")

    write_bench_report(
        "shared_scan",
        {
            "n": n,
            "sessions": SESSIONS,
            "queries": total_queries,
            "solo_seconds": solo_best,
            "shared_seconds": shared_best,
            "speedup": speedup,
            "convoy": {
                "scans": convoy_stats.scans,
                "batches": convoy_stats.batches,
                "mean_batch_size": convoy_stats.mean_batch_size,
                "deduped_scans": convoy_stats.deduped_scans,
                "tuples_saved": convoy_stats.tuples_saved,
            },
            "cache_hits": cache_stats.hits,
            "served_scans": served,
        },
    )
    print("all shared-scan claims hold ✓")


if __name__ == "__main__":
    main()
