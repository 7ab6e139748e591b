"""E8 — overload claims: bounded intake, graceful degradation, no lies.

A bound on runtime is only worth anything if the server also bounds
what it accepts: without admission control, heavy traffic piles into
an unbounded pool queue and tail latency explodes while every query
still "meets its budget" (budgets bill execution, not the queue).
The admission layer (:mod:`repro.core.admission`) closes that gap,
and this benchmark pins its guarantees under a 100+-session burst:

  (a) **identity** — admitted, non-degraded queries return results,
      charges, and errors byte-identical to an unloaded run of the
      same workload on an identically-seeded engine: admission moves
      *when* a query runs, never what it answers;
  (b) **bounded queue delay** — the worst admission wait stays under
      the configured bound (queue capacity times observed per-slot
      service time), and p50/p99 completion latency is reported;
  (c) **zero starvation** — every admitted query completes; the
      intake queue is empty when the burst drains;
  (d) **honest degradation** — queries admitted past the pressure
      threshold are answered under a coarsened contract and say so
      (``degraded=True``), never silently and never as an error;
  (e) **structured sheds** — everything not admitted is a
      :class:`~repro.core.admission.RejectedQuery` with a reason and
      positive retry-after advice, never a hang or opaque timeout.

Standalone (``python benchmarks/bench_overload.py [--smoke]``).
Writes ``BENCH_overload.json`` (see ``bench/report.py``) so CI keeps
the latency trajectory as workflow artifacts.
"""

import time

from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.admission import AdmissionController, RejectedQuery
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.handle import QueryHandle
from repro.core.server import SciBorqServer
from repro.errors import OverloadedError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog

CONTRACT = Contract.within_error(0.05)

#: The hot regions a burst of users probes (ra, dec, radius).
REGIONS = [
    (150.0, 10.0, 4.0),
    (165.0, 8.0, 3.0),
    (180.0, 12.0, 5.0),
    (195.0, 6.0, 3.0),
    (210.0, 10.0, 4.0),
    (225.0, 8.0, 2.0),
    (140.0, 14.0, 3.0),
    (170.0, 4.0, 4.0),
]


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


def workload(sessions: int, per_session: int):
    """Deterministic (session, query-slot) → query mapping."""
    for user in range(sessions):
        for slot in range(per_session):
            yield (user, slot), region_query(user + slot * 3)


def summarize(outcome):
    """The identity triple: what admission must never change."""
    estimates = {
        name: (est.value, est.se)
        for name, est in (outcome.result.estimates or {}).items()
    }
    return (outcome.total_cost, outcome.achieved_error, estimates)


def run_unloaded(n: int, seed: int, sessions: int, per_session: int):
    """The reference arm: every query alone, admission off."""
    engine = build_engine(n, seed)
    reference = {}
    with SciBorqServer(engine) as server:
        session = server.open_session("reference")
        for key, query in workload(sessions, per_session):
            reference[key] = summarize(session.execute(query, CONTRACT))
    return reference


def run_loaded(
    n: int,
    seed: int,
    sessions: int,
    per_session: int,
    max_inflight: int,
    queue_depth: int,
):
    """The burst arm: every session's queries submitted at once."""
    engine = build_engine(n, seed)
    controller = AdmissionController(
        max_inflight=max_inflight,
        queue_depth=queue_depth,
        degrade_threshold=0.6,
        degrade_factor=4.0,
        age_rate=10.0,
    )
    with SciBorqServer(
        engine, max_workers=max_inflight, admission=controller
    ) as server:
        users = [server.open_session(f"user-{i}") for i in range(sessions)]
        slots = {}
        started = time.perf_counter()
        for (user, slot), query in workload(sessions, per_session):
            try:
                slots[(user, slot)] = users[user].submit(query, CONTRACT)
            except OverloadedError as exc:
                slots[(user, slot)] = exc.rejection
        outcomes = {
            key: handle.result(timeout=300.0)
            for key, handle in slots.items()
            if isinstance(handle, QueryHandle)
        }
        elapsed = time.perf_counter() - started
        latencies = {
            key: (slots[key].queue_seconds, slots[key].run_seconds)
            for key in outcomes
        }
    # read after shutdown: a worker returns the admission slot after its
    # handle's result is published, so the last release can trail the
    # last result() by a moment
    stats = server.admission.stats
    return slots, outcomes, latencies, stats, elapsed


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


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
        n, sessions, per_session = 150_000, 100, 2
        max_inflight, queue_depth = 4, 160
    else:
        n, sessions, per_session = 1_000_000, 150, 3
        max_inflight, queue_depth = 6, 400
    seed = 8800
    total = sessions * per_session
    print(
        f"overload benchmark: n={n} sessions={sessions} "
        f"submissions={total} capacity={max_inflight}+{queue_depth} "
        f"({'smoke' if args.smoke else 'full'})"
    )

    reference = run_unloaded(n, seed, sessions, per_session)
    slots, outcomes, latencies, stats, elapsed = run_loaded(
        n, seed, sessions, per_session, max_inflight, queue_depth
    )

    sheds = {
        key: slot
        for key, slot in slots.items()
        if isinstance(slot, RejectedQuery)
    }
    degraded = {key for key, o in outcomes.items() if o.degraded}
    identical = 0

    # (e) structured sheds: reason + positive retry-after, always
    for rejection in sheds.values():
        assert rejection.reason == "queue_full", rejection.reason
        assert rejection.retry_after > 0
    # (c) zero starvation: every admitted query completed (result()
    # returned above) and nothing is left queued
    assert len(outcomes) + len(sheds) == total
    assert stats.queued == 0 and stats.inflight == 0
    assert stats.admitted == len(outcomes)
    # (a) identity for admitted, non-degraded queries
    for key, outcome in outcomes.items():
        if key in degraded:
            # (d) honest: the mark is on the outcome, loudly
            assert outcome.degraded
            assert "DEGRADED" in outcome.describe()
            continue
        assert summarize(outcome) == reference[key], (
            f"admitted query {key} diverged from its unloaded run"
        )
        identical += 1
    # (b) bounded queue delay: capacity times observed per-slot
    # service time (4x slack for scheduling noise)
    run_seconds = [run for _, run in latencies.values() if run is not None]
    mean_run = sum(run_seconds) / max(1, len(run_seconds))
    delay_bound = (
        (queue_depth + max_inflight) * max(mean_run, 1e-4) / max_inflight * 4.0
    )
    assert stats.max_queue_seconds <= delay_bound, (
        f"queue delay {stats.max_queue_seconds:.3f}s exceeded the bound "
        f"{delay_bound:.3f}s"
    )

    waits = [queue for queue, _ in latencies.values() if queue is not None]
    totals = [
        queue + run
        for (queue, run) in latencies.values()
        if queue is not None and run is not None
    ]
    p50, p99 = percentile(totals, 0.50), percentile(totals, 0.99)

    print("== E8a: identity ==")
    print(
        f"  {identical} admitted+undegraded queries byte-identical to "
        f"their unloaded runs ✓"
    )
    print("== E8b: latency ==")
    print(
        f"  completion p50 {p50 * 1e3:.1f}ms p99 {p99 * 1e3:.1f}ms; "
        f"queue wait mean {sum(waits) / len(waits) * 1e3:.1f}ms "
        f"max {stats.max_queue_seconds * 1e3:.1f}ms "
        f"(bound {delay_bound * 1e3:.1f}ms) ✓"
    )
    print("== E8c: no starvation ==")
    print(
        f"  {len(outcomes)}/{total} admitted queries completed, "
        f"0 left queued ✓"
    )
    print("== E8d/e: degradation + sheds ==")
    print(
        f"  {len(degraded)} degraded (marked honestly), "
        f"{len(sheds)} shed structurally with retry-after ✓"
    )
    print(f"  {stats.describe()}")
    print(f"  burst wall-clock: {elapsed:.3f}s")

    write_bench_report(
        "overload",
        {
            "mode": "smoke" if args.smoke else "full",
            "rows": n,
            "sessions": sessions,
            "submissions": total,
            "max_inflight": max_inflight,
            "queue_depth": queue_depth,
            "admitted": len(outcomes),
            "degraded": len(degraded),
            "shed": len(sheds),
            "identical_checked": identical,
            "p50_seconds": p50,
            "p99_seconds": p99,
            "max_queue_seconds": stats.max_queue_seconds,
            "mean_queue_seconds": stats.mean_queue_seconds,
            "queue_delay_bound_seconds": delay_bound,
            "burst_wall_seconds": elapsed,
        },
    )


if __name__ == "__main__":
    main()
