"""E9 — workload intelligence claims: mined logs make the fleet faster.

SciBORQ's premise is that "publicly accessible query logs provide a
basis to derive areas of interest" (§2.1).  The workload-intelligence
subsystem (:mod:`repro.workload.intelligence` +
:mod:`repro.core.intelligence`) takes that seriously: one fleet's
mined query log is persisted and handed to the next engine, which
replays it into its interest model and rebuilds its biased impressions
around the predicted-hot sky regions before the first query arrives.
This benchmark pins the subsystem's claims:

  (a) **≥2× fewer tuples to contract** — on a drifting multi-session
      workload (WorkloadGenerator focal-point shift), an engine warmed
      from the fleet's mined model reaches the same error contract on
      predicted-hot-region queries charging at most half the tuples a
      cold engine charges;
  (b) **byte-identical answers** — two engines warmed through the
      identical pipeline answer identical queries byte-identically
      (values, standard errors, confidence intervals, charges): the
      intelligence is deterministic end to end;
  (c) **persistence fidelity** — the persisted model reloads to
      identical predictions (popularity grid, hot cells, ladder
      recommendations), twice.

Standalone (``python benchmarks/bench_workload_intel.py [--smoke]``).
Writes ``BENCH_workload_intel.json`` (see ``bench/report.py``) so CI
keeps the trajectory as workflow artifacts.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.intelligence import WorkloadIntelligenceService
from repro.core.persistence import load_intelligence, save_intelligence
from repro.core.server import SciBorqServer
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.skyserver.workload_gen import FocalPoint, WorkloadGenerator

# Chosen so the gap is *structural*: a mined-interest biased reflex
# layer answers predicted-hot cones inside the bound, while the cold
# engine's uniform-ish layers must escalate to the base table.
CONTRACT = Contract.within_error(0.2)

#: Where the fleet's interest concentrates, then shifts to.
FOCUS = FocalPoint(ra=185.0, dec=5.0, spread_ra=3.0, spread_dec=2.0)
SHIFTED = FocalPoint(ra=230.0, dec=-15.0, spread_ra=3.0, spread_dec=2.0)


def build_engine(n: int, seed: int, layer_sizes) -> SciBorq:
    """A deterministic engine; equal seeds produce identical state.

    Both arms use the *same* biased construction — the only difference
    between cold and warm is whether mined interest exists when the
    ladder is (re)built, so the measured gap is the intelligence, not
    the policy.
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


def train_fleet(n, seed, sessions, queries, model_path, bins):
    """Phase 1: a multi-session server mines its own drifting workload.

    Nothing mines while the sessions run: saving the service reads
    the engine's log once, at the end.  Returns the persisted model
    path and the trainer's service (for observability numbers only —
    probing uses the reloaded snapshot).
    """
    service = WorkloadIntelligenceService(bins=bins, min_support=2)
    engine = build_engine(n, seed, layer_sizes=(4_000, 400))
    engine.set_intelligence(service)
    with SciBorqServer(engine, max_workers=4) as server:
        users = [server.open_session(f"scientist-{i}") for i in range(sessions)]
        for index, query in enumerate(drifting_workload(queries, rng=71)):
            users[index % sessions].execute(query, Contract.within_error(0.2))
    path = save_intelligence(service, model_path)
    return path, service, engine.report().render()


def seed_interest_from_model(engine: SciBorq, model) -> None:
    """Replay the mined popularity grid into the interest model.

    Each non-empty cell contributes its centre, repeated by its aged
    query count — the bridge from the fleet's persisted history to the
    biased-πps rebuild of a fresh engine.
    """
    xs, ys = [], []
    for ix, iy in zip(*np.nonzero(model.counts)):
        weight = int(model.counts[ix, iy])
        xs.append(np.full(weight, model.x_min + (ix + 0.5) * model.x_width))
        ys.append(np.full(weight, model.y_min + (iy + 0.5) * model.y_width))
    if xs:
        engine.interest.observe_values("ra", np.concatenate(xs))
        engine.interest.observe_values("dec", np.concatenate(ys))


def build_warm(n, seed, model_path):
    """Phase 2 treatment arm: fresh engine + the fleet's mined model."""
    model = load_intelligence(model_path)
    engine = build_engine(n, seed, layer_sizes=(4_000, 400))
    seed_interest_from_model(engine, model)
    engine.rebuild("PhotoObjAll")  # re-apply bias to loaded data
    engine.set_intelligence(WorkloadIntelligenceService(model=model))
    return engine, model


def probe_queries(model, count: int):
    """Deterministic cones into the model's predicted-hot regions."""
    regions = model.hot_cells(3)
    probes = []
    for index in range(count):
        region = regions[index % len(regions)]
        ra = (region.x_lo + region.x_hi) / 2.0
        dec = (region.y_lo + region.y_hi) / 2.0
        radius = 2.0 + (index % 3)
        probes.append(
            Query(
                table="PhotoObjAll",
                predicate=RadialPredicate("ra", "dec", ra, dec, radius),
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
        bins = 24
    else:
        n, train_sessions, train_queries = 400_000, 8, 240
        probes_count = 12
        bins = 32
    seed = 9100
    print(
        f"workload-intelligence benchmark: n={n} trainers={train_sessions}"
        f"×{train_queries} probes={probes_count} "
        f"({'smoke' if args.smoke else 'full'})"
    )

    with tempfile.TemporaryDirectory(prefix="sciborq-intel-") as tmp:
        model_path, trainer, trainer_summary = train_fleet(
            n, seed, train_sessions, train_queries,
            Path(tmp) / "fleet-model", bins,
        )
        assert "workload intelligence" in trainer_summary

        # (c) persistence fidelity: two loads, identical predictions
        first, second = (
            load_intelligence(model_path),
            load_intelligence(model_path),
        )
        for name, array in first.state_arrays().items():
            assert np.array_equal(array, second.state_arrays()[name]), name
        assert first.hot_cells(6) == second.hot_cells(6)
        hot = first.hot_cells(1)[0]
        probe_center = ((hot.x_lo + hot.x_hi) / 2, (hot.y_lo + hot.y_hi) / 2)
        assert first.recommendation_at(
            *probe_center, min_support=1
        ) == second.recommendation_at(*probe_center, min_support=1)

        probes = probe_queries(first, probes_count)

        # (a) the tuples-to-contract gap on predicted-hot regions
        cold = build_engine(n, seed, layer_sizes=(4_000, 400))
        cold_outcomes, cold_tuples = run_probes(cold, probes)
        warm, model = build_warm(n, seed, model_path)
        warm_outcomes, warm_tuples = run_probes(warm, probes)
        for outcome in cold_outcomes + warm_outcomes:
            assert outcome.met_quality
        ratio = cold_tuples / max(warm_tuples, 1e-9)
        assert ratio >= 2.0, (
            f"warmed arm saved only {ratio:.2f}× tuples "
            f"(cold {cold_tuples:g}, warm {warm_tuples:g}); need ≥2×"
        )

        # (b) determinism: an identically-warmed twin answers the same
        twin, _ = build_warm(n, seed, model_path)
        twin_outcomes, twin_tuples = run_probes(twin, probes)
        assert twin_tuples == warm_tuples
        for ours, theirs in zip(warm_outcomes, twin_outcomes):
            assert summarize(ours) == summarize(theirs)

    print("== E9a: tuples to contract ==")
    print(
        f"  cold {cold_tuples:g} vs warm {warm_tuples:g} tuples on "
        f"{probes_count} predicted-hot probes → {ratio:.2f}× (need ≥2×) ✓"
    )
    print("== E9b: determinism ==")
    print(
        f"  twin warmed engine byte-identical on all {probes_count} "
        f"probes ✓"
    )
    print("== E9c: persistence ==")
    print("  model reloaded twice to identical predictions ✓")
    print(f"  trainer: {trainer.describe()}")

    write_bench_report(
        "workload_intel",
        {
            "smoke": args.smoke,
            "n": n,
            "probes": probes_count,
            "cold_tuples": cold_tuples,
            "warm_tuples": warm_tuples,
            "tuples_ratio": ratio,
            "trainer_queries_mined": trainer.queries_mined,
        },
    )


if __name__ == "__main__":
    main()
