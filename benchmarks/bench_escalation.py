"""E5 — §3.2 claim: escalation meets the requested error bound by
moving to more detailed layers, "ultimately ... the base columns for a
zero error margin."

Two parts:

* the pytest benchmark (``pytest benchmarks/bench_escalation.py -q -s``)
  sweeps the error target from loose to zero and checks the ladder's
  shape: cost non-decreasing, targets met, zero lands on base;
* the standalone **delta-escalation** benchmark
  (``python benchmarks/bench_escalation.py [--smoke]``) pins the
  incremental-ladder claims on a *nested* hierarchy ("each less
  detailed impression is derived from a previous more detailed one",
  §3.1):

  (a) a zero-error contract that climbs ≥2 rungs charges **≥2x fewer
      tuples** with delta escalation than the from-scratch ladder,
      with byte-identical exact answers and numerically identical
      per-rung estimates;
  (b) under the same time budget the delta ladder reaches a **deeper
      rung** — the exact base answer — where the from-scratch ladder
      cannot afford it;
  (c) on an *independent* ladder — the shape a freshly built uniform
      hierarchy has, and the one the repository's end-to-end benchmark
      runs — and again after an ingest, every rung's answer is
      **byte-identical** to the from-scratch ladder's, with equal
      charges on every impression rung (each is scanned whole either
      way, and answers in its scan's order).
"""

import numpy as np

from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract

TARGETS = (0.5, 0.2, 0.1, 0.05, 0.02, 0.0)


def test_escalation_ladder(benchmark, medium_context):
    engine = medium_context.engine
    processor = engine.processor("PhotoObjAll")
    query = Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", 205.0, 40.0, 5.0),
        aggregates=[AggregateSpec("count")],
    )

    def run():
        rows = []
        for target in TARGETS:
            outcome = processor.execute(
                query, Contract(max_relative_error=target)
            )
            rows.append(
                (
                    target,
                    len(outcome.attempts),
                    outcome.total_cost,
                    outcome.achieved_error,
                    outcome.attempts[-1].rows,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=2, iterations=1)

    print("== E5: escalation vs error target ==")
    print("  target  attempts  cost      achieved  final-rows")
    for target, attempts, cost, achieved, final_rows in rows:
        print(
            f"  {target:<7g} {attempts:<9d} {cost:<9g} "
            f"{achieved:<9.4g} {final_rows}"
        )

    targets = np.array([r[0] for r in rows])
    costs = np.array([r[2] for r in rows])
    achieved = np.array([r[3] for r in rows])
    final_rows = np.array([r[4] for r in rows])
    base_rows = engine.catalog.table("PhotoObjAll").num_rows

    # tighter targets never get cheaper
    assert (np.diff(costs) >= 0).all()
    # every target is met (no budget constrains this sweep)
    assert (achieved <= targets + 1e-12).all()
    # zero-error lands on the base data
    assert final_rows[-1] == base_rows
    assert achieved[-1] == 0.0
    # loose targets stay on small layers (orders of magnitude below base)
    assert final_rows[0] <= base_rows / 50


# ======================================================================
# standalone delta-escalation benchmark (CI: --smoke)
# ======================================================================
def _build(n: int, layer_fracs, nested: bool = True, seed: int = 20260729):
    """A fact table plus a uniform ladder over it: *nested* (each layer
    refreshed from the one below) or as built (independent layers)."""
    from repro.columnstore.catalog import Catalog
    from repro.columnstore.column import Column
    from repro.columnstore.table import Table
    from repro.core.maintenance import rebuild_from_base, refresh_hierarchy
    from repro.core.policy import UniformPolicy, build_hierarchy

    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add_table(
        Table(
            "PhotoObjAll",
            [
                Column("ra", "float64", rng.uniform(120.0, 240.0, n)),
                Column("dec", "float64", rng.uniform(-5.0, 25.0, n)),
                Column("flux", "float64", rng.lognormal(1.0, 0.4, n)),
                Column("band", "int64", rng.integers(0, 5, n)),
            ],
        )
    )
    base = catalog.table("PhotoObjAll")
    sizes = tuple(int(frac * n) for frac in layer_fracs)
    hierarchy = build_hierarchy(
        "PhotoObjAll", UniformPolicy(layer_sizes=sizes), rng=seed + 1
    )
    rebuild_from_base(hierarchy, base)
    if nested:
        refresh_hierarchy(hierarchy, base)  # derive each layer from below
    assert hierarchy.is_nested() == nested
    return catalog, base, hierarchy, rng


def _ingest(base, hierarchy, rng, count: int) -> None:
    """Append ``count`` rows and offer them to every layer, as a load does."""
    start = base.num_rows
    base.append_batch(
        {
            "ra": rng.uniform(120.0, 240.0, count),
            "dec": rng.uniform(-5.0, 25.0, count),
            "flux": rng.lognormal(1.0, 0.4, count),
            "band": rng.integers(0, 5, count),
        }
    )
    ids = np.arange(start, base.num_rows, dtype=np.int64)
    for impression in hierarchy.layers:
        impression.sampler.offer_batch(ids)
        impression.set_inclusion_override(None)


def _processors(catalog, hierarchy):
    from repro.core.bounded import BoundedQueryProcessor

    return (
        BoundedQueryProcessor(catalog, hierarchy),
        BoundedQueryProcessor(catalog, hierarchy, delta_escalation=False),
    )


def _assert_identical(delta_outcome, scratch_outcome) -> None:
    """Delta answers must equal from-scratch answers, rung for rung."""
    assert len(delta_outcome.attempts) == len(scratch_outcome.attempts)
    for mine, theirs in zip(delta_outcome.attempts, scratch_outcome.attempts):
        assert mine.source == theirs.source
        assert mine.relative_error == theirs.relative_error, (
            f"{mine.source}: {mine.relative_error} vs {theirs.relative_error}"
        )
    a, b = delta_outcome.result, scratch_outcome.result
    assert a.exact == b.exact
    if a.estimates is not None:
        for name, estimate in a.estimates.items():
            assert estimate.value == b.estimates[name].value
            assert estimate.se == b.estimates[name].se
    if a.groups is not None:
        for name in a.groups.column_names:
            assert (
                a.groups[name].tobytes() == b.groups[name].tobytes()
            ), f"group column {name!r} differs"


def run_delta_claim(catalog, base, hierarchy, rng, n_queries: int):
    """Claim (a): ≥2x fewer tuples charged on ≥2-rung climbs."""
    delta, scratch = _processors(catalog, hierarchy)
    contract = Contract(max_relative_error=0.0)
    radius = 2.0
    queries = []
    for _ in range(n_queries):
        predicate = RadialPredicate(
            "ra",
            "dec",
            float(rng.uniform(125.0, 235.0)),
            float(rng.uniform(0.0, 20.0)),
            radius,
        )
        queries.append(
            Query(
                table="PhotoObjAll",
                predicate=predicate,
                aggregates=[AggregateSpec("count"), AggregateSpec("avg", "flux")],
            )
        )
    # one grouped query: the fold must merge per-group states too
    queries.append(
        Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 180.0, 10.0, 2.0 * radius),
            aggregates=[AggregateSpec("sum", "flux")],
            group_by=("band",),
        )
    )
    ratios = []
    rung_counts = set()
    print(f"== E5a: zero-error climbs over {base.num_rows} rows ==")
    for query in queries:
        delta_ctx, scratch_ctx = delta.new_context(), scratch.new_context()
        delta_outcome = delta.execute(query, contract, context=delta_ctx)
        scratch_outcome = scratch.execute(query, contract, context=scratch_ctx)
        _assert_identical(delta_outcome, scratch_outcome)
        assert delta_outcome.escalations >= 2, "must climb ≥2 rungs"
        assert delta_outcome.result.exact
        rung_counts.add(len(delta_outcome.attempts))
        ratios.append(scratch_ctx.spent / delta_ctx.spent)
    ratios = np.asarray(ratios)
    print(
        f"  tuples charged, scratch/delta: mean {ratios.mean():.2f}x "
        f"min {ratios.min():.2f}x max {ratios.max():.2f}x "
        f"({len(queries)} queries, {sorted(rung_counts)} rungs per climb)"
    )
    assert ratios.min() >= 2.0, (
        f"delta escalation won only {ratios.min():.2f}x; need ≥2x"
    )
    print("  answers identical to the from-scratch ladder on every query ✓")
    return {
        "queries": len(queries),
        "charge_ratio_mean": float(ratios.mean()),
        "charge_ratio_min": float(ratios.min()),
        "charge_ratio_max": float(ratios.max()),
    }


def run_budget_claim(catalog, base, hierarchy, rng):
    """Claim (b): same budget, the delta ladder reaches the exact rung."""
    delta, scratch = _processors(catalog, hierarchy)
    query = Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", 180.0, 10.0, 3.0),
        aggregates=[AggregateSpec("avg", "flux")],
    )
    budget = 1.15 * base.num_rows
    contract = Contract(max_relative_error=0.0, time_budget=budget)
    delta_outcome = delta.execute(query, contract)
    scratch_outcome = scratch.execute(query, contract)
    print(f"== E5b: zero-error contract under budget {budget:g} ==")
    for label, outcome in (("delta", delta_outcome), ("scratch", scratch_outcome)):
        print(
            f"  {label:>7}: {len(outcome.attempts)} rung(s), "
            f"achieved error {outcome.achieved_error:.3g}, "
            f"cost {outcome.total_cost:g}, "
            f"quality {'met' if outcome.met_quality else 'MISSED'}"
        )
    assert delta_outcome.met_quality and delta_outcome.result.exact, (
        "the delta ladder must afford the exact base rung"
    )
    assert not scratch_outcome.met_quality, (
        "the from-scratch ladder should not afford the base rung here"
    )
    assert len(delta_outcome.attempts) > len(scratch_outcome.attempts)
    assert delta_outcome.total_cost <= budget
    print("  delta ladder reached the exact answer; scratch could not ✓")
    return {
        "budget": float(budget),
        "delta_rungs": len(delta_outcome.attempts),
        "scratch_rungs": len(scratch_outcome.attempts),
        "delta_cost": float(delta_outcome.total_cost),
        "scratch_cost": float(scratch_outcome.total_cost),
    }


def _fingerprint(result) -> bytes:
    """Every number an answer reports, as bytes (None: unanswerable)."""
    if result is None:
        return b""
    numbers = []
    for estimate in (result.estimates or {}).values():
        numbers += [estimate.value, estimate.se, estimate.value_error]
    for estimates in (result.group_estimates or {}).values():
        for estimate in estimates:
            numbers += [estimate.value, estimate.se, estimate.value_error]
    parts = [result.source.encode(), np.asarray(numbers, dtype=np.float64).tobytes()]
    if result.groups is not None:
        parts += [result.groups[n].tobytes() for n in result.groups.column_names]
    return b"|".join(parts)


def _run_updates(processor, query, contract):
    stream = processor.run(query, contract)
    updates = []
    while True:
        try:
            updates.append(next(stream))
        except StopIteration as stop:
            return updates, stop.value


def run_independent_claim(catalog, base, hierarchy, rng, n_queries: int):
    """Claim (c): on an independent ladder, before and after an ingest,
    the delta ladder's rungs are byte-identical to the scratch ladder's."""
    delta, scratch = _processors(catalog, hierarchy)
    contracts = (Contract(max_relative_error=0.0), Contract.within_error(0.2))
    queries = [
        Query(
            table="PhotoObjAll",
            predicate=RadialPredicate(
                "ra",
                "dec",
                float(rng.uniform(125.0, 235.0)),
                float(rng.uniform(0.0, 20.0)),
                2.0,
            ),
            aggregates=[
                AggregateSpec("count"),
                AggregateSpec("avg", "flux"),
                AggregateSpec("var", "flux"),
            ],
        )
        for _ in range(n_queries)
    ]
    queries.append(
        Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 180.0, 10.0, 4.0),
            aggregates=[AggregateSpec("sum", "flux")],
            group_by=("band",),
        )
    )
    states, rungs = [], 0
    print("== E5c: independent ladder, delta vs from-scratch ==")
    for state in ("as-built", "after-ingest"):
        if state == "after-ingest":
            _ingest(base, hierarchy, rng, base.num_rows // 10)
        assert not hierarchy.is_nested(), "the ladder must stay independent"
        for query in queries:
            for contract in contracts:
                mine, delta_outcome = _run_updates(delta, query, contract)
                theirs, scratch_outcome = _run_updates(scratch, query, contract)
                assert len(mine) == len(theirs)
                for a, b in zip(mine, theirs):
                    assert a.source == b.source
                    assert _fingerprint(a.result) == _fingerprint(b.result), (
                        f"{state}: rung {a.rung} ({a.source}) differs"
                    )
                    assert a.achieved_error == b.achieved_error
                    if a.source != base.name:
                        # scanned whole either way: the same charge
                        assert a.attempt.cost == b.attempt.cost
                assert _fingerprint(delta_outcome.result) == _fingerprint(
                    scratch_outcome.result
                )
                assert delta_outcome.total_cost <= scratch_outcome.total_cost
                rungs += len(mine)
        states.append(state)
        print(f"  {state}: {len(queries) * len(contracts)} ladders identical ✓")
    return {
        "nested": hierarchy.is_nested(),
        "states": states,
        "queries": len(queries) * len(contracts),
        "rungs_compared": rungs,
        "byte_identical": True,
    }


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
        n, n_queries = 30_000, 4
    else:
        n, n_queries = 200_000, 12
    layer_fracs = (0.64, 0.32, 0.16)
    catalog, base, hierarchy, rng = _build(n, layer_fracs)
    print(
        f"delta-escalation benchmark: n={n} layers="
        f"{[imp.size for imp in hierarchy.layers]} "
        f"({'smoke' if args.smoke else 'full'})"
    )
    print(
        f"  escalation deltas (rows each rung adds): "
        f"{hierarchy.escalation_deltas()}"
    )
    delta = run_delta_claim(catalog, base, hierarchy, rng, n_queries)
    budget = run_budget_claim(catalog, base, hierarchy, rng)
    independent = run_independent_claim(
        *_build(n, layer_fracs, nested=False), n_queries
    )
    write_bench_report(
        "escalation",
        {"n": n, "delta": delta, "budget": budget, "independent": independent},
    )
    print("all delta-escalation claims hold ✓")


if __name__ == "__main__":
    main()
