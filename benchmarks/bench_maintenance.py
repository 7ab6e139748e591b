"""E9 — §3.1 claim: "smaller impressions on higher layers are more
efficient to maintain since they only touch the data of the impression
one layer below, and not the entire base."

Two parts:

* the pytest benchmark (``pytest benchmarks/bench_maintenance.py -q -s``)
  compares the cost (tuples streamed) of refreshing the small layers
  from the layer below against rebuilding the same layers from the
  base.  Shape check: refresh cost tracks the layer-below size; the
  ratio to a base rebuild is the base/layer-0 size ratio;
* the standalone **invalidation** benchmark
  (``python benchmarks/bench_maintenance.py [--smoke]``) pins what an
  ingest costs the *next query* (§3.3: impressions stay current "with
  little overhead during the load phase"): after a batch lands in a
  three-rung hierarchy every cached impression table is stale, and the
  first cone aggregate must pay, per rung, for the columns it reads
  and no others.  It records milliseconds and columns gathered until
  each rung has answered, repeats the E9 cost comparison at the same
  scale, and writes ``BENCH_maintenance.json``; ``repro.bench.gates``
  holds ``max_excess_columns`` (gathered minus read, worst rung) at
  most 1 — the hidden ``_pi`` — and the refresh saving at least 10x.
  The same run climbs a cone *row* query to the base (its base rung
  reads the cover) and records ``rows.gather_ratio``: values gathered
  for the returned columns over values returned, worst rung — a row
  answer orders and limits its index vector and gathers only the kept
  rows, so the gate holds it at most 1.
"""

import time

from repro.bench.report import write_bench_report
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.column import Column
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract
from repro.core.maintenance import rebuild_from_base, refresh_hierarchy
from repro.core.policy import UniformPolicy, build_hierarchy
from repro.util.clock import CostClock

LAYERS = (20_000, 2_000, 200)


def refresh_and_rebuild(hierarchy, base):
    """Tuples streamed by a refresh from below, then by a base rebuild."""
    refresh_clock = CostClock()
    refresh_reports = refresh_hierarchy(hierarchy, base, refresh_clock)
    rebuild_clock = CostClock()
    rebuild_from_base(hierarchy, base, rebuild_clock)
    return refresh_clock.now, rebuild_clock.now, refresh_reports


def test_refresh_vs_rebuild_cost(benchmark, medium_context):
    base = medium_context.engine.catalog.table("PhotoObjAll")
    hierarchy = build_hierarchy(
        "PhotoObjAll", UniformPolicy(layer_sizes=LAYERS), rng=606
    )
    rebuild_from_base(hierarchy, base)  # initial population

    refresh_cost, rebuild_cost, reports = benchmark.pedantic(
        refresh_and_rebuild, args=(hierarchy, base), rounds=2, iterations=1
    )

    print("== E9: maintenance cost, refresh-from-below vs rebuild ==")
    for report in reports:
        print(
            f"  refresh {report.target}: streamed {report.tuples_streamed} "
            f"tuples from {report.source}"
        )
    print(f"  total refresh cost:  {refresh_cost:g} tuples")
    print(f"  total rebuild cost:  {rebuild_cost:g} tuples")
    print(f"  saving: {rebuild_cost / refresh_cost:.1f}x")

    # refresh touches exactly the two parent layers
    assert refresh_cost == LAYERS[0] + LAYERS[1]
    # rebuild touches the base once per layer
    assert rebuild_cost == len(LAYERS) * base.num_rows
    # the paper's point: an order of magnitude (or more) cheaper
    assert rebuild_cost / refresh_cost > 10


# ----------------------------------------------------------------------
# standalone: what an ingest costs the next query
# ----------------------------------------------------------------------
TABLE = "PhotoObjAll"
INGEST_ROWS = 20_000
CONE = Query(
    table=TABLE,
    predicate=RadialPredicate("ra", "dec", 185.0, 30.0, 5.0),
    aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
)
#: no sample meets it: the ladder answers at every rung, then the base
TO_THE_BASE = Contract.within_error(1e-9)


def run_invalidation_claim(context, ingest_rows):
    """Ingest, then time the first cone aggregate rung by rung."""
    engine = context.engine
    base = engine.catalog.table(TABLE)
    layers = list(engine.hierarchy(TABLE).from_smallest())
    engine.execute(CONE, TO_THE_BASE)  # every rung table live, as in steady state
    start = time.perf_counter()
    engine.ingest(TABLE, context.generator.photoobj_batch(ingest_rows))
    ingest_ms = (time.perf_counter() - start) * 1e3
    read = len(CONE.columns_read())
    rungs = {}
    stream = engine.processor(TABLE).run(CONE, TO_THE_BASE)
    last = time.perf_counter()
    while True:
        try:
            update = next(stream)
        except StopIteration as stop:
            outcome = stop.value
            break
        now = time.perf_counter()
        rungs[update.source] = {"ms": (now - last) * 1e3}
        last = now
    assert outcome.result.exact and list(rungs)[-1] == TABLE
    # independent reservoirs stop being nested on ingest, so every rung
    # was scanned whole; the base rung scanned the largest one's complement
    scanned = {layer.name: layer.cached_table() for layer in layers}
    scanned[TABLE] = layers[-1].materialise_complement(base)
    print(f"== invalidation: first cone aggregate after a {ingest_rows}-row ingest ==")
    print(f"  ingest itself: {ingest_ms:.1f} ms; the query reads {read} columns")
    for name, entry in rungs.items():
        gathered = [c.name for c in scanned[name].resident_columns()]
        entry.update(
            rows=scanned[name].num_rows,
            columns_gathered=len(gathered),
            columns_read=read,
        )
        print(
            f"  {name}: {entry['ms']:.1f} ms, {scanned[name].num_rows} rows, "
            f"gathered {gathered} of {len(scanned[name].column_names)}"
        )
    excess = max(e["columns_gathered"] - e["columns_read"] for e in rungs.values())
    assert excess <= 1, f"a rung gathered {excess} columns the query never reads"
    print("  every rung gathered what the query reads (+ _pi), nothing else ✓")
    return {
        "ingest_rows": ingest_rows,
        "ingest_ms": ingest_ms,
        "rungs": rungs,
        "first_answer_ms": next(iter(rungs.values()))["ms"],
        "exact_answer_ms": sum(e["ms"] for e in rungs.values()),
        "max_excess_columns": excess,
    }


ROWS = Query(
    table=TABLE,
    predicate=CONE.predicate,
    select=("objID", "ra", "dec", "r_mag"),
    order_by="g_mag",
    limit=200,
)


def run_rows_claim(context):
    """Climb a cone row query to the base, counting per rung the values
    gathered for its returned columns against the values returned."""
    engine = context.engine
    base = engine.catalog.table(TABLE)
    assert engine.hierarchy(TABLE).base_cover(ROWS.predicate, base) is not None
    gathered = []
    original = Column.gather_with_error

    def counting(column, indices, raw=False):
        # raw gathers are a rung table's own first touch, not the answer
        if not raw and column.name in ROWS.select:
            gathered.append(len(indices))
        return original(column, indices, raw)

    rungs = {}
    Column.gather_with_error = counting
    try:
        for update in engine.processor(TABLE).run(ROWS, TO_THE_BASE):
            rows = update.result.rows
            rungs[update.source] = {
                "returned": rows.num_rows * len(rows.column_names),
                "gathered": sum(gathered),
            }
            del gathered[:]
    finally:
        Column.gather_with_error = original
    assert list(rungs)[-1] == TABLE
    ratio = max(e["gathered"] / max(e["returned"], 1) for e in rungs.values())
    print("== rows: a cone row query climbed to the base (through the cover) ==")
    for name, entry in rungs.items():
        print(
            f"  {name}: gathered {entry['gathered']} values, "
            f"returned {entry['returned']}"
        )
    assert ratio <= 1, f"a rung gathered {ratio:.1f}x the values it returned"
    print(f"  gather ratio (worst rung): {ratio:.2f} ✓")
    return {"gather_ratio": ratio, "rungs": rungs}


def run_refresh_claim(context, layer_sizes):
    """E9 at the standalone scale: refresh-from-below vs base rebuild."""
    base = context.engine.catalog.table(TABLE)
    hierarchy = build_hierarchy(TABLE, UniformPolicy(layer_sizes=layer_sizes), rng=606)
    rebuild_from_base(hierarchy, base)  # initial population
    refresh_cost, rebuild_cost, _ = refresh_and_rebuild(hierarchy, base)
    saving = rebuild_cost / refresh_cost
    print(
        f"== E9: refresh {refresh_cost:g} tuples vs rebuild "
        f"{rebuild_cost:g} — {saving:.1f}x =="
    )
    assert refresh_cost == layer_sizes[0] + layer_sizes[1]
    assert saving > 10
    return {
        "refresh_cost": refresh_cost,
        "rebuild_cost": rebuild_cost,
        "saving": saving,
    }


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
    layer_sizes = (n // 4, n // 20, n // 100)
    context = build_experiment_context(
        n_objects=n, policy="uniform", layer_sizes=layer_sizes, rng=909
    )
    print(
        f"maintenance benchmark: n={n} layers={list(layer_sizes)} "
        f"({'smoke' if args.smoke else 'full'})"
    )
    invalidation = run_invalidation_claim(context, INGEST_ROWS)
    rows = run_rows_claim(context)
    refresh = run_refresh_claim(context, layer_sizes)
    write_bench_report(
        "maintenance", {"n": n, **invalidation, "rows": rows, "refresh": refresh}
    )
    print("all maintenance claims hold ✓")


if __name__ == "__main__":
    main()
