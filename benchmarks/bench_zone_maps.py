"""E14 — zone-map pruned block scans make runtime budgets go further.

SciBORQ prices its runtime bounds in tuples touched (paper §3.2), so
every tuple a selection does *not* read is budget returned to the
escalation ladder.  This benchmark pins the two claims of the
block-storage layer on stripe-ordered SkyServer data (SDSS loads sky
stripes sequentially, so ``ra`` arrives clustered):

(a) **pruning** — selective cone searches (≤5% of the table) charge
    ≥3x fewer tuples with zone maps than a full scan, while returning
    *byte-identical* rows;
(b) **more rungs per budget** — under the same cost budget, a
    zero-error contract escalates deeper (reaching the exact base
    rung) on the pruned store than on an unprunable single-block
    store;
(c) **rung tables prune on an unsorted base** — the engine lays every
    impression table out by interest cell on its own zone grid, so on
    a base loaded in *random* sky order selective cones charge the
    hierarchy's rungs ≥2x fewer tuples than id-ordered twins of the
    same samples, with the same answers within 1e-12;
(d) **base scans prune on an unsorted base** — the largest rung and its
    complement partition the base in interest-cell order, so exact cone
    scans and row-query base rungs that read them charge ≥3x fewer
    tuples than a hierarchy-less twin scanning the base, with
    byte-identical answers;
(e) **scans run in the thread that asked** — a selection evaluates its
    morsels in order in the calling thread; the same morsels fanned over
    a :class:`~repro.util.concurrency.MorselPool` return byte-identical
    indices.  ``scan.fanout_wall_ratio`` records what the fan-out costs
    two concurrent sessions scanning a 1 M-row table (fan-out wall time
    ÷ caller-thread wall time; > 1 means the fan-out is slower).  It is
    a wall time, so it is recorded, not gated.

Run standalone: ``python benchmarks/bench_zone_maps.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import os
import threading
import time

import numpy as np

from repro.columnstore import operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.executor import Executor
from repro.columnstore.expressions import Between, RadialPredicate
from repro.columnstore.plan import estimate_cost
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.table import Table
from repro.bench.report import write_bench_report
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.maintenance import rebuild_from_base
from repro.core.policy import UniformPolicy, build_hierarchy
from repro.util.concurrency import MorselPool

RA_LO, RA_HI = 120.0, 240.0
DEC_LO, DEC_HI = -5.0, 25.0


def build_store(n: int, block_size: int, seed: int = 20260729):
    """One dataset, two physical layouts: blocked vs single-block.

    ``ra`` is sorted (stripe-ordered ingest), which is what gives the
    blocked layout tight zones; the flat layout holds the identical
    rows in one unprunable block.
    """
    rng = np.random.default_rng(seed)
    ra = np.sort(rng.uniform(RA_LO, RA_HI, n))
    dec = rng.uniform(DEC_LO, DEC_HI, n)
    flux = rng.lognormal(1.0, 0.4, n)

    def catalog_for(layout_block_size: int) -> Catalog:
        catalog = Catalog()
        catalog.add_table(
            Table(
                "PhotoObjAll",
                [
                    Column("ra", "float64", ra, block_size=layout_block_size),
                    Column("dec", "float64", dec, block_size=layout_block_size),
                    Column("flux", "float64", flux, block_size=layout_block_size),
                ],
            )
        )
        return catalog

    return catalog_for(block_size), catalog_for(n), rng


def cone(cx: float, cy: float, radius: float) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", cx, cy, radius),
    )


def run_pruning_claim(pruned_catalog, flat_catalog, rng, n_queries: int):
    """Claim (a): ≥3x fewer tuples charged, byte-identical answers."""
    pruned_executor = Executor(pruned_catalog)
    flat_executor = Executor(flat_catalog)
    n = flat_catalog.table("PhotoObjAll").num_rows
    # a cone whose bounding box covers ~2.5% of the ra stripe keeps
    # predicate selectivity well under the 5% bar
    radius = 0.0125 * (RA_HI - RA_LO)
    ratios = []
    print(f"== E14a: {n_queries} selective cone searches over {n} rows ==")
    for i in range(n_queries):
        query = cone(
            float(rng.uniform(RA_LO + radius, RA_HI - radius)),
            float(rng.uniform(DEC_LO + radius, DEC_HI - radius)),
            radius,
        )
        pruned_ctx = pruned_executor.new_context()
        flat_ctx = flat_executor.new_context()
        pruned_result = pruned_executor.execute(query, context=pruned_ctx)
        flat_result = flat_executor.execute(query, context=flat_ctx)

        selectivity = flat_result.rows.num_rows / n
        assert selectivity <= 0.05, f"query {i} not selective: {selectivity:.3f}"
        for name in flat_result.rows.column_names:
            assert (
                pruned_result.rows[name].tobytes()
                == flat_result.rows[name].tobytes()
            ), f"query {i} column {name!r} differs"
        assert flat_ctx.spent == n  # the unpruned scan reads everything
        ratios.append(flat_ctx.spent / pruned_ctx.spent)
    ratios = np.asarray(ratios)
    print(
        f"  tuples charged, flat/pruned: mean {ratios.mean():.1f}x "
        f"min {ratios.min():.1f}x max {ratios.max():.1f}x"
    )
    assert ratios.min() >= 3.0, (
        f"pruning won only {ratios.min():.2f}x on the worst query; need ≥3x"
    )
    print("  results byte-identical on every query ✓")
    return {
        "queries": n_queries,
        "charge_ratio_mean": float(ratios.mean()),
        "charge_ratio_min": float(ratios.min()),
        "charge_ratio_max": float(ratios.max()),
    }


def run_budget_claim(pruned_catalog, flat_catalog, rng, layer_sizes):
    """Claim (b): same budget, more escalation rungs answered.

    An ``avg`` over a narrow cone: impressions answer it with nonzero
    error (or cannot answer it at all when the tiny layer misses the
    region), so a zero-error contract must escalate all the way to the
    base table — affordable only where pruning shrinks the base scan.
    """
    query = Query(
        table="PhotoObjAll",
        predicate=RadialPredicate(
            "ra", "dec", 0.5 * (RA_LO + RA_HI), 10.0, 1.5
        ),
        aggregates=[AggregateSpec("avg", "flux")],
    )
    outcomes = {}
    # budget: 80% of what the *unpruned* base scan is predicted to
    # cost — the flat ladder cannot afford its exact rung, the pruned
    # one can
    budget = 0.8 * estimate_cost(query, flat_catalog).total_cost
    for label, catalog in (("pruned", pruned_catalog), ("flat", flat_catalog)):
        base = catalog.table("PhotoObjAll")
        hierarchy = build_hierarchy(
            "PhotoObjAll", UniformPolicy(layer_sizes=layer_sizes), rng=7
        )
        rebuild_from_base(hierarchy, base)
        # from-scratch ladders isolate the zone-map effect: with delta
        # escalation on, even the flat ladder's base rung becomes
        # affordable (its complement scan is what bench_escalation.py
        # measures), which would mask the pruning win this claim pins.
        processor = BoundedQueryProcessor(
            catalog, hierarchy, delta_escalation=False
        )
        outcomes[label] = processor.execute(
            query,
            Contract(max_relative_error=0.0, time_budget=budget),
        )
    pruned, flat = outcomes["pruned"], outcomes["flat"]
    print(f"== E14b: zero-error contract under budget {budget:g} ==")
    for label, outcome in outcomes.items():
        print(
            f"  {label:>6}: {len(outcome.attempts)} rung(s), "
            f"achieved error {outcome.achieved_error:.3g}, "
            f"cost {outcome.total_cost:g}, "
            f"quality {'met' if outcome.met_quality else 'MISSED'}"
        )
    assert len(pruned.attempts) > len(flat.attempts), (
        "pruning must let the ladder afford more rungs"
    )
    assert pruned.met_quality and pruned.achieved_error == 0.0, (
        "the pruned ladder must reach the exact base rung"
    )
    assert not flat.met_quality, (
        "the flat ladder should not afford the base rung under this budget"
    )
    assert pruned.total_cost <= budget
    print("  pruned ladder reached the exact answer; flat could not ✓")
    return {
        "budget": float(budget),
        "pruned_rungs": len(pruned.attempts),
        "flat_rungs": len(flat.attempts),
        "pruned_error": float(pruned.achieved_error),
        "flat_error": float(flat.achieved_error),
    }


def _unsorted_engine(
    n: int, interest: dict, seed: int, hierarchy: bool = True, **options
) -> SciBorq:
    """``n`` rows loaded in random sky order into an engine whose
    interest attributes are ``interest`` (``options`` go to
    :class:`SciBorq`), with a uniform (n/4, n/20, n/100) hierarchy fed by
    the load unless ``hierarchy`` is off."""
    catalog = Catalog()
    catalog.add_table(
        Table("PhotoObjAll", {"ra": "float64", "dec": "float64", "flux": "float64"})
    )
    engine = SciBorq(catalog, interest_attributes=interest, rng=seed, **options)
    if hierarchy:
        engine.create_hierarchy(
            "PhotoObjAll", policy="uniform", layer_sizes=(n // 4, n // 20, n // 100)
        )
    rng = np.random.default_rng(seed + 1)
    for start in range(0, n, 50_000):
        rows = min(50_000, n - start)
        engine.loader.load_batch(
            "PhotoObjAll",
            {
                "ra": rng.uniform(RA_LO, RA_HI, rows),
                "dec": rng.uniform(DEC_LO, DEC_HI, rows),
                "flux": rng.lognormal(1.0, 0.4, rows),
            },
        )
    return engine


def run_rung_layout_claim(n: int, n_queries: int, seed: int = 20261015):
    """Claim (c): on an unsorted base, cell-ordered rung tables charge
    selective cones ≥2x fewer tuples than id-ordered twins.

    The twin engine's only interest attribute is a column the table
    does not have, so its rows share one cell and its tables keep row-id
    order; both engines draw identical samples from identical loads.
    """
    cells = _unsorted_engine(
        n, {"ra": (RA_LO, RA_HI), "dec": (DEC_LO, DEC_HI)}, seed
    )
    twin = _unsorted_engine(n, {"unrelated": (0.0, 1.0)}, seed)
    ladders = {
        label: BoundedQueryProcessor(engine.catalog, engine.hierarchy("PhotoObjAll"))
        for label, engine in (("cells", cells), ("ids", twin))
    }
    rng = np.random.default_rng(seed + 2)
    radius = 1.5
    charged = {"cells": 0, "ids": 0}
    ratios = []
    print(f"== E14c: {n_queries} cones over the rungs of an unsorted {n}-row base ==")
    for i in range(n_queries):
        query = Query(
            table="PhotoObjAll",
            predicate=RadialPredicate(
                "ra",
                "dec",
                float(rng.uniform(RA_LO + radius, RA_HI - radius)),
                float(rng.uniform(DEC_LO + radius, DEC_HI - radius)),
                radius,
            ),
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "flux")],
        )
        # stop at the largest impression: the rungs, not the base
        contract = Contract.within_error(1e-9)
        outcomes = {}
        for label, processor in ladders.items():
            updates = processor.run(query, contract)
            outcomes[label] = [next(updates) for _ in range(3)]
        rung_tuples = {
            label: sum(u.attempt.delta_rows for u in updates)
            for label, updates in outcomes.items()
        }
        for mine, theirs in zip(outcomes["cells"], outcomes["ids"]):
            assert mine.source == theirs.source
            for name, estimate in theirs.result.estimates.items():
                got = mine.result.estimates[name]
                for field in ("value", "se"):
                    want = getattr(estimate, field)
                    assert abs(getattr(got, field) - want) <= 1e-12 * abs(want), (
                        f"query {i} {mine.source} {name}.{field}"
                    )
        for label in charged:
            charged[label] += rung_tuples[label]
        ratios.append(rung_tuples["ids"] / rung_tuples["cells"])
    ratios = np.asarray(ratios)
    total = charged["ids"] / charged["cells"]
    print(
        f"  rung tuples charged, id order/cell order: total {total:.1f}x "
        f"(per query min {ratios.min():.1f}x mean {ratios.mean():.1f}x)"
    )
    assert total >= 2.0, f"cell-ordered rungs won only {total:.2f}x; need ≥2x"
    assert ratios.min() >= 1.0, "a cone charged a cell-ordered rung more"
    print("  answers equal within 1e-12 on every rung ✓")
    return {
        "n": n,
        "queries": n_queries,
        "rung_tuples_ratio": float(total),
        "rung_tuples_ratio_min": float(ratios.min()),
        "rung_tuples_cells": int(charged["cells"]),
        "rung_tuples_ids": int(charged["ids"]),
    }


def _same_answer(got, want, label: str) -> None:
    """Byte-identical exact answers: scalars by ``float.hex``, rows
    column by column."""
    assert got.exact and want.exact, label
    if want.estimates is not None:
        assert {n: e.value.hex() for n, e in got.estimates.items()} == {
            n: e.value.hex() for n, e in want.estimates.items()
        }, label
    else:
        for name in want.rows.column_names:
            assert got.rows[name].tobytes() == want.rows[name].tobytes(), label


def run_base_cover_claim(n: int, n_queries: int, seed: int = 20261016):
    """Claim (d): on an unsorted base, exact cones and row-query base
    rungs charge ≥3x fewer tuples than on a hierarchy-less twin.

    The hierarchy's largest table and its complement hold every base
    row once, in interest-cell order, so a base scan reads those two
    instead of the load-ordered base; the twin can only scan the base.
    Recycling is off on both, so every query pays its scan.
    """
    interest = {"ra": (RA_LO, RA_HI), "dec": (DEC_LO, DEC_HI)}
    cells = _unsorted_engine(n, interest, seed, recycler_bytes=None)
    twin = _unsorted_engine(n, interest, seed, hierarchy=False, recycler_bytes=None)
    rng = np.random.default_rng(seed + 2)
    radius = 1.5
    charged = {"cells": 0.0, "twin": 0.0}
    ratios = []
    print(f"== E14d: {n_queries} cones x (exact, row query) over an unsorted {n}-row base ==")
    for i in range(n_queries):
        predicate = RadialPredicate(
            "ra",
            "dec",
            float(rng.uniform(RA_LO + radius, RA_HI - radius)),
            float(rng.uniform(DEC_LO + radius, DEC_HI - radius)),
            radius,
        )
        exact = Query(
            table="PhotoObjAll",
            predicate=predicate,
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "flux")],
        )
        rows = Query(
            table="PhotoObjAll", predicate=predicate, select=("ra", "flux"), limit=50
        )
        # the row query climbs every rung; only its base rung is compared
        for query, contract in ((exact, Contract.exact()), (rows, Contract.within_error(0.0))):
            got = cells.execute(query, contract)
            want = twin.execute(query, Contract.exact())
            assert got.attempts[-1].source == "PhotoObjAll"
            _same_answer(got.result, want.result, f"query {i}")
            mine, theirs = got.attempts[-1].cost, want.total_cost
            charged["cells"] += mine
            charged["twin"] += theirs
            ratios.append(theirs / mine)
    ratios = np.asarray(ratios)
    total = charged["twin"] / charged["cells"]
    print(
        f"  base-scan tuples charged, twin/cover: total {total:.1f}x "
        f"(per scan min {ratios.min():.1f}x mean {ratios.mean():.1f}x)"
    )
    assert total >= 3.0, f"the cover won only {total:.2f}x; need ≥3x"
    print("  answers byte-identical on every scan ✓")
    return {
        "n": n,
        "queries": n_queries,
        "tuples_ratio": float(total),
        "tuples_ratio_min": float(ratios.min()),
        "tuples_cover": int(charged["cells"]),
        "tuples_twin": int(charged["twin"]),
    }


def fanned_select(table: Table, predicate, pool: MorselPool) -> np.ndarray:
    """:func:`~repro.columnstore.operators.select`'s indices with its
    morsels fanned over ``pool`` and merged in order: the fan-out arm."""
    runs = operators.scan_plan(table, predicate)[0]
    fragments = pool.map(
        lambda morsel: operators._scan_morsel(table, predicate, morsel, False),
        operators._morsels(runs),
    )
    return np.concatenate(fragments) if fragments else np.empty(0, dtype=np.int64)


def _two_sessions(scan, predicates) -> float:
    """Wall seconds for two threads, started together, to each run
    ``scan`` over their half of ``predicates``."""
    barrier = threading.Barrier(3)

    def session(mine):
        barrier.wait()
        for predicate in mine:
            scan(predicate)

    threads = [
        threading.Thread(target=session, args=(predicates[i::2],)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def run_fanout_claim(n: int, scans: int, rounds: int, seed: int = 20261017):
    """Claim (e): fanned morsels return the caller-thread scan's indices;
    record the fan-out's wall time over the caller thread's.

    Predicates are ranges of the unclustered ``dec``, so nothing prunes
    and every scan reads all ``n`` rows.  The two arms alternate order
    for ``rounds`` rounds and each keeps its median.
    """
    rng = np.random.default_rng(seed)
    table = Table(
        "PhotoObjAll",
        [
            Column("ra", "float64", rng.uniform(RA_LO, RA_HI, n)),
            Column("dec", "float64", rng.uniform(DEC_LO, DEC_HI, n)),
        ],
    )
    lows = rng.uniform(DEC_LO, DEC_HI - 5.0, scans)
    predicates = [Between("dec", float(lo), float(lo) + 5.0) for lo in lows]
    morsels = len(operators._morsels(operators.scan_plan(table, predicates[0])[0]))
    pool = MorselPool()
    print(
        f"== E14e: 2 sessions x {scans // 2} scans of {n} rows "
        f"({morsels} morsels each), caller thread vs "
        f"{pool.max_workers}-thread fan-out =="
    )
    try:
        for i, predicate in enumerate(predicates):
            want = operators.select(table, predicate)[0]
            got = fanned_select(table, predicate, pool)
            assert got.tobytes() == want.tobytes(), f"scan {i}: fan-out differs"
        arms = {
            "caller": lambda predicate: operators.select(table, predicate),
            "fanout": lambda predicate: fanned_select(table, predicate, pool),
        }
        walls = {label: [] for label in arms}
        for r in range(rounds):
            order = list(arms) if r % 2 == 0 else list(arms)[::-1]
            for label in order:
                walls[label].append(_two_sessions(arms[label], predicates))
    finally:
        pool.shutdown()
    caller, fanout = (float(np.median(walls[label])) for label in ("caller", "fanout"))
    ratio = fanout / caller
    print(
        f"  wall s (median of {rounds}): caller {caller:.3f}, fan-out {fanout:.3f}; "
        f"fan-out / caller {ratio:.2f} on {os.cpu_count()} CPU(s) (recorded, not gated)"
    )
    print("  fanned morsels byte-identical to the caller-thread scan on every scan ✓")
    return {
        "n": n,
        "sessions": 2,
        "scans": scans,
        "morsels_per_scan": morsels,
        "pool_workers": pool.max_workers,
        "cpus": os.cpu_count(),
        "caller_wall_s": caller,
        "fanout_wall_s": fanout,
        "fanout_wall_ratio": ratio,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI: same claims, seconds not minutes",
    )
    args = parser.parse_args()
    if args.smoke:
        n, block_size, n_queries = 20_000, 1_024, 8
        layer_sizes = (2_000, 200)
        layout_rows = 200_000
        fanout_scans, fanout_rounds = 16, 5
    else:
        n, block_size, n_queries = 200_000, 8_192, 24
        layer_sizes = (5_000, 500)
        layout_rows = 1_000_000
        fanout_scans, fanout_rounds = 24, 7
    pruned_catalog, flat_catalog, rng = build_store(n, block_size)
    print(
        f"zone-map benchmark: n={n} block_size={block_size} "
        f"({'smoke' if args.smoke else 'full'})"
    )
    pruning = run_pruning_claim(pruned_catalog, flat_catalog, rng, n_queries)
    budget = run_budget_claim(pruned_catalog, flat_catalog, rng, layer_sizes)
    layout = run_rung_layout_claim(layout_rows, n_queries)
    cover = run_base_cover_claim(layout_rows, n_queries)
    scan = run_fanout_claim(1_000_000, fanout_scans, fanout_rounds)
    write_bench_report(
        "zone_maps",
        {
            "n": n,
            "block_size": block_size,
            "pruning": pruning,
            "budget": budget,
            "rung_layout": layout,
            "base_cover": cover,
            "scan": scan,
        },
    )
    print("all zone-map claims hold ✓")


if __name__ == "__main__":
    main()
