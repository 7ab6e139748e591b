"""E16 — tiered column blocks shrink the footprint, honestly.

SciBORQ's contracts trade accuracy for runtime; the tiered block store
(ROADMAP item 11) applies the same formalism to memory.  Blocks live
hot (raw), warm (error-bounded int8 quantisation), or cold (mmap-backed
raw spill), and a governor demotes the least-recently-scanned blocks
to fit a byte budget.  Five claims:

(a) **footprint** — demoted blocks occupy ≥4x less RAM than their raw
    bytes (int8 codes are 8x smaller than float64; cold is free);
(b) **honesty** — estimates that read warm base blocks carry the
    recorded quantisation bound in ``Estimate.value_error``, and the
    achieved error stays within that declared bound;
(c) **byte-identity** — all-hot answers and ``Contract.exact()``
    answers (which read demoted blocks' raw bytes from the spill and
    change no tier) are byte-identical to the pre-demotion engine;
(d) **pruning across tiers** — zone maps fold from raw values before
    any demotion, so pruning decisions are identical at every tier and
    pruned blocks are never decompressed;
(e) **exact impressions under a budget** — rung, delta and complement
    tables gather raw base values from any tier, so under a governor
    every impression rung answers as on an unbudgeted engine, and an
    exact cone still selects through the base cover: ≥3x fewer tuples
    than a hierarchy-less twin's base scan, byte-identical answers.
    Over that replayed stream no exact query promotes a block
    (``exact.promotions``) and, once the working set fits, the governor
    demotes nothing (``budgeted.demotions_after_fit``): no reader undoes
    its work.

Run standalone: ``python benchmarks/bench_memory.py [--smoke]``.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.bench.report import write_bench_report
from repro.columnstore import operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.expressions import Between, RadialPredicate
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.table import Table
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.governor import MemoryGovernor
from repro.core.impression import PI_COLUMN

RA_LO, RA_HI = 120.0, 240.0
DEC_LO, DEC_HI = -5.0, 25.0


def build_engine(n: int, block_size: int, layer_sizes, seed: int = 20260808):
    """A SkyServer-shaped engine with stripe-ordered (prunable) ra."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add_table(
        Table(
            "PhotoObjAll",
            [
                Column("ra", "float64", block_size=block_size),
                Column("dec", "float64", block_size=block_size),
                Column("flux", "float64", block_size=block_size),
            ],
        )
    )
    engine = SciBorq(
        catalog,
        interest_attributes={"ra": (RA_LO, RA_HI), "dec": (DEC_LO, DEC_HI)},
        rng=9,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=layer_sizes
    )
    engine.loader.load_batch(
        "PhotoObjAll",
        {
            "ra": np.sort(rng.uniform(RA_LO, RA_HI, n)),
            "dec": rng.uniform(DEC_LO, DEC_HI, n),
            "flux": rng.lognormal(1.0, 0.4, n),
        },
    )
    return engine


def cone_avg() -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate(
            "ra", "dec", 0.5 * (RA_LO + RA_HI), 10.0, 12.0
        ),
        aggregates=[AggregateSpec("avg", "flux"), AggregateSpec("sum", "flux")],
    )


def demoted_block_reduction(table: Table) -> float:
    """RAM reduction ratio summed over every demoted block."""
    raw_bytes = 0
    ram_bytes = 0
    for name in table.column_names:
        column = table.column(name)
        block_raw = column.block_size * column.dtype.itemsize
        for block, tier, _, ram in column.block_report():
            if tier != "hot":
                raw_bytes += block_raw
                ram_bytes += ram
    if raw_bytes == 0:
        return 1.0
    return raw_bytes / max(ram_bytes, 1)


def run_footprint_claim(engine: SciBorq):
    """Claim (a): the governor lands ≥4x under the raw bytes it evicted."""
    before = engine.memory_report()
    budget = int(before["ram_total"] * 0.35)
    governor = MemoryGovernor(budget)
    engine.set_memory_governor(governor)
    after = engine.memory_report()
    table = engine.catalog.table("PhotoObjAll")
    reduction = demoted_block_reduction(table)
    demoted = sum(
        count
        for name in table.column_names
        for tier, count in table.column(name).block_tiers().items()
        if tier != "hot"
    )
    print(f"== E16a: budget {budget} B vs hot footprint {before['ram_total']} B ==")
    print(
        f"  demoted {demoted} blocks; RAM {before['ram_total']} -> "
        f"{after['ram_total']} B; per-block reduction {reduction:.1f}x"
    )
    assert demoted > 0, "the budget must force demotions"
    assert after["ram_total"] <= budget, "governor must land under budget"
    assert reduction >= 4.0, (
        f"demoted blocks shrank only {reduction:.2f}x; need >=4x"
    )
    print("  demoted blocks >=4x smaller in RAM ✓")
    return {
        "budget_bytes": budget,
        "ram_before": int(before["ram_total"]),
        "ram_after": int(after["ram_total"]),
        "blocks_demoted": int(demoted),
        "reduction_ratio": float(reduction),
        "demotions_warm": governor.stats.demotions_warm,
        "demotions_cold": governor.stats.demotions_cold,
    }


def run_honesty_claim(engine: SciBorq, truth: dict):
    """Claim (b): estimates that read warm base blocks stay inside the
    declared bound.

    Impression tables hold raw values whatever the base's tiers (claim
    (e)), so the reader of warm blocks is the base rung of a
    from-scratch climb, which reads its carried column from the base
    itself.
    """
    table = engine.catalog.table("PhotoObjAll")
    table.promote_all()  # undo claim (a): flux alone is warm below
    flux = table.column("flux")
    for block in range(flux.num_blocks):
        flux.demote(block, "warm")
    delta = flux.max_value_error()
    assert delta > 0.0, "quantisation must have a nonzero recorded bound"
    processor = BoundedQueryProcessor(
        engine.catalog, engine.hierarchy("PhotoObjAll"), delta_escalation=False
    )
    *_, last = processor.run(cone_avg(), Contract.within_error(0.0))
    assert last.source == "PhotoObjAll", "the climb reaches the base"
    estimates = last.result.estimates
    print(f"== E16b: base rung over warm flux (bound {delta:.3g}) ==")
    checked = 0
    for name in ("avg(flux)", "sum(flux)"):
        estimate = estimates[name]
        achieved = abs(estimate.value - truth[name])
        print(
            f"  {name}: value {estimate.value:.6g} vs truth "
            f"{truth[name]:.6g}; declared value_error {estimate.value_error:.3g}, "
            f"half-width {estimate.half_width:.3g}"
        )
        assert estimate.value_error > 0.0, (
            f"{name} must carry the quantisation bound"
        )
        assert estimate.half_width >= estimate.value_error, (
            "the declared bound must ride the CI"
        )
        assert achieved <= estimate.half_width, (
            f"{name}: achieved error {achieved:.3g} exceeds the declared "
            f"half-width {estimate.half_width:.3g}"
        )
        checked += 1
    print("  achieved error within the declared bound ✓")
    return {
        "quantisation_bound": float(delta),
        "estimates_checked": checked,
        "declared_relative_error": float(last.achieved_error),
    }


def block_tiers(table: Table) -> dict:
    """Every column's block tiers, in block order."""
    return {
        name: [table.column(name).tier_of(b) for b in range(table.num_blocks)]
        for name in table.column_names
    }


def promoted_blocks(before: dict, after: dict) -> int:
    """Blocks demoted in ``before`` and hot in ``after``."""
    return sum(
        old != "hot" and new == "hot"
        for name in before
        for old, new in zip(before[name], after[name])
    )


def run_identity_claim(engine: SciBorq, truth: dict):
    """Claim (c): exact contracts read raw bytes from the spill, change
    no tier, and match all-hot bytes."""
    table = engine.catalog.table("PhotoObjAll")
    assert not table.column("flux").is_fully_hot  # claim (b) demoted it
    before = block_tiers(table)
    outcome = engine.execute(cone_avg(), contract=Contract.exact())
    estimates = outcome.result.estimates
    print("== E16c: Contract.exact() over the demoted table ==")
    for name, exact_value in truth.items():
        estimate = estimates[name]
        assert estimate.value == exact_value, (
            f"{name}: exact answer drifted after demotion"
        )
        assert estimate.value_error == 0.0 and estimate.method == "exact"
    assert block_tiers(table) == before, "exact must read the spill, not promote"
    print("  byte-identical to the pre-demotion answer, no tier changed ✓")
    return {"estimates_identical": len(truth), "tiers_unchanged": True}


def run_pruning_claim(n: int, block_size: int, seed: int = 4):
    """Claim (d): identical pruning at every tier, pruned = undecompressed."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1000.0, n))

    def make() -> Table:
        return Table("t", [Column("x", "float64", x, block_size=block_size)])

    hot, tiered = make(), make()
    col = tiered.column("x")
    for block in range(col.num_blocks - 1):
        col.demote(block, "warm" if block % 2 == 0 else "cold")
    predicate = Between("x", 400.0, 480.0)
    plan_hot = operators.scan_plan(hot, predicate)
    plan_tiered = operators.scan_plan(tiered, predicate)
    assert plan_tiered == plan_hot, "pruning decisions must not depend on tier"
    _, _, blocks_scanned, blocks_pruned = plan_hot
    assert blocks_pruned > 0, "the predicate must actually prune"
    before = col.decompressions
    hot_idx, _ = operators.select(hot, predicate)
    tiered_idx, stats = operators.select(tiered, predicate)
    decompressions = col.decompressions - before
    print(f"== E16d: pruned scan over {col.num_blocks} blocks ==")
    print(
        f"  {blocks_pruned} pruned / {blocks_scanned} scanned; "
        f"{decompressions} decompressions charged"
    )
    assert decompressions <= blocks_scanned, (
        "pruned blocks must never be decompressed"
    )
    # cold is lossless, and warm only moves values within a half-cell;
    # count the disagreement to show it is bounded, not silent
    agreement = len(set(hot_idx) & set(tiered_idx)) / max(len(hot_idx), 1)
    assert stats.blocks_pruned == blocks_pruned
    print(f"  selection agreement vs hot: {agreement:.4f} ✓")
    return {
        "blocks_pruned": int(blocks_pruned),
        "blocks_scanned": int(blocks_scanned),
        "decompressions": int(decompressions),
        "selection_agreement": float(agreement),
    }


def build_unsorted_engine(
    n: int, block_size: int, seed: int, hierarchy: bool = True
) -> SciBorq:
    """``n`` rows in random sky order — the base prunes no cone — with a
    uniform (n/4, n/20) hierarchy laid out by (ra, dec) cell unless
    ``hierarchy`` is off; no selection cache, so every query pays its
    scans.  Engines of one seed hold identical data and samples."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add_table(
        Table(
            "PhotoObjAll",
            [
                Column(name, "float64", block_size=block_size)
                for name in ("ra", "dec", "flux")
            ],
        )
    )
    engine = SciBorq(
        catalog,
        interest_attributes={"ra": (RA_LO, RA_HI), "dec": (DEC_LO, DEC_HI)},
        recycler_bytes=None,
        rng=seed + 1,
    )
    if hierarchy:
        engine.create_hierarchy(
            "PhotoObjAll", policy="uniform", layer_sizes=(n // 4, n // 20)
        )
    engine.loader.load_batch(
        "PhotoObjAll",
        {
            "ra": rng.uniform(RA_LO, RA_HI, n),
            "dec": rng.uniform(DEC_LO, DEC_HI, n),
            "flux": rng.lognormal(1.0, 0.4, n),
        },
    )
    return engine


def rung_answers(engine: SciBorq, query: Query) -> list:
    """``(source, estimates)`` of every impression rung of a climb to
    the base."""
    return [
        (update.source, update.result.estimates)
        for update in engine.submit(query, Contract.within_error(1e-9))
        if update.source != "PhotoObjAll" and update.result is not None
    ]


def run_budget_claim(n: int, block_size: int, n_queries: int, seed: int = 20261016):
    """Claim (e): under a budget, impressions stay exact copies.

    Three engines of one seed: one under a governor at a third of its
    hot footprint (enforced after every query, as the server does), one
    unbudgeted, one without a hierarchy.  Every impression rung of a
    climb answers exactly as on the unbudgeted engine; an exact cone
    selects through the base cover of the budgeted engine and charges
    ≥3x fewer tuples than the hierarchy-less twin's base scan, answering
    byte for byte like it; and no derived-table column declares a value
    error.  Two work counters ride along: the blocks the exact cones
    promoted, and the governor's demotions after the first cone's
    climb and exact answer fitted the working set.
    """
    budgeted = build_unsorted_engine(n, block_size, seed)
    unbudgeted = build_unsorted_engine(n, block_size, seed)
    twin = build_unsorted_engine(n, block_size, seed, hierarchy=False)
    budget = int(budgeted.memory_report()["ram_total"] / 3)
    budgeted.set_memory_governor(MemoryGovernor(budget))
    base = budgeted.catalog.table("PhotoObjAll")
    rng = np.random.default_rng(seed + 2)
    radius = 1.5
    rungs = 0
    charged = {"cover": 0.0, "twin": 0.0}
    promotions = 0
    governor = budgeted.memory_governor

    def demotions() -> int:
        return governor.stats.demotions_warm + governor.stats.demotions_cold

    fitted = None
    print(f"== E16e: {n_queries} cones over an unsorted {n}-row base, budget {budget} B ==")
    for i in range(n_queries):
        predicate = RadialPredicate(
            "ra",
            "dec",
            float(rng.uniform(RA_LO + radius, RA_HI - radius)),
            float(rng.uniform(DEC_LO + radius, DEC_HI - radius)),
            radius,
        )
        query = Query(
            table="PhotoObjAll",
            predicate=predicate,
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "flux")],
        )
        answers = [rung_answers(engine, query) for engine in (budgeted, unbudgeted)]
        budgeted.enforce_memory()
        assert answers[0] == answers[1], f"query {i}: a rung moved under the budget"
        rungs += len(answers[0])
        before = block_tiers(base)
        got = budgeted.execute(query, Contract.exact())
        promotions += promoted_blocks(before, block_tiers(base))
        budgeted.enforce_memory()
        if fitted is None:
            fitted = demotions()
        want = twin.execute(query, Contract.exact())
        assert got.result.exact and want.result.exact, f"query {i}"
        assert {k: e.value.hex() for k, e in got.result.estimates.items()} == {
            k: e.value.hex() for k, e in want.result.estimates.items()
        }, f"query {i}: exact answers differ"
        charged["cover"] += got.total_cost
        charged["twin"] += want.total_cost
    hierarchy = budgeted.hierarchy("PhotoObjAll")
    derived = [layer.materialise(base) for layer in hierarchy.layers]
    derived.append(hierarchy.layer(0).materialise_complement(base))
    worst = max(
        table.column(name).max_value_error()
        for table in derived
        for name in table.column_names
        if name != PI_COLUMN
    )
    demoted = sum(not base.column(name).is_fully_hot for name in ("ra", "dec"))
    ratio = charged["twin"] / charged["cover"]
    print(
        f"  {rungs} impression rungs identical to the unbudgeted engine's; "
        f"derived-table value error {worst:g}"
    )
    demotions_after_fit = demotions() - fitted
    print(
        f"  exact cones: twin/cover tuples {ratio:.1f}x with "
        f"{demoted} of 2 predicate columns left demoted"
    )
    print(
        f"  exact cones promoted {promotions} blocks; the governor demoted "
        f"{demotions_after_fit} after the first fit"
    )
    assert worst == 0.0, "a derived table declared a value error"
    assert demoted > 0, "the budget must leave predicate blocks demoted"
    assert ratio >= 3.0, f"the cover won only {ratio:.2f}x under the budget; need ≥3x"
    print("  exact answers byte-identical to the twin's ✓")
    return promotions, {
        "n": n,
        "queries": n_queries,
        "budget_bytes": budget,
        "rungs_identical": rungs,
        "derived_value_error": float(worst),
        "exact_tuples_ratio": float(ratio),
        "exact_tuples_cover": int(charged["cover"]),
        "exact_tuples_twin": int(charged["twin"]),
        "demotions_after_fit": int(demotions_after_fit),
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
        n, block_size = 24_000, 1_024
        layer_sizes = (2_000, 200)
        budget_rows, budget_block, n_queries = 100_000, 8_192, 6
    else:
        n, block_size = 200_000, 8_192
        layer_sizes = (5_000, 500)
        budget_rows, budget_block, n_queries = 1_000_000, 65_536, 16
    engine = build_engine(n, block_size, layer_sizes)
    print(
        f"memory-tier benchmark: n={n} block_size={block_size} "
        f"({'smoke' if args.smoke else 'full'})"
    )
    exact = engine.execute_exact(cone_avg())
    truth = {name: exact.scalars[name] for name in ("avg(flux)", "sum(flux)")}
    footprint = run_footprint_claim(engine)
    engine.set_memory_governor(None)  # manual tiering from here on
    honesty = run_honesty_claim(engine, truth)
    identity = run_identity_claim(engine, truth)
    pruning = run_pruning_claim(n, block_size)
    promotions, budgeted = run_budget_claim(budget_rows, budget_block, n_queries)
    write_bench_report(
        "memory",
        {
            "n": n,
            "block_size": block_size,
            "footprint": footprint,
            "honesty": honesty,
            "identity": identity,
            "pruning": pruning,
            "budgeted": budgeted,
            "exact": {"promotions": int(promotions)},
        },
    )
    print("all memory-tier claims hold ✓")


if __name__ == "__main__":
    main()
