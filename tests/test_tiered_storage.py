"""Tests for tiered block storage and the memory governor.

The contract under test (ROADMAP item 11): a column's blocks may live
hot (raw ndarray), warm (error-bounded int8/int16 quantisation), or
cold (mmap-backed raw spill) — and the engine stays *honest* about
it.  All-hot answers are byte-identical to the pre-tiering engine;
impression tables gathered after a demotion still hold the raw base
values; answers reading warm base blocks carry the recorded pointwise
bound in
``Estimate.value_error``; exact contracts read demoted blocks' raw
bytes from the spill, changing no tier, so their answers are
byte-identical again; and
zone-map pruning (zones fold from raw values before any demotion)
makes identical decisions at every tier without decompressing pruned
blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import AggregateSpec, Catalog, Query, Table
from repro.columnstore import operators
from repro.columnstore.column import Column
from repro.columnstore.expressions import Between
from repro.columnstore.recycler import Recycler
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.impression import PI_COLUMN
from repro.core.governor import PROMOTE_HEADROOM, MemoryGovernor
from repro.core.server import SciBorqServer
from repro.errors import SchemaError
from repro.util.concurrency import ReadWriteLock
from tier_oracle import walked_nbytes_by_tier

BS = 64  # block size used throughout: small enough for many blocks


def float_column(n: int = 4 * BS + 10, seed: int = 11) -> Column:
    rng = np.random.default_rng(seed)
    return Column("x", "float64", rng.uniform(-50.0, 150.0, n), block_size=BS)


def tiered_table(n: int = 6 * BS, seed: int = 3) -> Table:
    """A table whose x is sorted, so zones are tight and prunable."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 600.0, n))
    y = rng.normal(10.0, 2.0, n)
    return Table(
        "fact",
        [
            Column("id", "int64", np.arange(n), block_size=BS),
            Column("x", "float64", x, block_size=BS),
            Column("y", "float64", y, block_size=BS),
        ],
    )


def tiered_engine(n: int = 6 * BS, seed: int = 3) -> SciBorq:
    catalog = Catalog()
    catalog.add_table(
        Table(
            "fact",
            [
                Column("id", "int64", block_size=BS),
                Column("x", "float64", block_size=BS),
                Column("y", "float64", block_size=BS),
            ],
        )
    )
    engine = SciBorq(
        catalog, interest_attributes={"x": (0.0, 600.0)}, rng=17
    )
    engine.create_hierarchy("fact", policy="uniform", layer_sizes=(64,))
    source = tiered_table(n, seed)
    engine.loader.load_batch(
        "fact",
        {name: source.column(name).values for name in ("id", "x", "y")},
    )
    return engine


# ----------------------------------------------------------------------
# Column: demote / promote mechanics
# ----------------------------------------------------------------------
class TestDemotePromote:
    def test_warm_block_dequantises_within_recorded_bound(self):
        col = float_column()
        original = col.values.copy()
        assert col.demote(0, "warm")
        assert col.tier_of(0) == "warm"
        bound = col.block_value_error(0)
        span = original[:BS].max() - original[:BS].min()
        assert 0.0 < bound <= span / 255 / 2 + 1e-9
        got = col.read_range(0, BS)
        assert np.abs(got - original[:BS]).max() <= bound

    def test_16_bit_warm_is_tighter_than_8_bit(self):
        a, b = float_column(seed=5), float_column(seed=5)
        a.demote(0, "warm", bits=8)
        b.demote(0, "warm", bits=16)
        assert 0.0 < b.block_value_error(0) < a.block_value_error(0)

    def test_cold_block_reads_byte_identical(self):
        col = float_column()
        original = col.values.copy()
        assert col.demote(1, "cold")
        assert col.tier_of(1) == "cold"
        assert col.block_value_error(1) == 0.0
        np.testing.assert_array_equal(col.read_range(BS, 2 * BS), original[BS : 2 * BS])

    def test_promotion_restores_exact_bytes_after_any_chain(self):
        col = float_column()
        original = col.values.copy()
        col.demote(0, "warm")
        col.demote(0, "cold")  # warm → cold uses the spilled raw bytes
        col.demote(1, "cold")
        col.demote(2, "warm")
        assert col.promote_all() == 3
        assert col.is_fully_hot
        np.testing.assert_array_equal(col.values, original)

    def test_partial_tail_block_never_demotes(self):
        col = float_column(n=2 * BS + 7)
        assert not col.demote(2, "warm")
        assert not col.demote(2, "cold")
        assert col.tier_of(2) == "hot"

    def test_demote_is_idempotent_and_promote_reports_change(self):
        col = float_column()
        assert col.demote(0, "warm")
        assert not col.demote(0, "warm")  # already there
        assert col.promote(0)
        assert not col.promote(0)  # already hot
        assert col.demote(0, "warm")  # demotable again after promotion

    def test_unquantisable_blocks_fall_through_to_cold(self):
        ints = Column("id", "int64", np.arange(3 * BS), block_size=BS)
        hidden = Column(
            "_pi", "float64", np.full(3 * BS, 0.25), block_size=BS
        )
        nans = Column("x", "float64", np.arange(3.0 * BS), block_size=BS)
        with_nan = nans.values.copy()
        # cannot mutate a sealed column's values in place; rebuild
        with_nan[5] = np.nan
        nans = Column("x", "float64", with_nan, block_size=BS)
        for col in (ints, hidden, nans):
            assert col.demote(0, "warm")
            assert col.tier_of(0) == "cold"  # lossless fallback
            assert col.block_value_error(0) == 0.0
        assert not ints.quantisable and not hidden.quantisable

    def test_constant_block_quantises_with_zero_error(self):
        col = Column("x", "float64", np.full(2 * BS, 7.5), block_size=BS)
        assert col.demote(0, "warm")
        assert col.tier_of(0) == "warm"
        assert col.block_value_error(0) == 0.0
        np.testing.assert_array_equal(col.read_range(0, BS), np.full(BS, 7.5))

    def test_appends_keep_working_after_demotion(self):
        col = float_column(n=2 * BS)
        original = col.values.copy()
        col.demote(0, "warm")
        col.extend(np.arange(float(BS + 3)))
        assert len(col) == 3 * BS + 3
        col.promote_all()
        np.testing.assert_array_equal(col.values[: 2 * BS], original)
        np.testing.assert_array_equal(
            col.values[2 * BS :], np.arange(float(BS + 3))
        )

    def test_gather_reports_touched_block_error_only(self):
        col = float_column()
        original = col.values.copy()
        col.demote(0, "warm")
        bound = col.block_value_error(0)
        # indices entirely inside hot blocks: exact, zero error
        hot_idx = np.arange(BS, 2 * BS)
        got, err = col.gather_with_error(hot_idx)
        assert err == 0.0
        np.testing.assert_array_equal(got, original[hot_idx])
        # indices touching the warm block: its bound is reported
        mixed_idx = np.array([0, 5, BS + 1])
        got, err = col.gather_with_error(mixed_idx)
        assert err == bound
        assert np.abs(got - original[mixed_idx]).max() <= bound

    def test_gather_returns_raw_values_from_every_tier(self):
        col = float_column()
        original = col.values.copy()
        col.demote(0, "warm")
        col.demote(1, "cold")
        idx = np.array([BS + 3, 2, 3 * BS + 1, 4 * BS + 5, 0])  # cold, warm, hot, tail
        assert col.gather(idx).tobytes() == original[idx].tobytes()
        got, err = col.gather_with_error(idx, raw=True)
        assert got.tobytes() == original[idx].tobytes() and err == 0.0
        assert col.tier_of(0) == "warm" and col.tier_of(1) == "cold"  # nothing promoted

    def test_take_carries_value_error_floor(self):
        col = float_column()
        col.demote(0, "warm")
        bound = col.block_value_error(0)
        taken = col.take(np.array([1, 2, 3]))
        assert taken.max_value_error() == bound


class TestFootprint:
    def test_warm_tier_shrinks_block_at_least_4x(self):
        col = float_column(n=4 * BS)
        hot = col.nbytes()
        for block in range(4):
            assert col.demote(block, "warm")
        assert col.nbytes() * 4 <= hot  # float64 → int8 is 8×
        tiers = col.nbytes_by_tier()
        assert tiers["hot"] == 0 and tiers["warm"] > 0
        assert tiers["cold"] == 0

    def test_cold_tier_frees_all_ram_and_reports_spill(self):
        col = float_column(n=2 * BS)
        for block in range(2):
            col.demote(block, "cold")
        assert col.nbytes() == 0
        assert col.nbytes_by_tier()["cold"] == 2 * BS * 8

    def test_table_aggregates_per_tier(self):
        table = tiered_table()
        assert table.is_fully_hot
        table.column("x").demote(0, "warm")
        table.column("y").demote(0, "cold")
        assert not table.is_fully_hot
        tiers = table.nbytes_by_tier()
        assert tiers["warm"] > 0 and tiers["cold"] > 0
        assert table.max_value_error() == table.column("x").block_value_error(0)
        table.promote_all()
        assert table.is_fully_hot and table.max_value_error() == 0.0

    @given(
        dtype=st.sampled_from(["float64", "float32", "int64"]),
        initial=st.integers(0, 3 * BS),
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("extend"), st.integers(0, 2 * BS + 3)),
                st.tuples(st.just("append"), st.integers(1, 3)),
                st.tuples(
                    st.just("demote"),
                    st.integers(0, 8),
                    st.sampled_from(["warm", "cold"]),
                    st.sampled_from([8, 16]),
                ),
                st.tuples(st.just("promote"), st.integers(0, 8)),
                st.tuples(st.just("promote_all")),
            ),
            max_size=25,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_tier_tally_is_a_fresh_block_walk(self, dtype, initial, operations):
        """Whatever mix of appends and tier moves a column went
        through, its tallied bytes equal a walk over every block."""
        rng = np.random.default_rng(initial)
        col = Column("x", dtype, (rng.uniform(-50, 150, initial)).astype(dtype), block_size=BS)
        for operation in operations:
            kind = operation[0]
            if kind == "extend":
                col.extend(rng.uniform(-50, 150, operation[1]).astype(dtype))
            elif kind == "append":
                for value in rng.uniform(-50, 150, operation[1]).astype(dtype):
                    col.extend(np.array([value]))
            elif kind == "demote":
                col.demote(operation[1], operation[2], operation[3])
            elif kind == "promote":
                col.promote(operation[1])
            else:
                col.promote_all()
            walked = walked_nbytes_by_tier(col)
            assert col.nbytes_by_tier() == walked
            assert col.nbytes() == walked["hot"] + walked["warm"]
            assert col.is_fully_hot == all(
                col.tier_of(block) == "hot" for block in range(col.num_blocks)
            )
            assert col.max_value_error() == max(
                [col.block_value_error(b) for b in range(col.num_blocks)], default=0.0
            )
            assert sum(col.block_nbytes(b) for b in range(col.num_blocks)) == (
                walked["hot"] + walked["warm"]
            )


# ----------------------------------------------------------------------
# Scans: pruning identical across tiers, decompressions charged honestly
# ----------------------------------------------------------------------
class TestTieredScans:
    def test_pruning_decisions_identical_across_tiers(self):
        hot = tiered_table()
        demoted = tiered_table()
        predicate = Between("x", 150.0, 250.0)
        plan_hot = operators.scan_plan(hot, predicate)
        for block in range(demoted.num_blocks - 1):
            demoted.column("x").demote(block, "warm")
            demoted.column("y").demote(block, "cold")
        assert operators.scan_plan(demoted, predicate) == plan_hot
        assert plan_hot[3] > 0  # the predicate actually prunes something

    def test_pruned_blocks_are_never_decompressed(self):
        table = tiered_table()
        x = table.column("x")
        for block in range(table.num_blocks - 1):
            x.demote(block, "warm")
        predicate = Between("x", 150.0, 250.0)
        runs, _, blocks_scanned, blocks_pruned = operators.scan_plan(
            table, predicate
        )
        assert blocks_pruned > 0
        before = x.decompressions
        indices, stats = operators.select(table, predicate)
        assert stats.blocks_pruned == blocks_pruned
        # only surviving blocks paid a decompression
        assert x.decompressions - before <= blocks_scanned

    def test_selection_indices_match_hot_within_bound(self):
        hot = tiered_table()
        warm = tiered_table()
        for block in range(warm.num_blocks - 1):
            warm.column("x").demote(block, "warm")
        bound = warm.column("x").max_value_error()
        # a predicate whose edges sit far from any quantisation cell
        predicate = Between("x", 150.0 - 2 * bound, 250.0 + 2 * bound)
        hot_idx, _ = operators.select(hot, predicate)
        inner = Between("x", 150.0 + 2 * bound, 250.0 - 2 * bound)
        inner_idx, _ = operators.select(warm, inner)
        assert set(inner_idx).issubset(set(hot_idx))

    def test_all_hot_scan_pays_zero_decompressions(self):
        table = tiered_table()
        indices, _ = operators.select(table, Between("x", 100.0, 300.0))
        assert table.column("x").decompressions == 0
        assert indices.size > 0


# ----------------------------------------------------------------------
# Contract-honest execution
# ----------------------------------------------------------------------
class TestContractHonesty:
    def cone(self) -> Query:
        return Query(
            table="fact",
            predicate=Between("x", 100.0, 420.0),
            aggregates=[AggregateSpec("sum", "y"), AggregateSpec("avg", "y")],
        )

    def test_all_hot_estimates_carry_zero_value_error(self):
        engine = tiered_engine()
        outcome = engine.execute(self.cone(), contract=Contract())
        for estimate in outcome.result.estimates.values():
            assert estimate.value_error == 0.0

    def test_exact_contract_reads_raw_matching_pre_demotion(self):
        engine = tiered_engine()
        exact_before = engine.execute(self.cone(), contract=Contract.exact())
        table = engine.catalog.table("fact")
        for name in ("x", "y"):
            for block in range(table.num_blocks - 1):
                table.column(name).demote(block, "warm")
        assert not table.is_fully_hot
        tiers = {
            name: [table.column(name).tier_of(b) for b in range(table.num_blocks)]
            for name in table.column_names
        }
        exact_after = engine.execute(self.cone(), contract=Contract.exact())
        for name, estimate in exact_before.result.estimates.items():
            after = exact_after.result.estimates[name]
            assert after.value == estimate.value  # byte-identical
            assert after.value_error == 0.0
            assert after.method == "exact"
        # the touched columns were read raw from the spill: every
        # block's tier is unchanged
        assert tiers == {
            name: [table.column(name).tier_of(b) for b in range(table.num_blocks)]
            for name in table.column_names
        }

    def test_execute_exact_matches_too(self):
        engine = tiered_engine()
        before = engine.execute_exact(self.cone())
        table = engine.catalog.table("fact")
        for block in range(table.num_blocks - 1):
            table.column("y").demote(block, "warm")
        after = engine.execute_exact(self.cone())
        assert after.scalars == before.scalars

    def test_exact_aggregate_never_decompresses_a_column_it_does_not_read(self):
        # regression: the selection gathered every column of the
        # matching rows, so demoted blocks of a column neither promoted
        # nor read were dequantised / spill-read on every exact query
        engine = tiered_engine()
        table = engine.catalog.table("fact")
        unread = table.column("id")
        for block in range(table.num_blocks - 1):
            assert unread.demote(block, "cold")
        before = unread.decompressions
        outcome = engine.execute(
            Query(
                table="fact",
                predicate=Between("x", 100.0, 420.0),
                aggregates=[AggregateSpec("count"), AggregateSpec("avg", "y")],
            ),
            contract=Contract.exact(),
        )
        assert outcome.result.exact
        assert unread.decompressions == before
        assert not unread.is_fully_hot

    def test_exact_never_reuses_a_selection_evaluated_over_quantised_blocks(
        self,
    ):
        """A bounded ladder that reached the base rung over warm blocks
        leaves its selection in the cache — same table object, same
        version, same fingerprint.  Promotion changes none of them, so
        the exact query used to be served the lossy vector."""
        from repro.core.scheduler import SharedScanScheduler

        query = Query(
            table="fact",
            predicate=Between("x", 100.3, 400.7),
            select=("id", "x"),
        )
        truth = tiered_engine(n=20 * BS).execute(query, Contract.exact())
        engine = tiered_engine(n=20 * BS)
        engine.set_scan_scheduler(SharedScanScheduler())
        table = engine.catalog.table("fact")
        for block in range(table.num_blocks - 1):
            table.column("x").demote(block, "warm")
        bounded = engine.execute(query, Contract.within_error(1e-9))
        assert bounded.attempts[-1].source == "fact"  # climbed to the base
        assert not bounded.result.exact  # honestly: it read warm blocks
        stats = engine.recycler.stats
        # bounded scans over still-warm blocks keep their hits
        hits = stats.hits
        engine.execute(query, Contract.within_error(1e-9))
        assert stats.hits - hits == len(bounded.attempts)
        for asked in range(2):  # second ask: served by the cache
            hits = stats.hits
            exact = engine.execute(query, Contract.exact())
            assert stats.hits - hits == asked
            assert exact.result.exact
            for name in ("id", "x"):
                np.testing.assert_array_equal(
                    exact.result.rows.column(name).values,
                    truth.result.rows.column(name).values,
                )

    def test_warm_blocks_widen_estimates_honestly(self):
        """A base rung with nothing folded below it (the from-scratch
        ladder's last rung) selects through the exact cover but reads
        its carried column from the warm base blocks themselves."""
        engine = tiered_engine()
        exact = engine.execute_exact(self.cone()).scalars
        table = engine.catalog.table("fact")
        for block in range(table.num_blocks - 1):
            table.column("y").demote(block, "warm")
        delta = table.column("y").max_value_error()
        assert delta > 0.0
        processor = BoundedQueryProcessor(
            engine.catalog, engine.hierarchy("fact"), delta_escalation=False
        )
        outcome = processor.execute(self.cone(), Contract.within_error(0.0))
        assert outcome.attempts[-1].source == "fact"
        assert not outcome.result.exact
        estimates = outcome.result.estimates
        for name in ("sum(y)", "avg(y)"):
            estimate = estimates[name]
            assert estimate.value_error > 0.0
            # the declared bound rides the CI: achieved error within
            # half-width at the contract's confidence, deterministically
            # for the bias component
            assert estimate.half_width >= estimate.value_error
        assert abs(estimates["avg(y)"].value - exact["avg(y)"]) <= (
            estimates["avg(y)"].half_width
        )

    def test_a_column_gathered_after_demotion_is_raw(self):
        """An impression's columns are gathered on first touch, which
        may be after the governor demoted the base blocks they read:
        the late column still holds the raw base values — the spill
        keeps every demoted block's raw bytes — and declares no error,
        so the estimate built on it is the never-demoted engine's."""
        want = tiered_engine().execute(self.cone(), Contract())
        engine = tiered_engine()
        table = engine.catalog.table("fact")
        impression = engine.hierarchy("fact").layer(0)
        sample = impression.materialise(table)
        early = sample.column("x")  # gathered from the hot base
        for block in range(table.num_blocks - 1):
            table.column("y").demote(block, "warm")
        assert table.column("y").max_value_error() > 0.0
        assert impression.materialise(table) is sample  # demotion moves no key
        late = sample.column("y")  # first touch: raw bytes from the spill
        assert late.max_value_error() == early.max_value_error() == 0.0
        assert late.is_fully_hot and not table.column("y").is_fully_hot
        assert late.values.tobytes() == tiered_table()["y"][sample.row_ids].tobytes()
        outcome = engine.execute(self.cone(), contract=Contract())
        assert outcome.attempts[0].source == impression.name
        assert outcome.result.estimates == want.result.estimates


# ----------------------------------------------------------------------
# MemoryGovernor
# ----------------------------------------------------------------------
class TestGovernor:
    def test_enforce_demotes_until_under_budget(self):
        engine = tiered_engine()
        report = engine.memory_report()
        budget = int(report["ram_total"] * 0.4)
        governor = MemoryGovernor(budget)
        engine.set_memory_governor(governor)
        stats = governor.stats
        assert stats.enforcements >= 1
        assert stats.demotions_warm + stats.demotions_cold > 0
        assert stats.last_footprint <= budget
        after = engine.memory_report()
        assert after["ram_total"] < report["ram_total"]

    def test_least_recently_scanned_blocks_demote_first(self):
        engine = tiered_engine()
        table = engine.catalog.table("fact")
        # touch the last full block so it is the most recent
        hot_block = table.num_blocks - 2
        table.column("x").read_range(hot_block * BS, (hot_block + 1) * BS)
        budget = int(engine.memory_report()["ram_total"] * 0.7)
        engine.set_memory_governor(MemoryGovernor(budget))
        # something demoted, but the recently-scanned block stayed hot
        assert not table.is_fully_hot
        assert table.column("x").tier_of(hot_block) == "hot"

    def test_scanned_blocks_promote_back_when_headroom_allows(self):
        engine = tiered_engine()
        table = engine.catalog.table("fact")
        governor = MemoryGovernor(1)  # demote everything demotable
        engine.set_memory_governor(governor)
        assert not table.column("y").is_fully_hot
        assert not table.column("x").is_fully_hot
        # scan through y's demoted blocks (records the access tick)...
        table.column("y").read_range(0, table.num_rows)
        # ...then relax the budget: enforce promotes the scanned
        # working set, and only it — x was never touched
        governor.budget_bytes = 64 << 20
        engine.enforce_memory()
        assert governor.stats.promotions > 0
        assert table.column("y").is_fully_hot
        assert not table.column("x").is_fully_hot
        assert governor.stats.last_footprint <= (
            PROMOTE_HEADROOM * governor.budget_bytes
        )

    def test_residency_order_is_lru_by_scan_tick(self):
        """Scan recency alone orders both directions: the blocks
        scanned longest ago demote first, and once demoted the ones
        scanned last promote first — each exactly a prefix of the scan
        order, however far the budget lets the pass go."""
        engine = tiered_engine()
        table = engine.catalog.table("fact")
        block_bytes = BS * 8

        def scan(order):
            for name, block in order:
                table.column(name).read_range(block * BS, (block + 1) * BS)

        def not_hot():
            return {
                (name, block)
                for name in table.column_names
                for block in range(table.num_blocks)
                if table.column(name).tier_of(block) != "hot"
            }

        oldest_first = [
            (name, block)
            for block in (3, 0, 4, 1, 5, 2)
            for name in ("y", "id", "x")
        ]
        scan(oldest_first)
        governor = MemoryGovernor(
            int(engine.memory_report()["ram_total"]) - 3 * block_bytes
        )
        engine.set_memory_governor(governor)
        demoted = not_hot()
        assert 0 < len(demoted) < len(oldest_first)
        assert demoted == set(oldest_first[: len(demoted)])

        governor.budget_bytes = 1  # everything demotable goes down
        engine.enforce_memory()
        assert len(not_hot()) == len(oldest_first)
        scan(oldest_first)  # the same order: x's block 2 is now the newest
        floor = int(engine.memory_report()["ram_total"])
        governor.budget_bytes = int(
            (floor + 4 * block_bytes) / PROMOTE_HEADROOM
        )
        engine.enforce_memory()
        promoted = set(oldest_first) - not_hot()
        assert 0 < len(promoted) < len(oldest_first)
        assert promoted == set(oldest_first[-len(promoted) :])

    def test_impression_tables_stay_resident_but_unread_columns_drop(self):
        """A rung table's blocks never demote; under pressure the
        governor first drops the columns it gathered that nothing has
        read since (never ``_pi``), and the next read gathers them
        again, byte-identically."""
        engine = tiered_engine()
        base = engine.catalog.table("fact")
        rung = engine.hierarchy("fact").layer(0).materialise(base)
        want = {name: rung.column(name).values.copy() for name in ("id", "x", "y")}
        rung.column("y").gather(np.arange(4))  # only y is read
        engine.set_memory_governor(MemoryGovernor(1))
        assert [c.name for c in rung.resident_columns()] == [PI_COLUMN, "y"]
        assert rung.is_fully_hot and not base.is_fully_hot
        for name, values in want.items():
            np.testing.assert_array_equal(rung.column(name).values, values)

    def test_hidden_pi_columns_only_ever_go_cold(self):
        col = Column("_pi", "float64", np.full(2 * BS, 0.5), block_size=BS)
        table = Table("w", [col])
        catalog = Catalog()
        catalog.add_table(table)
        engine = SciBorq(catalog, interest_attributes={"_pi": (0, 1)}, rng=1)
        engine.set_memory_governor(MemoryGovernor(1))
        assert col.block_tiers()["warm"] == 0
        assert col.block_tiers()["cold"] > 0


# ----------------------------------------------------------------------
# Engine + server wiring
# ----------------------------------------------------------------------
class TestMemoryReport:
    def test_report_shape_and_totals(self):
        engine = tiered_engine()
        report = engine.memory_report()
        for key in (
            "tables",
            "tiers",
            "impressions",
            "impressions_bytes",
            "recycler_bytes",
            "ram_total",
            "cold_bytes",
        ):
            assert key in report
        assert "fact" in report["tables"]
        tiers = report["tiers"]
        assert report["ram_total"] == (
            tiers["hot"]
            + tiers["warm"]
            + report["impressions_bytes"]
            + report["recycler_bytes"]
        )
        assert "budget_bytes" not in report  # no governor installed

    def test_report_tracks_demotions_and_governor(self):
        engine = tiered_engine()
        hot_bytes = engine.memory_report()["tiers"]["hot"]
        engine.set_memory_governor(MemoryGovernor(max(1, hot_bytes // 3)))
        report = engine.memory_report()
        assert report["tiers"]["warm"] + report["cold_bytes"] > 0
        assert report["tiers"]["hot"] < hot_bytes
        assert report["budget_bytes"] == max(1, hot_bytes // 3)
        assert report["governor"]["enforcements"] >= 1

    def test_summary_mentions_memory(self):
        engine = tiered_engine()
        assert "memory:" in engine.report().render()


class TestServerWiring:
    def test_budget_param_installs_and_shutdown_restores(self):
        engine = tiered_engine()
        ram = engine.memory_report()["ram_total"]
        with SciBorqServer(
            engine, max_workers=1, memory_budget=int(ram * 0.5)
        ) as server:
            assert engine.memory_governor is server.memory_governor
            session = server.open_session()
            server.execute(
                session,
                Query(
                    table="fact",
                    predicate=Between("x", 100.0, 420.0),
                    aggregates=[AggregateSpec("sum", "y")],
                ),
                contract=Contract(),
            )
            assert "governor" in server.report().render()
        assert engine.memory_governor is None  # removed on shutdown
        assert not engine.catalog.table("fact").is_fully_hot  # governed

    def test_every_cached_selection_counts_in_the_footprint(self):
        """Rung scans' selections sit in the one cache too, and the
        memory report — the governor's footprint — counts all of it,
        never more than the cache's budget."""
        engine = tiered_engine(n=20 * BS)
        engine.executor.recycler = Recycler(capacity_bytes=16 * 1024)
        ram = engine.memory_report()["ram_total"]
        base = engine.catalog.table("fact")
        with SciBorqServer(engine, max_workers=1, memory_budget=int(ram * 0.5)) as server:
            session = server.open_session()
            for lo in range(0, 560, 40):
                query = Query(
                    table="fact",
                    predicate=Between("x", float(lo), lo + 90.0),
                    aggregates=[AggregateSpec("count"), AggregateSpec("avg", "y")],
                )
                climb = server.execute(session, query, contract=Contract.within_error(0.0))
                assert climb.attempts[-1].source == "fact"
                report = engine.memory_report()
                assert report["recycler_bytes"] == engine.recycler.size_bytes
                assert 0 < report["recycler_bytes"] <= engine.recycler.capacity_bytes
        rung_bytes = sum(
            entry.indices.nbytes
            for entry in engine.recycler._entries.values()
            if entry.ref() is not base
        )
        assert rung_bytes > 0
        assert engine.recycler.stats.evictions > 0

    def test_an_answer_takes_the_write_lock_only_over_budget(self, monkeypatch):
        """The epilogue reads the footprint beside other readers; only
        an answer that finds it over budget takes the write side — once
        — and lands at or under the budget."""
        engine = tiered_engine(n=20 * BS)
        base = engine.catalog.table("fact")
        writes = []
        acquire_write = ReadWriteLock.acquire_write

        def spy(lock):
            writes.append(lock)
            acquire_write(lock)

        monkeypatch.setattr(ReadWriteLock, "acquire_write", spy)

        def cone(lo):
            return Query(
                table="fact",
                predicate=Between("x", lo, lo + 90.0),
                aggregates=[AggregateSpec("count"), AggregateSpec("avg", "y")],
            )

        ram = engine.memory_report()["ram_total"]
        with SciBorqServer(engine, max_workers=1, memory_budget=4 * ram) as server:
            governor = server.memory_governor
            session = server.open_session()
            for lo in (100.0, 300.0):
                server.execute(session, cone(lo), Contract.exact())
                server.execute(session, cone(lo), Contract.within_error(0.0))
            assert writes == [] and base.is_fully_hot  # under budget
            governor.budget_bytes = engine.memory_report()["ram_total"] // 2
            server.execute(session, cone(200.0), Contract.exact())
            assert len(writes) == 1  # over budget: once
            assert engine.memory_report()["ram_total"] <= governor.budget_bytes
            assert not base.is_fully_hot
            server.execute(session, cone(200.0), Contract.exact())
            assert len(writes) == 1  # fits again: the read side only

    def test_no_budget_means_no_governor(self):
        engine = tiered_engine()
        with SciBorqServer(engine, max_workers=1) as server:
            assert server.memory_governor is None


class TestChunkedReadPaths:
    def test_getitem_and_to_numpy_on_chunked_columns(self):
        col = float_column(n=2 * BS + 5)
        original = col.values.copy()
        col.demote(0, "cold")
        assert col[3] == original[3]
        np.testing.assert_array_equal(col[5:70], original[5:70])
        np.testing.assert_array_equal(col.values.copy(), original)
        mask = np.zeros(len(col), dtype=bool)
        mask[:4] = True
        np.testing.assert_array_equal(col[mask], original[:4])

    def test_zones_survive_demotion_exactly(self):
        col = float_column(n=3 * BS)
        zones_before = [col.zone(b) for b in range(col.num_blocks)]
        for block in range(col.num_blocks):
            col.demote(block, "warm")
        assert [col.zone(b) for b in range(col.num_blocks)] == zones_before

    def test_read_range_spanning_tiers_is_assembled(self):
        col = float_column(n=3 * BS + 9)
        original = col.values.copy()
        col.demote(0, "warm")
        col.demote(1, "cold")
        got = col.read_range(10, 3 * BS + 5)
        bound = col.block_value_error(0)
        assert np.abs(got - original[10 : 3 * BS + 5]).max() <= bound
        # hot blocks and the tail inside the range came back exact
        np.testing.assert_array_equal(
            got[2 * BS - 10 :], original[2 * BS : 3 * BS + 5]
        )

    def test_gather_rejects_boolean_masks(self):
        col = float_column()
        col.demote(0, "warm")
        with pytest.raises(SchemaError):
            col.gather(np.zeros(len(col), dtype=bool))

    def test_block_report_lists_full_blocks_only(self):
        col = float_column(n=2 * BS + 5)
        col.demote(1, "warm")
        report = col.block_report()
        assert [entry[0] for entry in report] == [0, 1]
        tiers = {block: tier for block, tier, _, _ in report}
        assert tiers == {0: "hot", 1: "warm"}


class TestValueErrorAt:
    """A row answer learns the bound of every matched row's block from
    the block bounds alone, and marks those blocks read as a gather
    would: the governor sees the same working set."""

    @staticmethod
    def tiered(n: int = 6 * BS + 9) -> Column:
        col = float_column(n=n)
        col.demote(1, "warm")
        col.demote(3, "cold")
        col.demote(4, "warm", bits=16)
        return col

    @pytest.mark.parametrize(
        "rows",
        [[], [3], [3, BS + 1, BS + 2], [2 * BS, 3 * BS + 7, 4 * BS, 6 * BS + 8]],
    )
    def test_bound_and_access_match_a_gather(self, rows):
        indices = np.array(rows, dtype=np.int64)
        col, twin = self.tiered(), self.tiered()
        values, bound = twin.gather_with_error(indices)
        assert col.value_error_at(indices) == bound

        def by_tick(column):
            ticks = [(column.last_scanned(b), b) for b in range(column.num_blocks)]
            return [b for tick, b in sorted(ticks) if tick]

        assert by_tick(col) == by_tick(twin)
        assert bool(col.demoted_access_tick) == bool(twin.demoted_access_tick)
        assert col.last_read > 0 and col.decompressions == 0
        np.testing.assert_array_equal(values, twin.gather_with_error(indices)[0])

    def test_a_contiguous_column_reports_its_floor(self):
        col = float_column()
        col.declare_value_error(0.25)
        assert col.value_error_at(np.arange(5)) == 0.25

    def test_a_row_answer_marks_blocks_as_its_whole_match_gather_did(self):
        from repro.columnstore.executor import Executor

        query = Query(
            table="fact",
            predicate=Between("x", 100.0, 500.0),
            select=("y", "id"),
            order_by="x",
            descending=True,
            limit=5,
        )
        tables = []
        for _ in range(2):
            table = tiered_table()
            for name in ("x", "y"):
                for block in (1, 2, 4):
                    table.column(name).demote(block, "warm")
            table.column("id").demote(3, "cold")
            tables.append(table)
        answered, reference = tables
        catalog = Catalog()
        catalog.add_table(answered)
        Executor(catalog).execute(query)
        # the whole-match gather of the carried columns, in table order
        matched, _ = operators.select(reference, query.predicate)
        for name in reference.column_names:
            reference.column(name).gather_with_error(matched)

        def ranking(table):
            ticks = [
                (column.last_scanned(b), column.name, b)
                for column in table.resident_columns()
                for b in range(column.num_blocks)
            ]
            return [(name, b) for tick, name, b in sorted(ticks) if tick]

        assert ranking(answered) == ranking(reference)


# ----------------------------------------------------------------------
# per-block access ticks, held to the rules of the dict they replaced
# ----------------------------------------------------------------------
ROW = st.integers(0, 40 * 8)
TICK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(-5, 40 * 8), ROW, st.booleans()),
        st.tuples(st.just("gather"), st.lists(ROW, max_size=6), st.booleans()),
        st.tuples(st.just("error_at"), st.lists(ROW, max_size=6), st.booleans()),
        st.tuples(st.just("extend"), st.integers(1, 30)),
        st.tuples(st.just("append")),
        st.tuples(
            st.just("demote"), st.integers(0, 40), st.sampled_from(["warm", "cold"])
        ),
        st.tuples(st.just("promote"), st.integers(0, 40)),
    ),
    max_size=30,
)


class TestBlockTicks:
    """The per-block tick array answers ``last_scanned`` and
    ``block_report`` as the per-block dict it replaced did: a range read
    stamps every block it spans with one tick; a gather or
    ``value_error_at`` over a chunked column stamps each touched block
    with its own tick, in block order; a contiguous column's gather
    stamps none; appends, demotions and promotions stamp nothing."""

    @staticmethod
    def expect(column: Column, op: tuple, step: int, expected: dict) -> None:
        """Apply ``op`` to ``column`` and its tick rule to ``expected``
        (block → (step, order within the step))."""
        kind, size, bs = op[0], len(column), column.block_size
        if kind == "read":
            start, stop = max(op[1], 0), min(op[2], size)
            column.read_range(op[1], op[2], raw=op[3])
            if stop > start:
                for block in range(start // bs, (stop - 1) // bs + 1):
                    expected[block] = (step, 0)
        elif kind in ("gather", "error_at"):
            indices = np.array([i for i in op[1] if i < size], dtype=np.int64)
            chunked = column._data is None
            if kind == "gather":
                column.gather_with_error(indices, raw=op[2])
            else:
                column.value_error_at(indices, raw=op[2])
            if chunked and indices.size:
                for order, block in enumerate(np.unique(indices // bs).tolist()):
                    expected[block] = (step, order)
        elif kind == "extend":
            column.extend(np.linspace(0.0, 1.0, op[1]))
        elif kind == "append":
            column.extend(np.array([0.5]))
        elif kind == "demote" and op[1] < column.num_blocks:
            column.demote(op[1], op[2])
        elif kind == "promote" and op[1] < column.num_blocks:
            column.promote(op[1])

    @given(n=st.integers(0, 20 * 8), ops=TICK_OPS)
    @settings(max_examples=200, deadline=None)
    def test_ticks_follow_the_dict_rules(self, n, ops):
        column = Column(
            "x", "float64", np.random.default_rng(n).uniform(0.0, 9.0, n), block_size=8
        )
        expected: dict = {}
        for step, op in enumerate(ops, start=1):
            self.expect(column, op, step, expected)
            blocks = range(column.num_blocks + 2)
            ticks = {b: column.last_scanned(b) for b in blocks}
            assert {b for b, t in ticks.items() if t} == set(expected)
            # the same order as the rule's keys, ties exactly where it ties
            ranked = sorted(expected, key=expected.get)
            for a, b in zip(ranked, ranked[1:]):
                assert (ticks[a] < ticks[b]) == (expected[a] < expected[b])
                assert ticks[a] <= ticks[b]
            report = column.block_report()
            assert [entry[0] for entry in report] == list(range(len(column) // 8))
            assert all(entry[2] == ticks[entry[0]] for entry in report)

    def test_a_range_read_past_the_last_append_stamps_the_new_blocks(self):
        column = Column("x", "float64", np.zeros(10), block_size=4)
        column.read_range(0, 10)
        first = column.last_scanned(0)
        column.extend(np.ones(100))  # 3 → 28 blocks
        assert column.last_scanned(27) == 0
        column.read_range(96, 110)
        assert column.last_scanned(24) == column.last_scanned(27) > first
        assert column.last_scanned(2) == first and column.last_scanned(23) == 0

    def test_readers_racing_an_append_always_find_a_tick_slot(self):
        """Writers size the tick array before they publish the new rows,
        so readers that see the new size never index past it — with
        more reader threads than cores and a short switch interval."""
        import sys
        import threading

        column = Column("x", "float64", np.zeros(64), block_size=8)
        errors: list = []
        done = threading.Event()

        def read() -> None:
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            try:
                while not done.is_set():
                    size = len(column)
                    column.read_range(max(size - 20, 0), size)
                    column.gather_with_error(rng.integers(0, size, 5))
                    column.value_error_at(np.array([size - 1]))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(6)]
        try:
            for reader in readers:
                reader.start()
            column.demote(0, "cold")  # chunked: gathers stamp blocks
            for _ in range(400):
                column.extend(np.ones(3))
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert column.block_report()[-1][0] == len(column) // 8 - 1
