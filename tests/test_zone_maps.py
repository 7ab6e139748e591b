"""Tests for block storage, zone maps, and pruned morsel selection.

The contract under test: a zone-map pruned scan — evaluated morsel by
morsel in the calling thread — returns *exactly* the indices of a full
scan, while charging only the rows of blocks the predicate could
possibly match.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zone_oracle

from repro.columnstore import operators
from repro.columnstore.column import Column, Zone, Zones
from repro.columnstore.expressions import (
    And,
    Between,
    Comparison,
    InSet,
    Not,
    Or,
    RadialPredicate,
    TruePredicate,
)
from repro.columnstore.plan import estimate_cost
from repro.columnstore.table import Table
from repro.util.concurrency import MorselPool


def blocked_table(n: int = 96, block_size: int = 16, seed: int = 5) -> Table:
    """A small table with many blocks; x is sorted so zones are tight."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 100.0, n))
    y = rng.uniform(-10.0, 10.0, n)
    return Table(
        "blocked",
        [
            Column("x", "float64", x, block_size=block_size),
            Column("y", "float64", y, block_size=block_size),
        ],
    )


class TestColumnZones:
    def test_zones_track_extend(self):
        col = Column("v", "float64", block_size=4)
        col.extend([1.0, 5.0, 3.0, 2.0, 10.0, 7.0])
        assert col.num_blocks == 2
        assert col.zone(0) == Zone(1.0, 5.0)
        assert col.zone(1) == Zone(7.0, 10.0)

    def test_zones_track_single_appends(self):
        col = Column("v", "int64", block_size=2)
        for v in (4, -1, 9):
            col.append(v)
        assert col.zone(0) == Zone(-1, 4)
        assert col.zone(1) == Zone(9, 9)

    def test_incremental_merge_within_partial_block(self):
        col = Column("v", "float64", block_size=8)
        col.extend([5.0, 6.0])
        col.extend([1.0, 9.0])
        assert col.zone(0) == Zone(1.0, 9.0)

    def test_nan_sets_flag_without_poisoning_bounds(self):
        col = Column("v", "float64", block_size=4)
        col.extend([1.0, np.nan, 3.0])
        zone = col.zone(0)
        assert zone.has_nan
        assert zone.lo == 1.0 and zone.hi == 3.0

    def test_all_nan_block_is_empty_zone(self):
        col = Column("v", "float64", block_size=2)
        col.extend([np.nan, np.nan])
        zone = col.zone(0)
        assert zone.empty and zone.has_nan

    def test_string_columns_keep_no_zones(self):
        col = Column("s", "U8", ["a", "b"], block_size=2)
        assert not col.tracks_zones
        assert col.zone(0) is None

    def test_block_index_out_of_range(self):
        col = Column("v", "float64", [1.0], block_size=4)
        with pytest.raises(IndexError):
            col.zone(1)

    def test_zone_fold_is_lazy_and_incremental(self):
        col = Column("v", "float64", block_size=4)
        col.extend([1.0, 5.0])
        assert col._zone_rows == 0  # nothing folded until asked
        assert col.zone(0) == Zone(1.0, 5.0)
        assert col._zone_rows == 2
        col.extend([0.5, 9.0, 2.0])  # crosses into a second block
        assert col._zone_rows == 2  # still lazy
        assert col.zone(0) == Zone(0.5, 9.0)
        assert col.zone(1) == Zone(2.0, 2.0)
        assert col._zone_rows == 5

    def test_take_and_filter_preserve_block_size(self):
        col = Column("v", "float64", np.arange(10.0), block_size=4)
        assert col.take(np.array([1, 2])).block_size == 4
        assert col.filter(np.arange(10) % 2 == 0).block_size == 4


class TestTableBlocks:
    def test_common_block_grid(self):
        table = blocked_table(n=40, block_size=8)
        assert table.block_size == 8
        assert table.num_blocks == 5

    def test_mismatched_block_sizes_disable_pruning(self):
        table = Table(
            "mixed",
            [
                Column("a", "float64", [1.0, 2.0], block_size=2),
                Column("b", "float64", [1.0, 2.0], block_size=4),
            ],
        )
        assert table.block_size is None
        runs, scanned, _, pruned = operators.scan_plan(
            table, Comparison("a", ">", 100.0)
        )
        assert runs == [(0, 2)] and scanned == 2 and pruned == 0

    def test_block_zones_skips_zoneless_columns(self):
        table = Table(
            "t",
            [
                Column("num", "float64", [1.0, 2.0], block_size=2),
                Column("txt", "U4", ["a", "b"], block_size=2),
            ],
        )
        zones = table.zones(["num", "txt"])
        assert set(zones) == {"num"}
        np.testing.assert_array_equal(zones["num"].lo, [1.0])
        np.testing.assert_array_equal(zones["num"].hi, [2.0])


def as_arrays(zones: dict) -> dict:
    """One block's :class:`Zone` per column, as one-entry zone arrays."""
    return {
        name: Zones(np.array([z.lo]), np.array([z.hi]), np.array([z.has_nan]))
        for name, z in zones.items()
    }


def prunes(expression, zones: dict) -> bool:
    """Whether the keep-mask skips a block with these zones — checked
    against the scalar oracle on the way."""
    skip = not expression.keep_blocks(as_arrays(zones), 1)[0]
    assert skip == zone_oracle.prune(expression, zones)
    return skip


class TestPrune:
    def zone(self, lo, hi, has_nan=False):
        return {"x": Zone(lo, hi, has_nan)}

    def test_comparison_all_ops(self):
        zones = self.zone(10.0, 20.0)
        assert prunes(Comparison("x", "<", 10.0), zones)
        assert not prunes(Comparison("x", "<", 10.5), zones)
        assert prunes(Comparison("x", "<=", 9.9), zones)
        assert prunes(Comparison("x", ">", 20.0), zones)
        assert prunes(Comparison("x", ">=", 20.5), zones)
        assert prunes(Comparison("x", "==", 21.0), zones)
        assert not prunes(Comparison("x", "==", 15.0), zones)
        assert not prunes(Comparison("x", "!=", 15.0), zones)

    def test_not_equal_prunes_only_constant_blocks(self):
        assert prunes(Comparison("x", "!=", 7.0), self.zone(7.0, 7.0))
        assert not prunes(
            Comparison("x", "!=", 7.0), self.zone(7.0, 7.0, has_nan=True)
        )

    def test_all_nan_block_prunes_comparisons_but_not_ne(self):
        empty = self.zone(np.inf, -np.inf, has_nan=True)
        assert prunes(Comparison("x", "<", 5.0), empty)
        assert prunes(Comparison("x", "==", 5.0), empty)
        assert not prunes(Comparison("x", "!=", 5.0), empty)

    def test_between_and_inset(self):
        zones = self.zone(10.0, 20.0)
        assert prunes(Between("x", 21.0, 30.0), zones)
        assert prunes(Between("x", 0.0, 9.0), zones)
        assert not prunes(Between("x", 15.0, 30.0), zones)
        assert prunes(InSet("x", [1.0, 30.0]), zones)
        assert not prunes(InSet("x", [1.0, 12.0]), zones)
        assert not prunes(InSet("x", ["label"]), zones)

    def test_radial_uses_bounding_box(self):
        zones = {"x": Zone(0.0, 1.0), "y": Zone(0.0, 1.0)}
        assert prunes(RadialPredicate("x", "y", 5.0, 0.5, 1.0), zones)
        assert prunes(RadialPredicate("x", "y", 0.5, 5.0, 1.0), zones)
        assert not prunes(RadialPredicate("x", "y", 1.5, 0.5, 1.0), zones)

    def test_boolean_composition(self):
        zones = self.zone(10.0, 20.0)
        hit = Between("x", 15.0, 16.0)
        miss = Between("x", 30.0, 40.0)
        assert prunes(And([hit, miss]), zones)
        assert not prunes(And([hit, hit]), zones)
        assert prunes(Or([miss, miss]), zones)
        assert not prunes(Or([hit, miss]), zones)
        assert not prunes(Not(miss), zones)  # conservative
        assert not prunes(TruePredicate(), zones)

    def test_missing_zone_never_prunes(self):
        assert not prunes(Comparison("other", ">", 1.0), self.zone(0.0, 1.0))
        assert not prunes(Between("other", 5.0, 6.0), self.zone(0.0, 1.0))


class TestPrunedSelect:
    def test_selective_scan_charges_fewer_tuples(self):
        table = blocked_table(n=96, block_size=16)
        lo, hi = 20.0, 25.0
        indices, stats = operators.select(table, Between("x", lo, hi))
        full = np.flatnonzero((table["x"] >= lo) & (table["x"] <= hi))
        np.testing.assert_array_equal(indices, full)
        assert stats.tuples_in < table.num_rows
        assert stats.blocks_pruned > 0
        assert stats.blocks_scanned + stats.blocks_pruned == table.num_blocks

    def test_impossible_predicate_scans_nothing(self):
        table = blocked_table()
        indices, stats = operators.select(table, Between("x", 500.0, 600.0))
        assert indices.shape[0] == 0
        assert stats.tuples_in == 0
        assert stats.blocks_pruned == table.num_blocks

    def test_true_predicate_scans_everything(self):
        table = blocked_table()
        indices, stats = operators.select(table, TruePredicate())
        assert indices.shape[0] == table.num_rows
        assert stats.tuples_in == table.num_rows

    def test_parallel_path_identical_to_serial(self):
        """The caller-thread scan returns exactly what the same morsels,
        fanned over a pool and merged in order, return."""
        table = blocked_table(n=300_000, block_size=1024)
        predicate = Or(
            [Between("x", 10.0, 30.0), Between("x", 70.0, 80.0)]
        )
        serial, serial_stats = operators.select(table, predicate)
        runs, rows_to_scan, _scanned, _pruned = operators.scan_plan(table, predicate)
        morsels = operators._morsels(runs)
        assert len(morsels) > 1
        pool = MorselPool(max_workers=4)
        try:
            fragments = pool.map(
                lambda morsel: operators._scan_morsel(table, predicate, morsel, False),
                morsels,
            )
        finally:
            pool.shutdown()
        parallel = np.concatenate(fragments)
        np.testing.assert_array_equal(serial, parallel)
        assert serial.tobytes() == parallel.tobytes()
        assert serial_stats.tuples_in == rows_to_scan

    def test_pruning_equivalence_random_predicates(self):
        """Property: pruned and unpruned selection agree exactly."""
        rng = np.random.default_rng(314)
        n = 400
        x = np.sort(rng.uniform(0.0, 100.0, n))
        y = rng.uniform(-50.0, 50.0, n)
        pruned_table = Table(
            "p",
            [
                Column("x", "float64", x, block_size=32),
                Column("y", "float64", y, block_size=32),
            ],
        )
        flat_table = Table(
            "f",
            [
                Column("x", "float64", x, block_size=n),
                Column("y", "float64", y, block_size=n),
            ],
        )

        def random_predicate():
            kind = rng.integers(0, 5)
            column = "x" if rng.integers(0, 2) else "y"
            a, b = sorted(rng.uniform(-120.0, 220.0, 2))
            if kind == 0:
                return Between(column, a, b)
            if kind == 1:
                op = ["<", "<=", ">", ">=", "==", "!="][rng.integers(0, 6)]
                return Comparison(column, op, float(a))
            if kind == 2:
                return RadialPredicate(
                    "x", "y", float(a), float(b), float(rng.uniform(0, 30))
                )
            if kind == 3:
                return And([random_predicate(), random_predicate()])
            return Or([random_predicate(), random_predicate()])

        for _ in range(200):
            predicate = random_predicate()
            pruned, pruned_stats = operators.select(pruned_table, predicate)
            flat, _ = operators.select(flat_table, predicate)
            np.testing.assert_array_equal(pruned, flat)
            assert pruned_stats.tuples_in <= n

    def test_estimate_matches_pruned_scan_cost(self):
        from repro.columnstore.catalog import Catalog
        from repro.columnstore.query import Query

        table = blocked_table(n=96, block_size=16)
        catalog = Catalog()
        catalog.add_table(table)
        predicate = Between("x", 20.0, 25.0)
        estimate = estimate_cost(
            Query(table="blocked", predicate=predicate), catalog
        )
        _, stats = operators.select(table, predicate)
        assert estimate.steps[0].estimated_cost == stats.tuples_in
        assert "pruned" in estimate.steps[0].detail


# ----------------------------------------------------------------------
# one vectorised path, held to the scalar oracle
# ----------------------------------------------------------------------
BOUNDS = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([np.inf, -np.inf, 0.0, 7.0]),
)
VALUES = st.one_of(BOUNDS, st.just(np.nan), st.integers(-60, 60), st.just("label"))
NUMBERS = st.one_of(BOUNDS, st.just(np.nan))


@st.composite
def zone_arrays(draw, num_blocks: int) -> Zones:
    """Random zones: ordinary, constant, ±inf, empty (lo > hi) and all-NaN
    blocks, with or without a NaN flag."""
    lo, hi, nan = [], [], []
    for _ in range(num_blocks):
        kind = draw(st.sampled_from(["range", "all-nan", "inverted"]))
        if kind == "all-nan":
            a, b, flag = np.inf, -np.inf, True
        else:
            a, b = sorted([draw(BOUNDS), draw(BOUNDS)])
            if kind == "inverted":
                a, b = b + 1.0, a
            flag = draw(st.booleans())
        lo.append(a)
        hi.append(b)
        nan.append(flag)
    return Zones(np.array(lo), np.array(hi), np.array(nan))


COLUMNS = st.sampled_from(["x", "y", "absent"])
LEAVES = st.one_of(
    st.builds(
        Comparison,
        COLUMNS,
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        VALUES,
    ),
    st.builds(
        lambda column, a, b: Between(column, *sorted([a, b])), COLUMNS, BOUNDS, BOUNDS
    ),
    st.builds(InSet, COLUMNS, st.lists(VALUES, min_size=1, max_size=3)),
    st.builds(
        RadialPredicate,
        st.just("x"),
        st.sampled_from(["y", "absent"]),
        NUMBERS,
        NUMBERS,
        st.floats(0.0, 30.0),
    ),
    st.just(TruePredicate()),
)
PREDICATES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.builds(And, st.lists(inner, min_size=1, max_size=3)),
        st.builds(Or, st.lists(inner, min_size=1, max_size=3)),
        st.builds(Not, inner),
    ),
    max_leaves=6,
)


class TestKeepMaskMatchesOracle:
    @given(data=st.data(), predicate=PREDICATES, num_blocks=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_keep_mask_is_the_negated_scalar_prune_block_by_block(
        self, data, predicate, num_blocks
    ):
        zones = {
            "x": data.draw(zone_arrays(num_blocks)),
            "y": data.draw(zone_arrays(num_blocks)),
        }
        keep = predicate.keep_blocks(zones, num_blocks)
        assert keep.dtype == np.bool_ and keep.shape == (num_blocks,)
        for block in range(num_blocks):
            scalar = {
                name: Zone(z.lo[block], z.hi[block], bool(z.has_nan[block]))
                for name, z in zones.items()
            }
            assert keep[block] == (not zone_oracle.prune(predicate, scalar))


def per_block_fold(chunks, block_size: int):
    """The zone fold as it was: a Python loop over each appended chunk's
    blocks, ``None`` bounds for a block with no comparable value yet."""
    lo, hi, nan = [], [], []
    start = 0
    for arr in chunks:
        pos = 0
        while pos < arr.shape[0]:
            row = start + pos
            block = row // block_size
            take = min(arr.shape[0] - pos, (block + 1) * block_size - row)
            chunk = arr[pos : pos + take]
            while len(lo) <= block:
                lo.append(None)
                hi.append(None)
                nan.append(False)
            if np.issubdtype(chunk.dtype, np.floating):
                mask = np.isnan(chunk)
                if mask.any():
                    nan[block] = True
                    chunk = chunk[~mask]
            if chunk.shape[0]:
                if lo[block] is None or chunk.min() < lo[block]:
                    lo[block] = chunk.min()
                if hi[block] is None or chunk.max() > hi[block]:
                    hi[block] = chunk.max()
            pos += take
        start += arr.shape[0]
    return [
        Zone(np.inf, -np.inf, True) if low is None else Zone(low, high, flag)
        for low, high, flag in zip(lo, hi, nan)
    ]


class TestVectorisedFold:
    @given(
        chunks=st.lists(
            st.lists(
                st.one_of(st.floats(-1e6, 1e6), st.just(np.nan), st.just(np.inf)),
                min_size=1,
                max_size=20,
            ),
            min_size=1,
            max_size=6,
        ),
        block_size=st.integers(1, 7),
        ints=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_zones_equal_the_per_block_fold(self, chunks, block_size, ints):
        """Folded after every append (so partial blocks are merged into),
        NaN and all-NaN blocks included, float and integer columns."""
        dtype = "int64" if ints else "float64"
        arrays = [np.asarray(c, dtype=np.float64) for c in chunks]
        if ints:
            arrays = [
                np.nan_to_num(a, nan=3.0, posinf=9.0).astype(np.int64)
                for a in arrays
            ]
        column = Column("v", dtype, block_size=block_size)
        for arr in arrays:
            column.extend(arr)
            column.zones()  # fold now: the next append lands in a partial block
        expected = per_block_fold(arrays, block_size)
        assert [column.zone(b) for b in range(column.num_blocks)] == expected
        zones = column.zones()
        assert zones.lo.dtype == np.dtype(dtype) and zones.lo.shape == (len(expected),)


class TestMorselsAreNotZones:
    def test_a_64_zone_scan_submits_one_unit_per_65536_rows(self, monkeypatch):
        """Units are sized in rows, not zones: a scan over a 64-zone table
        evaluates ⌈rows_to_scan / 65 536⌉ units, whichever zones
        survived, and the answer is the full scan's."""
        from repro.columnstore.table import DerivedTable

        rng = np.random.default_rng(8)
        n = 400_000
        base = Table("b", [Column("x", "float64", rng.uniform(0, 100, n))])
        ids = np.argsort(base["x"], kind="stable")  # x ascending: zones prune
        table = DerivedTable("d", base, ids, ["x"])
        assert table.num_blocks == 64
        assert operators.MORSEL_ROWS == 65_536
        units: list[int] = []
        scan_morsel = operators._scan_morsel

        def counting_scan_morsel(*args):
            units.append(1)
            return scan_morsel(*args)

        monkeypatch.setattr(operators, "_scan_morsel", counting_scan_morsel)
        for predicate in (
            TruePredicate(),
            Between("x", 10.0, 60.0),
            Or(
                [
                    Between("x", 1.0, 9.0),
                    Between("x", 40.0, 41.0),
                    Between("x", 90.0, 99.0),
                ]
            ),
        ):
            del units[:]
            indices, stats = operators.select(table, predicate)
            want = np.flatnonzero(predicate.evaluate(table))
            assert indices.tobytes() == want.astype(np.int64).tobytes()
            assert len(units) == -(-stats.tuples_in // 65_536)
            del units[:]
            (shared,) = operators.select_shared(table, [predicate])
            assert shared[0].tobytes() == indices.tobytes()
            assert len(units) == -(-stats.tuples_in // 65_536)

    def test_units_cover_the_runs_in_order(self):
        runs = [(0, 10), (20, 200_000), (300_000, 300_005)]
        morsels = operators._morsels(runs)
        assert [r for m in morsels for r in m][0] == (0, 10)
        flat = [r for m in morsels for r in m]
        covered = [i for start, stop in flat for i in (start, stop)]
        assert covered == sorted(covered)
        assert sum(stop - start for start, stop in flat) == 10 + 199_980 + 5
        assert [sum(b - a for a, b in m) for m in morsels[:-1]] == [65_536] * 3

