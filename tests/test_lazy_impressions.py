"""Invalidation costs what the next query reads.

Impression tables (whole rungs, rung deltas, base complements) are
:class:`~repro.columnstore.table.DerivedTable` views that gather a
column on first touch, and the sorted row-id index behind deltas and
complements is patched, not rebuilt, when a sampler replaces a few
slots.  These guards count *gathers*, so a regression to eager
whole-row materialisation fails tier-1 rather than a timed run; the
ladder dump holds every reported number to the last commit that
materialised eagerly, up to the interest-cell layout's summation order
and lower charges (``test_cell_layout.py``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladder_dump
from repro.columnstore import AggregateSpec, Query, Table
from repro.columnstore.column import Column
from repro.columnstore.executor import Executor
from repro.columnstore.expressions import Between, RadialPredicate
from repro.columnstore.table import DerivedTable, derived_zone_rows
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.impression import PI_COLUMN, CellKeys, _index, _Index
from repro.core.maintenance import refresh_hierarchy
from repro.core.policy import UniformPolicy, build_hierarchy
from repro.errors import SchemaError, UnknownColumnError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog

TABLE = "PhotoObjAll"
CONE = RadialPredicate("ra", "dec", 185.0, 30.0, 6.0)
CONE_AVG = Query(
    table=TABLE,
    predicate=CONE,
    aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
)
CONE_COUNT = Query(table=TABLE, predicate=CONE, aggregates=[AggregateSpec("count")])
#: no sample meets it, so the ladder scans every rung and the base
TO_THE_BASE = Contract.within_error(1e-9)


def three_rung_engine(nested: bool) -> tuple[SciBorq, SkyGenerator]:
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=71,
    )
    engine.create_hierarchy(TABLE, policy="uniform", layer_sizes=(6_000, 1_500, 300))
    generator = SkyGenerator(rng=72)
    build_skyserver(30_000, generator=generator, loader=engine.loader)
    if nested:
        engine.refresh(TABLE)
    return engine, generator


@pytest.fixture
def scanned(monkeypatch) -> list[Table]:
    """Every table a selection ran over, in order."""
    tables: list[Table] = []
    original = Executor.select_indices

    def recording(self, source, predicate, context, cover=None, raw=False):
        tables.append(source)
        return original(self, source, predicate, context, cover=cover, raw=raw)

    monkeypatch.setattr(Executor, "select_indices", recording)
    return tables


def gathered_by(table: DerivedTable) -> set[str]:
    """Names of the base columns ``table`` has gathered so far."""
    return {c.name for c in table.resident_columns()} - {PI_COLUMN}


# ----------------------------------------------------------------------
# gather width
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nested", [True, False], ids=["nested", "independent"])
class TestGatherWidth:
    def test_a_cone_aggregate_gathers_three_columns_per_rung_table(
        self, scanned, nested
    ):
        engine, _ = three_rung_engine(nested)
        outcome = engine.execute(CONE_AVG, TO_THE_BASE)
        assert [a.source for a in outcome.attempts][-1] == TABLE
        assert len(outcome.attempts) == 4
        # three rung tables (whole or delta) and the base complement
        assert len(scanned) == 4
        for table in scanned:
            assert isinstance(table, DerivedTable)
            assert gathered_by(table) == {"ra", "dec", "r_mag"}
        # whole-rung tables the planner priced (if any) gathered no more
        for layer in engine.hierarchy(TABLE).layers:
            whole = layer.cached_table()
            assert whole is None or gathered_by(whole) <= {"ra", "dec", "r_mag"}

    def test_a_count_star_cone_gathers_its_predicate_only(self, scanned, nested):
        engine, _ = three_rung_engine(nested)
        engine.execute(CONE_COUNT, TO_THE_BASE)
        assert len(scanned) == 4
        for table in scanned:
            assert gathered_by(table) == {"ra", "dec"}

    def test_after_an_ingest_the_next_query_gathers_only_its_own_columns(
        self, scanned, nested
    ):
        engine, generator = three_rung_engine(nested)
        engine.execute(CONE_AVG, TO_THE_BASE)
        before = list(scanned)
        del scanned[:]
        engine.ingest(TABLE, generator.photoobj_batch(2_000))
        bright = Query(
            table=TABLE,
            predicate=Between("r_mag", 17.0, 18.0),
            aggregates=[AggregateSpec("avg", "petro_rad")],
        )
        engine.execute(bright, TO_THE_BASE)
        assert len(scanned) == 4
        for table in scanned:
            assert not any(table is old for old in before)  # all went stale
            assert gathered_by(table) == {"r_mag", "petro_rad"}


# ----------------------------------------------------------------------
# the derived table itself
# ----------------------------------------------------------------------
def small_base() -> Table:
    rng = np.random.default_rng(5)
    return Table(
        "b",
        [
            Column("x", "float64", rng.uniform(0, 1, 1_000), block_size=128),
            Column("y", "int64", np.arange(1_000), block_size=128),
        ],
    )


class TestDerivedTable:
    def test_schema_is_answered_without_a_gather(self, monkeypatch):
        monkeypatch.setattr(
            Column,
            "gather_with_error",
            lambda self, indices, raw=False: pytest.fail("gathered"),
        )
        ids = np.array([7, 3, 900])
        pis = np.full(3, 0.5)
        table = DerivedTable("d", small_base(), ids, ["x", "y"], {PI_COLUMN: pis})
        assert table.column_names == ["x", "y", PI_COLUMN]
        assert (table.num_rows, len(table)) == (3, 3)
        assert table.block_size == 64 and table.num_blocks == 1
        assert table.has_column("y") and not table.has_column("z")
        assert table.nbytes() == 24 and table.is_fully_hot
        assert table.nbytes_by_tier() == {"hot": 24, "warm": 0, "cold": 0}
        assert table.max_value_error() == 0.0 and table.promote_all() == 0
        (resident,) = table.resident_columns()
        assert resident.name == PI_COLUMN and resident.values.base is pis
        assert "rows=3" in repr(table)

    def test_columns_are_the_base_rows_in_row_id_order(self):
        base = small_base()
        ids = np.array([7, 3, 900, 3])
        table = DerivedTable("d", base, ids, ["x", "y"])
        np.testing.assert_array_equal(table["y"], ids)
        np.testing.assert_array_equal(table["x"], base["x"][ids])
        assert table.column("x") is table.column("x")
        assert (table["x"][2], table["y"][2]) == (base["x"][900], 900)
        np.testing.assert_array_equal(table.take(np.array([1, 2]))["y"], [3, 900])
        assert table.take(np.array([0]), columns=["y"]).column_names == ["y"]

    def test_a_mismatched_block_grid_is_seen_before_any_gather(self):
        """A derived table's zone grid is its own — its share of 1 024
        base rows per zone, rounded down to a power of two (at least 64),
        for every column, whatever the base's blocks — and is known
        before any gather."""
        base = Table(
            "b",
            [
                Column("x", "float64", np.arange(300_000.0), block_size=4),
                Column("y", "float64", np.arange(300_000.0), block_size=8),
            ],
        )
        grids = ((5, 64, 1), (70_000, 128, 547), (200_000, 512, 391))
        for rows, zone_rows, zones in grids:
            ids = np.arange(rows)
            table = DerivedTable("d", base, ids, ["x", "y"], {PI_COLUMN: np.ones(rows)})
            assert derived_zone_rows(rows, base.num_rows) == zone_rows
            assert (table.block_size, table.num_blocks) == (zone_rows, zones)
            assert [c.name for c in table.resident_columns()] == [PI_COLUMN]
            grid = {table.column(n).block_size for n in table.column_names}
            assert grid == {zone_rows}

    def test_zones_span_the_same_share_of_the_base_whatever_the_table(self):
        """On a 1 M-row base the 250 k rung gets 256-row zones and the
        750 k complement 512-row ones (768 rounded down to a power of
        two): each zone holds about 1 024 base rows' worth of cell
        space.  Small tables keep a 64-row floor."""
        assert derived_zone_rows(250_000, 1_000_000) == 256
        assert derived_zone_rows(750_000, 1_000_000) == 512
        assert derived_zone_rows(1_000_000, 1_000_000) == 1_024
        assert derived_zone_rows(50_000, 1_000_000) == 64
        assert derived_zone_rows(0, 0) == 64

    def test_errors(self):
        base = small_base()
        table = DerivedTable("d", base, np.arange(4), ["x"])
        with pytest.raises(UnknownColumnError, match="'y' on table 'd'"):
            table.column("y")  # in the base, not in this subset
        with pytest.raises(SchemaError, match="read-only"):
            table.append_batch({"x": [1.0]})
        with pytest.raises(SchemaError, match="4 rows"):
            DerivedTable("d", base, np.arange(4), ["x"], {PI_COLUMN: np.ones(1)})
        with pytest.raises(SchemaError, match="duplicate"):
            DerivedTable("d", base, np.arange(1), ["x"], {"x": np.ones(1)})

    def test_eight_threads_first_touching_a_column_gather_it_once(self, monkeypatch):
        table = DerivedTable("d", small_base(), np.arange(0, 1_000, 3), ["x", "y"])
        calls = []
        original = Column.gather_with_error

        def slow_gather(self, indices, raw=False):
            calls.append((self.name, raw))
            time.sleep(0.02)  # hold the race open
            return original(self, indices, raw)

        monkeypatch.setattr(Column, "gather_with_error", slow_gather)
        barrier = threading.Barrier(8, timeout=10)

        def touch(_):
            barrier.wait()
            return table.column("x")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                seen = list(pool.map(touch, range(8), timeout=10))
        finally:
            sys.setswitchinterval(interval)
        assert calls == [("x", True)]  # once, raw
        assert all(column is seen[0] for column in seen)
        assert table.resident_columns() == [seen[0]]


# ----------------------------------------------------------------------
# incremental row-id bookkeeping
# ----------------------------------------------------------------------
def cell_order(cells: CellKeys, row_ids: np.ndarray) -> np.ndarray:
    """``row_ids`` in (cell, row id) order, sorted from scratch."""
    return row_ids[np.lexsort((row_ids, cells.of(row_ids)))]


def assert_bookkeeping_from_scratch(hierarchy, base: Table) -> None:
    for impression in hierarchy.layers:
        cells = impression.cells
        row_ids = impression.row_ids
        order = np.lexsort((row_ids, cells.of(row_ids)))
        sorted_keys, got_order = impression._ordered()
        np.testing.assert_array_equal(got_order, order)
        np.testing.assert_array_equal(sorted_keys, cells.sort_keys(row_ids[order]))
        table = impression.materialise(base)
        np.testing.assert_array_equal(table.row_ids, row_ids[order])
        np.testing.assert_array_equal(
            table[PI_COLUMN], impression.inclusion_probabilities()[order]
        )
        complement = impression.materialise_complement(base)
        np.testing.assert_array_equal(
            complement.row_ids,
            cell_order(cells, np.setdiff1d(np.arange(base.num_rows), row_ids)),
        )
        # the columns a patched table carried over hold the right rows
        # (read by a scan, so the next table carries them again)
        for derived in (table, complement):
            values = derived.column("v").read_range(0, derived.num_rows)
            np.testing.assert_array_equal(values, base["v"][derived.row_ids])
    layers = hierarchy.layers
    for large in layers:
        for small in layers:
            if small is large:
                continue
            delta = large.delta_row_ids(small)
            if np.isin(small.row_ids, large.row_ids).all():
                np.testing.assert_array_equal(
                    delta,
                    cell_order(large.cells, np.setdiff1d(large.row_ids, small.row_ids)),
                )
            else:
                assert delta is None


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.integers(1, 40)),
        st.tuples(st.just("refresh"), st.just(0)),
        st.tuples(st.just("override"), st.integers(0, 2)),
        st.tuples(st.just("reload"), st.integers(0, 2)),
        st.tuples(st.just("check"), st.just(0)),
    ),
    min_size=1,
    max_size=25,
)


class TestRowIdBookkeeping:
    @given(operations=OPERATIONS, seed=st.integers(0, 2**16))
    # a refresh that lands on the (seen, size) it started from: the
    # larger layer's cached delta against it used to survive
    @example(operations=[("refresh", 0)], seed=0)
    @settings(max_examples=60, deadline=None)
    def test_patched_index_equals_from_scratch_under_churn(self, operations, seed):
        """Offers (first fill, then in-place replacement), refreshes
        from below, override installs and out-of-band reloads, checked
        at random points so several changes pile up behind one patch:
        the patched (cell, row id) order of every table equals a
        from-scratch ``lexsort((ids, cells))``."""
        rng = np.random.default_rng(seed)
        base = Table("T", {"v": "float64"})
        hierarchy = build_hierarchy(
            "T", UniformPolicy(layer_sizes=(48, 20, 8)), rng=seed + 1
        )
        cells = CellKeys({"v": (0.0, 1.0)})
        for layer in hierarchy.layers:
            layer.cells = cells
        for kind, arg in [("offer", 30), ("check", 0)] + operations + [("check", 0)]:
            if kind == "offer":
                first = base.num_rows
                batch = {"v": rng.uniform(0, 1, arg)}
                base.append_batch(batch)
                cells.observe(first, batch)
                for layer in hierarchy.layers:
                    layer.sampler.offer_batch(np.arange(first, first + arg))
            elif kind == "refresh":
                refresh_hierarchy(hierarchy, base)
            elif kind == "override":
                layer = hierarchy.layer(arg)
                if layer.size == layer.capacity:  # an override is per slot
                    layer.set_inclusion_override(np.full(layer.size, 0.5))
            elif kind == "reload":
                # a rebuild out of band: other rows, maybe another size
                # (never too few to fill the layer refreshed from it)
                layer = hierarchy.layer(arg)
                fewest = hierarchy.layer(arg + 1).capacity if arg < 2 else 1
                count = int(
                    rng.integers(fewest, min(layer.capacity, base.num_rows) + 1)
                )
                ids = rng.choice(base.num_rows, size=count, replace=False)
                layer.sampler.load_state(ids, np.full(count, 0.5), base.num_rows)
                layer.set_inclusion_override(None)
            else:
                assert_bookkeeping_from_scratch(hierarchy, base)

    def test_a_small_churn_is_patched_not_resorted(self, monkeypatch):
        rng = np.random.default_rng(9)
        old = rng.permutation(10_000).astype(np.int64)
        order = np.argsort(old, kind="stable")
        new = old.copy()
        new[rng.choice(10_000, 200, replace=False)] = np.arange(10_000, 10_200)
        sorts = []
        original = np.argsort
        monkeypatch.setattr(
            np,
            "argsort",
            lambda a, **kw: sorts.append(len(a)) or original(a, **kw),
        )
        cells = CellKeys()  # one cell: the keys are the row ids
        previous = _Index(old, old, old[order], order)
        index, patch = _index(cells, new, previous)
        assert sorts == [200]  # the changed slots among themselves
        np.testing.assert_array_equal(index.order, original(new, kind="stable"))
        np.testing.assert_array_equal(index.sorted_keys, np.sort(new))
        # the patch: the kept old rows, and the 200 new ones where they go
        added = index.sorted_keys[patch.added]
        np.testing.assert_array_equal(np.sort(added), np.arange(10_000, 10_200))
        np.testing.assert_array_equal(
            patch.merge(previous.sorted_keys, added), index.sorted_keys
        )
        # more than a quarter moved, or another size: the full sort
        for other in (rng.permutation(10_000).astype(np.int64), new[:-1]):
            del sorts[:]
            assert _index(cells, other, previous)[1] is None
            assert sorts == [other.shape[0]]


# ----------------------------------------------------------------------
# byte-identity with the eager materialisation
# ----------------------------------------------------------------------
def test_ladder_dump_is_byte_identical_to_the_eager_parent():
    """Answers, attempts, charges, delta rows and every progress update
    of 12 cases (2 slivers x delta/scratch x 3 budgets), on a nested
    ladder and again after an ingest, against the dump of the
    cell-ordered layout with base rungs read through the cover (see
    :mod:`ladder_dump`; the earlier dumps are held to it in
    ``test_cell_layout.py`` and ``test_base_cover.py``)."""
    golden = json.loads(
        (Path(__file__).parent / "data" / "ladder_dump.json").read_text()
    )
    got = ladder_dump.dump()
    assert sorted(got) == sorted(golden) and len(got) == 24
    for case, want in golden.items():
        assert got[case] == want, case
