"""Invalidation costs what the next query reads.

Impression tables (whole rungs, rung deltas, base complements) are
:class:`~repro.columnstore.table.DerivedTable` views that gather a
column on first touch, and the sorted row-id index behind deltas and
complements is patched, not rebuilt, when a sampler replaces a few
slots.  These guards count *gathers*, so a regression to eager
whole-row materialisation fails tier-1 rather than a timed run; the
ladder dump holds every reported number to the last commit that
materialised eagerly.
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
from repro.columnstore.table import DerivedTable
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.impression import PI_COLUMN, _patched_sort
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

    def recording(self, source, predicate, context, recycle=False):
        tables.append(source)
        return original(self, source, predicate, context, recycle=recycle)

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
            Column, "take", lambda self, indices: pytest.fail("gathered")
        )
        ids = np.array([7, 3, 900])
        pis = Column(PI_COLUMN, "float64", np.full(3, 0.5), block_size=128)
        table = DerivedTable("d", small_base(), ids, ["x", "y"], [pis])
        assert table.column_names == ["x", "y", PI_COLUMN]
        assert (table.num_rows, len(table)) == (3, 3)
        assert table.block_size == 128 and table.num_blocks == 1
        assert table.has_column("y") and not table.has_column("z")
        assert table.nbytes() == 24 and table.is_fully_hot
        assert table.nbytes_by_tier() == {"hot": 24, "warm": 0, "cold": 0}
        assert table.max_value_error() == 0.0 and table.promote_all() == 0
        assert table.resident_columns() == [pis]
        assert "rows=3" in repr(table)

    def test_columns_are_the_base_rows_in_row_id_order(self):
        base = small_base()
        ids = np.array([7, 3, 900, 3])
        table = DerivedTable("d", base, ids, ["x", "y"])
        np.testing.assert_array_equal(table["y"], ids)
        np.testing.assert_array_equal(table["x"], base["x"][ids])
        assert table.column("x") is table.column("x")
        assert table.row(2) == {"x": base["x"][900], "y": 900}
        np.testing.assert_array_equal(table.take(np.array([1, 2]))["y"], [3, 900])
        assert table.take(np.array([0]), columns=["y"]).column_names == ["y"]

    def test_a_mismatched_block_grid_is_seen_before_any_gather(self):
        base = Table(
            "b",
            [
                Column("x", "float64", np.arange(10.0), block_size=4),
                Column("y", "float64", np.arange(10.0), block_size=8),
            ],
        )
        table = DerivedTable("d", base, np.arange(5), ["x", "y"])
        assert table.block_size is None and table.resident_columns() == []
        assert DerivedTable("d", base, np.arange(5), ["x"]).block_size == 4

    def test_errors(self):
        base = small_base()
        table = DerivedTable("d", base, np.arange(4), ["x"])
        with pytest.raises(UnknownColumnError, match="'y' on table 'd'"):
            table.column("y")  # in the base, not in this subset
        with pytest.raises(SchemaError, match="read-only"):
            table.append_batch({"x": [1.0]})
        with pytest.raises(SchemaError, match="4 rows"):
            DerivedTable(
                "d", base, np.arange(4), ["x"], [Column(PI_COLUMN, "float64", [1.0])]
            )
        with pytest.raises(SchemaError, match="duplicate"):
            DerivedTable(
                "d", base, np.arange(1), ["x"], [Column("x", "float64", [1.0])]
            )

    def test_eight_threads_first_touching_a_column_gather_it_once(self, monkeypatch):
        table = DerivedTable("d", small_base(), np.arange(0, 1_000, 3), ["x", "y"])
        calls = []
        original = Column.take

        def slow_take(self, indices):
            calls.append(self.name)
            time.sleep(0.02)  # hold the race open
            return original(self, indices)

        monkeypatch.setattr(Column, "take", slow_take)
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
        assert calls == ["x"]
        assert all(column is seen[0] for column in seen)
        assert table.resident_columns() == [seen[0]]


# ----------------------------------------------------------------------
# incremental row-id bookkeeping
# ----------------------------------------------------------------------
def assert_bookkeeping_from_scratch(hierarchy, base: Table) -> None:
    for impression in hierarchy.layers:
        row_ids = impression.row_ids
        order = np.argsort(row_ids, kind="stable")
        sorted_ids, got_order = impression._sorted_row_ids()
        np.testing.assert_array_equal(got_order, order)
        np.testing.assert_array_equal(sorted_ids, row_ids[order])
        np.testing.assert_array_equal(
            impression.complement_row_ids(base),
            np.setdiff1d(np.arange(base.num_rows), row_ids),
        )
    layers = hierarchy.layers
    for large in layers:
        for small in layers:
            if small is large:
                continue
            delta = large.delta_row_ids(small)
            if np.isin(small.row_ids, large.row_ids).all():
                np.testing.assert_array_equal(
                    delta, np.setdiff1d(large.row_ids, small.row_ids)
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
        at random points so several changes pile up behind one patch."""
        rng = np.random.default_rng(seed)
        base = Table("T", {"v": "float64"})
        hierarchy = build_hierarchy(
            "T", UniformPolicy(layer_sizes=(48, 20, 8)), rng=seed + 1
        )
        for kind, arg in [("offer", 30), ("check", 0)] + operations + [("check", 0)]:
            if kind == "offer":
                first = base.num_rows
                base.append_batch({"v": rng.uniform(0, 1, arg)})
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
        _, got = _patched_sort(new, (old, old[order], order))
        assert sorts == [200]  # the changed slots among themselves
        np.testing.assert_array_equal(got, original(new, kind="stable"))
        # more than a quarter moved, or another size: the full sort
        for other in (rng.permutation(10_000).astype(np.int64), new[:-1]):
            del sorts[:]
            _patched_sort(other, (old, old[order], order))
            assert sorts == [other.shape[0]]


# ----------------------------------------------------------------------
# byte-identity with the eager materialisation
# ----------------------------------------------------------------------
def test_ladder_dump_is_byte_identical_to_the_eager_parent():
    """Answers, attempts, charges, delta rows and every progress update
    of 12 cases (2 slivers x delta/scratch x 3 budgets), on a nested
    ladder and again after an ingest, against the dump taken at the
    parent commit (see :mod:`ladder_dump`)."""
    golden = json.loads(
        (Path(__file__).parent / "data" / "ladder_dump.json").read_text()
    )
    got = ladder_dump.dump()
    assert sorted(got) == sorted(golden) and len(got) == 24
    for case, want in golden.items():
        assert got[case] == want, case
