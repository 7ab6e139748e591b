"""Rung tables laid out by interest cell.

Every table an impression builds — rung, delta, base complement — holds
its rows in (cell, row id) order, where the cell is a Morton code over
the engine's interest attributes keyed once per base row by the
builder, on a zone grid scaled to the table's own size.  These tests
pin the key itself, that a selective cone then reads a fraction of
every rung, and that the layout changed no answer beyond summation
order and no charge upward, against the dump of the id-ordered layout.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladder_dump
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.column import Column
from repro.columnstore.expressions import RadialPredicate
from repro.columnstore.table import DerivedTable, RowPatch, Table
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.impression import CellKeys
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog

TABLE = "PhotoObjAll"


# ----------------------------------------------------------------------
# the cell key
# ----------------------------------------------------------------------
class TestCellKeys:
    def test_two_attributes_interleave_into_a_16_by_16_morton_code(self):
        cells = CellKeys({"ra": (120.0, 240.0), "dec": (0.0, 60.0)})
        ra_slot = np.array([0, 15, 0, 15, 5, 10])
        dec_slot = np.array([0, 0, 15, 15, 3, 12])
        cells.observe(
            0,
            {
                "ra": 120.0 + (ra_slot + 0.5) * 7.5,
                "dec": (dec_slot + 0.5) * 3.75,
                "other": np.zeros(6),
            },
        )

        def morton(x, y):
            return sum(
                (((x >> b) & 1) << (2 * b)) | (((y >> b) & 1) << (2 * b + 1))
                for b in range(4)
            )

        expected = [morton(int(x), int(y)) for x, y in zip(ra_slot, dec_slot)]
        np.testing.assert_array_equal(cells.of(np.arange(6)), expected)
        assert cells.of(np.arange(6)).dtype == np.uint8

    def test_out_of_domain_values_take_the_edge_cell_and_nan_cell_zero(self):
        cells = CellKeys({"x": (0.0, 1.0)})
        cells.observe(0, {"x": np.array([-5.0, 7.0, np.nan, 0.5, np.inf])})
        np.testing.assert_array_equal(cells.of(np.arange(5)), [0, 255, 0, 128, 255])

    def test_no_interest_attribute_is_one_constant_cell(self):
        for cells in (CellKeys(), CellKeys({"ra": (0.0, 1.0)})):
            cells.observe(0, {"v": np.linspace(0, 1, 10)})
            np.testing.assert_array_equal(cells.of(np.arange(10)), np.zeros(10))
            # one cell: the sort key is the row id, the order id order
            np.testing.assert_array_equal(cells.sort_keys(np.arange(10)), np.arange(10))

    def test_keys_are_written_once_and_unseen_rows_are_cell_zero(self):
        cells = CellKeys({"x": (0.0, 1.0)})
        cells.observe(0, {"x": np.full(3, 0.99)})
        cells.observe(5, {"x": np.full(2, 0.99)})  # rows 3, 4 never seen
        cells.observe(0, {"x": np.zeros(3)})  # already keyed: ignored
        np.testing.assert_array_equal(
            cells.of(np.arange(9)), [253, 253, 253, 0, 0, 253, 253, 0, 0]
        )


# ----------------------------------------------------------------------
# patching a table instead of rebuilding it
# ----------------------------------------------------------------------
class TestRowPatch:
    @given(
        size=st.integers(0, 60),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_patch_is_a_delete_then_an_insert(self, size, data):
        removed = np.array(
            sorted(data.draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=size)))
            if size
            else [],
            dtype=np.int64,
        )
        at = np.array(
            sorted(data.draw(st.lists(st.integers(0, size), max_size=20))),
            dtype=np.int64,
        )
        old = np.arange(size, dtype=np.float64) * 10.0
        new = -1.0 - np.arange(at.shape[0], dtype=np.float64)
        patch = RowPatch.plan(size, removed, at)
        kept = np.delete(old, removed)
        # np.searchsorted positions among the old rows, shifted past the
        # removed rows before them
        expected = np.insert(kept, at - np.searchsorted(removed, at), new)
        np.testing.assert_array_equal(patch.merge(old, new), expected)
        np.testing.assert_array_equal(expected[patch.added], new)

    def test_a_carried_column_holds_the_raw_base_rows(self):
        """Kept rows from the previous table, new rows gathered raw from
        warm base blocks: the carried column is an exact copy."""
        rng = np.random.default_rng(2)
        raw = rng.uniform(0, 1, 4096)
        x = Column("x", "float64", raw, block_size=1024)
        base = Table("b", [x])
        old = DerivedTable("d", base, np.arange(0, 4096, 2), ["x"])
        old.column("x").read_range(0, 8)  # read: worth carrying over
        for block in range(4):
            assert x.demote(block, "warm")
        assert x.max_value_error() > 0.0
        ids = np.arange(1, 4096, 2)[:5]
        removed, at = np.array([0, 3]), np.array([1, 1, 7, 9, 2048])
        patch = RowPatch.plan(old.num_rows, removed, at)
        row_ids = patch.merge(old.row_ids, ids)
        table = DerivedTable("d2", base, row_ids, ["x"])
        table.carry_from(old, patch)
        assert table.resident_columns() == []  # nothing gathered until read
        assert table["x"].tobytes() == raw[row_ids].tobytes()
        assert table.column("x").max_value_error() == 0.0
        assert table._patch is None  # the plan is dropped once every column is built


# ----------------------------------------------------------------------
# a selective cone reads a fraction of every rung
# ----------------------------------------------------------------------
def test_a_radius_two_cone_charges_at_most_half_of_every_rung():
    rows = 200_000
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=3,
    )
    hierarchy = engine.create_hierarchy(
        TABLE, policy="uniform", layer_sizes=(rows // 4, rows // 20, rows // 100)
    )
    build_skyserver(rows, generator=SkyGenerator(rng=4), loader=engine.loader)
    base = engine.catalog.table(TABLE)
    processor = BoundedQueryProcessor(engine.catalog, hierarchy)
    for centre in ((215.0, 47.0), (140.0, 40.0)):
        query = Query(
            table=TABLE,
            predicate=RadialPredicate("ra", "dec", *centre, 2.0),
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
        )
        outcome = processor.execute(query, Contract.within_error(1e-9))
        assert outcome.result.exact
        *rungs, last = outcome.attempts
        ladder = list(hierarchy.from_smallest())
        assert [a.source for a in rungs] == [layer.name for layer in ladder]
        for attempt, layer in zip(rungs, ladder):
            assert attempt.delta_rows <= 0.5 * layer.size, (centre, layer.name)
        complement = hierarchy.layer(0).materialise_complement(base)
        assert last.delta_rows <= 0.5 * complement.num_rows, centre
        exact = engine.execute_exact(query)
        for name, estimate in outcome.result.estimates.items():
            assert estimate.value == exact.scalar(name)


# ----------------------------------------------------------------------
# the same answers as the id-ordered layout, no charge higher
# ----------------------------------------------------------------------
#: what a rung or ladder paid: may only fall
CHARGES = {"charged", "cost", "total_cost", "spent", "delta_rows"}
#: budget left over: may only rise
LEFT_OVER = {"remaining"}


def _number(value):
    if isinstance(value, str) and "0x" in value:
        return float.fromhex(value)
    return value


def _compare(old, new, path, field, report):
    if isinstance(old, dict):
        assert sorted(old) == sorted(new), path
        for key in old:
            _compare(old[key], new[key], f"{path}/{key}", key, report)
    elif isinstance(old, list):
        assert len(old) == len(new), path
        for index, (a, b) in enumerate(zip(old, new)):
            if field == "operators":
                # [operator, tuples_in (a charge), tuples_out (a count)]
                assert (a[0], a[2]) == (b[0], b[2]), f"{path}[{index}]"
                assert b[1] <= a[1], f"{path}[{index}]"
                report["lower"] += b[1] < a[1]
            else:
                _compare(a, b, f"{path}[{index}]", field, report)
    elif field in CHARGES or field in LEFT_OVER:
        a, b = _number(old), _number(new)
        if a is None or b is None:
            assert a == b, path
        elif field in CHARGES:
            assert b <= a, path
            report["lower"] += b < a
        else:
            assert b >= a, path
    else:
        a, b = _number(old), _number(new)
        if isinstance(a, float) and isinstance(b, float) and a != b:
            assert b == pytest.approx(a, rel=1e-12, abs=0.0), path
            report["rounded"] += 1
        else:
            assert a == b, path


def test_the_cell_layout_matches_the_id_ordered_dump():
    """Every case of :mod:`ladder_dump` against the dump of the last
    id-ordered layout: the same ladders, sources, counts and verdicts;
    every other number within 1e-12 relative (the estimators sum in
    another order); every charge no higher — and some lower, because
    the cone now prunes."""
    data = Path(__file__).parent / "data"
    old = json.loads((data / "ladder_dump_id_order.json").read_text())
    new = ladder_dump.dump()
    assert sorted(old) == sorted(new)
    report = {"lower": 0, "rounded": 0}
    for case in old:
        _compare(old[case], new[case], case, case, report)
    assert report["lower"] > 0
