"""Tests for the query executor (incl. view expansion and retargeting)."""

import numpy as np
import pytest

from repro.columnstore import (
    AggregateSpec,
    Between,
    Executor,
    JoinSpec,
    Query,
    Recycler,
)
from repro.columnstore.expressions import col_eq
from repro.errors import QueryError
from repro.util.clock import CostClock


class TestRowQueries:
    def test_select_rows(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(table="fact", predicate=Between("x", 10, 11), select=("id", "x"))
        )
        assert result.rows is not None
        assert result.rows.column_names == ["id", "x"]
        assert (result.rows["x"] >= 10).all() and (result.rows["x"] <= 11).all()

    def test_order_and_limit(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(table="fact", order_by="x", descending=True, limit=5)
        )
        values = result.rows["x"]
        assert values.shape[0] == 5
        assert (np.diff(values) <= 0).all()
        assert values[0] == small_catalog.table("fact")["x"].max()

    def test_projection_of_missing_column(self, small_catalog):
        ex = Executor(small_catalog)
        with pytest.raises(QueryError, match="missing columns"):
            ex.execute(Query(table="fact", select=("nope",)))


class TestAggregates:
    def test_scalar_aggregates_match_numpy(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(
                table="fact",
                aggregates=[AggregateSpec("count"), AggregateSpec("avg", "x")],
            )
        )
        x = small_catalog.table("fact")["x"]
        assert result.scalar("count(*)") == x.shape[0]
        assert result.scalar("avg(x)") == pytest.approx(x.mean())

    def test_scalar_lookup_errors(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(table="fact", aggregates=[AggregateSpec("count")])
        )
        with pytest.raises(QueryError, match="no aggregate named"):
            result.scalar("sum(x)")
        row_result = ex.execute(Query(table="fact"))
        with pytest.raises(QueryError, match="did not produce"):
            row_result.scalar("count(*)")

    def test_grouped_aggregates(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(
                table="fact",
                aggregates=[AggregateSpec("count")],
                group_by=("grp",),
                order_by="count(*)",
                descending=True,
            )
        )
        counts = result.rows["count(*)"]
        assert counts.sum() == 1000
        assert (np.diff(counts) <= 0).all()


class TestJoins:
    def test_fk_join_carries_dimension_column(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(
                table="fact",
                joins=[JoinSpec("dim", "grp", "grp", ("label_code",))],
                select=("id", "grp", "label_code"),
            )
        )
        np.testing.assert_array_equal(
            result.rows["label_code"], result.rows["grp"] * 100
        )

    def test_join_then_aggregate(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(
                table="fact",
                joins=[JoinSpec("dim", "grp", "grp", ("label_code",))],
                aggregates=[AggregateSpec("avg", "label_code")],
            )
        )
        fact = small_catalog.table("fact")
        assert result.scalar("avg(label_code)") == pytest.approx(
            (fact["grp"] * 100).mean()
        )


class TestCostAccounting:
    def test_clock_charged_per_tuple(self, small_catalog):
        clock = CostClock()
        ex = Executor(small_catalog, clock=clock)
        ex.execute(Query(table="fact", aggregates=[AggregateSpec("count")]))
        # select reads 1000, aggregate reads 1000 matching rows
        assert clock.now == 2000

    def test_stats_describe_mentions_operators(self, small_catalog):
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(table="fact", predicate=Between("x", 0, 100), limit=3)
        )
        text = result.stats.describe()
        assert "select" in text and "limit" in text


class TestRecycling:
    def test_second_execution_recycles(self, small_catalog):
        ex = Executor(small_catalog, recycler=Recycler())
        q = Query(table="fact", predicate=Between("x", 9, 11))
        first = ex.execute(q)
        assert (ex.recycler.stats.hits, ex.recycler.stats.misses) == (0, 1)
        second = ex.execute(q)
        assert ex.recycler.stats.hits == 1
        assert second.rows.num_rows == first.rows.num_rows
        # a served selection is charged as the scan it replaces
        assert second.stats.operators == first.stats.operators

    def test_append_invalidates_recycled_entry(self, small_catalog):
        ex = Executor(small_catalog, recycler=Recycler())
        q = Query(table="fact", predicate=Between("x", 9, 11))
        ex.execute(q)
        small_catalog.table("fact").append_batch(
            {"id": [10_000], "x": [10.0], "grp": [0]}
        )
        ex.execute(q)
        # version changed -> miss
        assert (ex.recycler.stats.hits, ex.recycler.stats.misses) == (0, 2)


class TestFactTableOverride:
    def test_override_runs_same_query_on_other_table(self, small_catalog):
        ex = Executor(small_catalog)
        sample = small_catalog.table("fact").take(np.arange(100), "sample")
        q = Query(table="fact", aggregates=[AggregateSpec("count")])
        result = ex.execute(q, fact_table=sample)
        assert result.scalar("count(*)") == 100
        assert result.stats.source == "sample"


class TestViewExpansion:
    def test_view_query_applies_view_predicate(self, small_catalog):
        small_catalog.add_view(
            "grp0", Query(table="fact", predicate=col_eq("grp", 0))
        )
        ex = Executor(small_catalog)
        result = ex.execute(
            Query(table="grp0", aggregates=[AggregateSpec("count")])
        )
        expected = (small_catalog.table("fact")["grp"] == 0).sum()
        assert result.scalar("count(*)") == expected

    def test_view_query_composes_with_own_predicate(self, small_catalog):
        small_catalog.add_view(
            "grp0", Query(table="fact", predicate=col_eq("grp", 0))
        )
        ex = Executor(small_catalog)
        fact = small_catalog.table("fact")
        expected = ((fact["grp"] == 0) & (fact["x"] > 10)).sum()
        result = ex.execute(
            Query(
                table="grp0",
                predicate=Between("x", 10.000001, 1e9),
                aggregates=[AggregateSpec("count")],
            )
        )
        assert result.scalar("count(*)") == expected
