"""Tests for plan cost estimation."""

import pytest

from repro.columnstore import AggregateSpec, Executor, JoinSpec, Query
from repro.columnstore.expressions import Between
from repro.columnstore.plan import estimate_cost
from repro.util.clock import CostClock


class TestEstimate:
    def test_selection_only_estimate_is_exact(self, small_catalog):
        q = Query(table="fact")
        estimate = estimate_cost(q, small_catalog)
        clock = CostClock()
        Executor(small_catalog, clock=clock).execute(q)
        assert estimate == clock.now == 1000

    def test_estimate_is_upper_bound_with_default_selectivity(
        self, small_catalog
    ):
        q = Query(
            table="fact",
            predicate=Between("x", 9, 10),
            joins=[JoinSpec("dim", "grp", "grp")],
            aggregates=[AggregateSpec("count")],
        )
        estimate = estimate_cost(q, small_catalog)
        clock = CostClock()
        Executor(small_catalog, clock=clock).execute(q)
        assert estimate >= clock.now

    def test_selectivity_scales_downstream_steps(self, small_catalog):
        q = Query(
            table="fact",
            predicate=Between("x", 9, 10),
            aggregates=[AggregateSpec("count")],
        )
        full = estimate_cost(q, small_catalog, selectivity=1.0)
        tenth = estimate_cost(q, small_catalog, selectivity=0.1)
        # the scan itself is not scaled (it always reads the table):
        # only the aggregate's 1 000 input rows shrink to 100
        assert full == 1000 + 1000
        assert tenth == 1000 + 100

    def test_fact_table_override(self, small_catalog):
        q = Query(table="fact")
        sample = small_catalog.table("fact").take(range(10), "s")
        estimate = estimate_cost(q, small_catalog, fact_table=sample)
        assert estimate == 10

    def test_invalid_selectivity(self, small_catalog):
        with pytest.raises(ValueError, match="selectivity"):
            estimate_cost(Query(table="fact"), small_catalog, selectivity=2.0)

    def test_limit_step_bounded_by_limit(self, small_catalog):
        q = Query(table="fact", limit=7)
        assert estimate_cost(q, small_catalog) == 1000 + 7
