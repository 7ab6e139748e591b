"""Tests for column-subset impressions and widening (paper §3.1)."""

import numpy as np
import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import Between
from repro.columnstore.table import Table
from repro.core.bounded import BoundedQueryProcessor
from repro.core.hierarchy import ImpressionHierarchy
from repro.core.impression import Impression
from repro.sampling.reservoir import ReservoirR
from table_helpers import table_from_arrays


@pytest.fixture
def base() -> Table:
    rng = np.random.default_rng(44)
    return table_from_arrays(
        "base",
        {
            "id": np.arange(20_000),
            "x": rng.uniform(0, 100, 20_000),
            "y": rng.normal(50, 5, 20_000),
        },
    )


def subset_impression(base, columns, capacity=2_000, seed=0) -> Impression:
    sampler = ReservoirR(capacity, rng=seed)
    sampler.offer_batch(np.arange(base.num_rows))
    return Impression("base/sub", "base", sampler, columns=columns)


class TestBoundedFallback:
    def test_uncovered_query_goes_straight_to_base(self, base):
        """A hierarchy whose layers lack the queried column must answer
        from the base table (the last rung), exactly."""
        from repro.columnstore.catalog import Catalog

        catalog = Catalog()
        catalog.add_table(base)
        hierarchy = ImpressionHierarchy(
            "base/h", "base", [subset_impression(base, ("x",))]
        )
        processor = BoundedQueryProcessor(catalog, hierarchy)
        outcome = processor.execute(
            Query(table="base", aggregates=[AggregateSpec("avg", "y")])
        )
        assert outcome.result.exact
        assert len(outcome.attempts) == 1
        assert outcome.attempts[0].rows == base.num_rows

    def test_covered_query_uses_the_subset_layer(self, base):
        from repro.columnstore.catalog import Catalog

        catalog = Catalog()
        catalog.add_table(base)
        hierarchy = ImpressionHierarchy(
            "base/h", "base", [subset_impression(base, ("x",))]
        )
        processor = BoundedQueryProcessor(catalog, hierarchy)
        outcome = processor.execute(
            Query(
                table="base",
                predicate=Between("x", 20, 40),
                aggregates=[AggregateSpec("count")],
            )
        )
        assert not outcome.result.exact
        assert outcome.attempts[0].rows == 2_000
