"""Wall-clock time bounds — the paper's literal "within 5 minutes".

The deterministic cost clock is the default (reproducible bounds);
these tests exercise the :class:`~repro.util.clock.WallClock` adapter
end to end, so "seconds" budgets work too.
"""

import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.maintenance import rebuild_from_base
from repro.core.policy import UniformPolicy, build_hierarchy
from repro.util.clock import WallClock


@pytest.fixture
def wall_processor(sky_engine) -> BoundedQueryProcessor:
    hierarchy = build_hierarchy(
        "PhotoObjAll", UniformPolicy(layer_sizes=(10_000, 1_000, 100)), rng=77
    )
    rebuild_from_base(hierarchy, sky_engine.catalog.table("PhotoObjAll"))
    return BoundedQueryProcessor(
        sky_engine.catalog, hierarchy, clock=WallClock()
    )


def cone() -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", 150.0, 10.0, 5.0),
        aggregates=[AggregateSpec("count")],
    )


class TestWallClockBudgets:
    def test_generous_seconds_budget_reaches_exact(self, wall_processor):
        outcome = wall_processor.execute(
            cone(),
            Contract(max_relative_error=0.0, time_budget=30.0),
        )
        assert outcome.met_quality
        assert outcome.achieved_error == 0.0
        assert outcome.total_cost < 30.0  # seconds actually spent

    def test_tiny_seconds_budget_still_answers(self, wall_processor):
        # estimated *cost* (tuples) never fits a 1e-9 second budget,
        # so only the mandatory smallest-layer answer runs
        outcome = wall_processor.execute(
            cone(), Contract(time_budget=1e-9)
        )
        assert outcome.result is not None
        assert len(outcome.attempts) == 1

    def test_spent_seconds_are_monotone_along_ladder(self, wall_processor):
        outcome = wall_processor.execute(
            cone(), Contract(max_relative_error=0.0)
        )
        assert outcome.total_cost >= 0.0
        assert all(a.cost >= 0.0 for a in outcome.attempts)
