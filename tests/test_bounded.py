"""Tests for the bounded query processor (paper §3.2)."""

import numpy as np
import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.columnstore.operators import scan_plan
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.errors import BudgetExceededError, QualityBoundError, QueryError


@pytest.fixture
def processor(sky_engine) -> BoundedQueryProcessor:
    return sky_engine.processor("PhotoObjAll")


def cone_count(radius=5.0) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", 150.0, 10.0, radius),
        aggregates=[AggregateSpec("count")],
    )


class TestContract:
    def test_validation(self):
        with pytest.raises(QueryError):
            Contract(max_relative_error=-0.1)
        with pytest.raises(QueryError):
            Contract(time_budget=-1)
        with pytest.raises(QueryError):
            Contract(confidence=1.0)

    def test_defaults_unconstrained(self):
        contract = Contract()
        assert contract.max_relative_error is None
        assert contract.time_budget is None


class TestUnconstrainedExecution:
    def test_answers_from_smallest_layer(self, processor):
        outcome = processor.execute(cone_count())
        assert len(outcome.attempts) == 1
        assert outcome.attempts[0].rows == 100  # smallest layer
        assert outcome.met_quality and outcome.met_budget

    def test_wrong_table_rejected(self, processor):
        with pytest.raises(QueryError, match="processor serves"):
            processor.execute(Query(table="Field"))


class TestErrorBoundEscalation:
    def test_escalates_until_bound_met(self, processor):
        outcome = processor.execute(
            cone_count(), Contract(max_relative_error=0.05)
        )
        assert outcome.met_quality
        assert outcome.achieved_error <= 0.05
        assert outcome.escalations >= 1
        # attempts are ordered small to large
        rows = [a.rows for a in outcome.attempts]
        assert rows == sorted(rows)

    def test_zero_error_bound_reaches_base_data(self, processor, sky_engine):
        outcome = processor.execute(
            cone_count(), Contract(max_relative_error=0.0)
        )
        assert outcome.result.exact
        assert outcome.achieved_error == 0.0
        assert outcome.attempts[-1].rows == sky_engine.catalog.table(
            "PhotoObjAll"
        ).num_rows

    def test_loose_bound_stops_early(self, processor):
        loose = processor.execute(
            cone_count(), Contract(max_relative_error=0.5)
        )
        tight = processor.execute(
            cone_count(), Contract(max_relative_error=0.02)
        )
        assert loose.total_cost < tight.total_cost

    def test_base_answer_matches_exact_executor(self, processor, sky_engine):
        outcome = processor.execute(
            cone_count(), Contract(max_relative_error=0.0)
        )
        exact = sky_engine.execute_exact(cone_count())
        assert outcome.result.estimates["count(*)"].value == exact.scalar(
            "count(*)"
        )


class TestTimeBounds:
    def test_budget_limits_escalation(self, processor):
        # enough for the two smaller layers only (100 + 1000 rows + agg)
        outcome = processor.execute(
            cone_count(),
            Contract(max_relative_error=0.0001, time_budget=5_000),
        )
        assert not outcome.met_quality  # bound unreachable in budget
        assert outcome.total_cost <= 5_000
        assert outcome.attempts[-1].rows < 10_000

    def test_generous_budget_allows_base(self, processor):
        outcome = processor.execute(
            cone_count(),
            Contract(max_relative_error=0.0, time_budget=10_000_000),
        )
        assert outcome.met_quality and outcome.met_budget

    def test_best_attempt_returned_when_budget_binds(self, processor):
        outcome = processor.execute(
            cone_count(),
            Contract(max_relative_error=0.001, time_budget=3_000),
        )
        # the best (largest affordable) answer is the one reported
        errors = [a.relative_error for a in outcome.attempts]
        assert outcome.achieved_error == min(errors)

    def test_tiny_budget_still_answers(self, processor):
        outcome = processor.execute(
            cone_count(), Contract(time_budget=10)
        )
        assert outcome.result is not None
        assert len(outcome.attempts) == 1
        assert not outcome.met_budget  # even the smallest layer overran


class TestUnanswerableRungs:
    def test_avg_over_unsampled_region_escalates(self, processor, sky_engine):
        """An AVG whose region the tiny layer missed must escalate,
        not crash: the layer records an infinite-error attempt."""
        from repro.columnstore.expressions import Between

        base = sky_engine.catalog.table("PhotoObjAll")
        # a sliver of ra that exists in the base but is very unlikely
        # to be in the 100-row smallest layer
        ra = np.sort(base["ra"])
        sliver = Query(
            table="PhotoObjAll",
            predicate=Between("ra", ra[10], ra[12]),
            aggregates=[AggregateSpec("avg", "r_mag")],
        )
        outcome = processor.execute(sliver)
        assert outcome.result is not None
        assert np.isfinite(
            outcome.result.estimates["avg(r_mag)"].value
        ) or outcome.result.exact
        # at least one rung was recorded as unanswerable or escalated
        assert len(outcome.attempts) >= 1

    @pytest.mark.parametrize("delta", [True, False], ids=["delta", "scratch"])
    def test_base_is_the_answer_of_last_resort(self, sky_engine, delta):
        """The tiny layer cannot answer and the budget blocks every
        further rung: the base answers anyway, over budget, as one more
        rung step — folding the scanned layer in when it can."""
        from repro.columnstore.expressions import Between

        base = sky_engine.catalog.table("PhotoObjAll")
        hierarchy = sky_engine.hierarchy("PhotoObjAll")
        smallest = hierarchy.layers[-1]
        sampled = set(smallest.row_ids.tolist())
        order = np.argsort(base["ra"])
        start = next(
            i
            for i in range(len(order) - 2)
            if not sampled & set(order[i : i + 3].tolist())
        )
        sliver = Query(
            table="PhotoObjAll",
            predicate=Between(
                "ra", base["ra"][order[start]], base["ra"][order[start + 2]]
            ),
            aggregates=[AggregateSpec("avg", "r_mag")],
        )
        processor = BoundedQueryProcessor(
            sky_engine.catalog, hierarchy, delta_escalation=delta
        )
        stream = processor.run(sliver, Contract(time_budget=150))
        updates = []
        while True:
            try:
                updates.append(next(stream))
            except StopIteration as stop:
                outcome = stop.value
                break
        unanswerable, last_resort = outcome.attempts
        assert unanswerable.source == smallest.name
        assert unanswerable.relative_error == float("inf")
        assert not unanswerable.satisfied
        assert last_resort.source == base.name
        assert last_resort.rows == base.num_rows
        assert last_resort.satisfied and last_resort.relative_error == 0.0
        assert outcome.met_quality and not outcome.met_budget
        assert outcome.total_cost == sum(a.cost for a in outcome.attempts)
        # the fold pays only the rows the scanned layer did not cover,
        # and of those only the zones of the complement (laid out by
        # interest cell) that the sliver's zone maps cannot rule out
        if delta:
            complement = smallest.materialise_complement(base)
            assert complement.num_rows == base.num_rows - smallest.size
            assert last_resort.delta_rows == scan_plan(complement, sliver.predicate)[1]
            assert last_resort.delta_rows <= complement.num_rows // 4
        else:
            assert last_resort.delta_rows is None
        exact = sky_engine.execute_exact(sliver).scalar("avg(r_mag)")
        assert outcome.result.estimates["avg(r_mag)"].value == exact
        # one update per rung, the last one carrying the final outcome
        assert [u.rung for u in updates] == [0, 1]
        assert updates[0].result is None and updates[0].partial is None
        assert updates[1].partial.attempts == outcome.attempts
        assert updates[1].partial.total_cost == outcome.total_cost


class TestStrictMode:
    def test_quality_violation_raises(self, processor):
        with pytest.raises(QualityBoundError, match="error bound"):
            processor.execute(
                cone_count(),
                Contract(
                    max_relative_error=0.0001, time_budget=2_000, strict=True
                ),
            )

    def test_budget_violation_raises(self, processor):
        with pytest.raises(BudgetExceededError, match="budget"):
            processor.execute(
                cone_count(), Contract(time_budget=10, strict=True)
            )


class TestGroupedQueries:
    def test_grouped_aggregate_with_loose_bound(self, processor):
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("count")],
            group_by=("obj_type",),
        )
        outcome = processor.execute(q, Contract(max_relative_error=0.5))
        groups = outcome.result.groups
        assert groups is not None
        assert groups.num_rows == 2  # GALAXY and STAR

    def test_grouped_zero_bound_reaches_exact(self, processor, sky_engine):
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("count")],
            group_by=("obj_type",),
        )
        outcome = processor.execute(q, Contract(max_relative_error=0.0))
        assert outcome.result.exact
        total = outcome.result.groups["count(*)"].sum()
        assert total == sky_engine.catalog.table("PhotoObjAll").num_rows

    def test_many_small_groups_force_escalation(self, processor):
        """Per-group error bounds: rare groups have huge relative
        errors on small layers, so a tight bound escalates."""
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("count")],
            group_by=("fieldID",),
        )
        loose = processor.execute(q, Contract(max_relative_error=None))
        tight = processor.execute(q, Contract(max_relative_error=0.2))
        assert tight.total_cost > loose.total_cost


class TestUnpricedClimb:
    """Without a time budget or a context limit nothing can refuse a
    rung, so the ladder prices none — and climbs exactly as under a
    budget that admits every rung."""

    QUERIES = {
        "aggregate": cone_count(),
        "rows": Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 150.0, 10.0, 8.0),
            select=("objID", "ra", "dec", "r_mag"),
            order_by="r_mag",
            limit=50,
        ),
    }

    @pytest.mark.parametrize("shape", list(QUERIES))
    def test_no_prediction_and_the_same_climb(self, processor, monkeypatch, shape):
        from repro.core import bounded

        priced = []
        original = bounded.estimate_cost

        def spy(*args, **kwargs):
            priced.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(bounded, "estimate_cost", spy)
        query = self.QUERIES[shape]
        free = processor.execute(query, Contract(max_relative_error=0.0))
        assert priced == []
        context = processor.new_context(limit=1e15)
        budgeted = processor.execute(
            query, Contract(max_relative_error=0.0, time_budget=1e15), context
        )
        assert priced  # the budget priced the rungs it could refuse
        assert free.attempts == budgeted.attempts
        assert len(free.attempts) == len(processor.hierarchy.layers) + 1
        assert free.total_cost == budgeted.total_cost
        assert free.result.estimates == budgeted.result.estimates
        assert free.result.support == budgeted.result.support
        if shape == "rows":
            assert free.result.rows.column_names == budgeted.result.rows.column_names
            for name in free.result.rows.column_names:
                np.testing.assert_array_equal(
                    free.result.rows[name], budgeted.result.rows[name]
                )


class TestRowQueriesBounded:
    def test_row_query_support_error_drives_escalation(self, processor):
        from repro.columnstore.expressions import Between

        q = Query(
            table="PhotoObjAll",
            predicate=Between("ra", 140, 160),
            select=("objID", "ra"),
            limit=25,
        )
        outcome = processor.execute(q, Contract(max_relative_error=0.05))
        assert outcome.met_quality
        rows = outcome.result.rows
        assert rows.num_rows <= 25
        assert (rows["ra"] >= 140).all()


class TestResultRecord:
    def test_describe_traces_the_ladder(self, processor):
        outcome = processor.execute(
            cone_count(), Contract(max_relative_error=0.05)
        )
        text = outcome.describe()
        assert "attempt" in text
        assert str(len(outcome.attempts)) in text

    def test_attempt_costs_sum_to_total(self, processor):
        outcome = processor.execute(
            cone_count(), Contract(max_relative_error=0.02)
        )
        assert sum(a.cost for a in outcome.attempts) == pytest.approx(
            outcome.total_cost
        )
