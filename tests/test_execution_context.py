"""Tests for per-execution cost contexts and throughput calibration.

The contract under test is the tentpole of the concurrency layer:
each query's spending is metered in its own
:class:`~repro.util.clock.ExecutionContext`, observer clocks only
aggregate, and two contexts can never corrupt each other's budgets —
even when charged from many threads at once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.bounded import BoundedQueryProcessor
from repro.core.maintenance import rebuild_from_base
from repro.core.policy import UniformPolicy, build_hierarchy
from repro.util.clock import CostClock, ExecutionContext, WallClock


class TestExecutionContext:
    def test_private_meter_starts_at_zero(self):
        context = ExecutionContext(clock=CostClock())
        assert context.spent == 0.0
        assert not context.is_wall

    def test_two_contexts_on_one_clock_are_isolated(self):
        shared = CostClock()
        first = ExecutionContext(clock=shared)
        second = ExecutionContext(clock=shared)
        first.charge(100)
        second.charge(7)
        assert first.spent == 100
        assert second.spent == 7
        assert shared.now == 107  # observer aggregates everything

    def test_observers_all_receive_charges(self):
        engine_clock = CostClock()
        session_clock = CostClock()
        context = ExecutionContext(
            clock=engine_clock, observers=(session_clock,)
        )
        context.charge(42)
        assert engine_clock.now == 42
        assert session_clock.now == 42
        assert context.spent == 42

    def test_budget_arithmetic(self):
        context = ExecutionContext(clock=CostClock(), limit=10)
        assert context.affords(10)
        assert not context.affords(11)
        context.charge(4)
        assert context.remaining == 6
        context.charge(6)
        assert context.remaining == 0.0
        assert not context.affords(1)

    def test_unbounded_context(self):
        context = ExecutionContext(clock=CostClock())
        assert context.remaining == float("inf")
        assert context.deadline is None
        assert context.affords(1e18)

    def test_deadline_on_cost_meter(self):
        context = ExecutionContext(clock=CostClock(), limit=25)
        assert context.deadline == 25

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ExecutionContext(clock=CostClock()).charge(-1)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ExecutionContext(clock=CostClock(), limit=-1)

    def test_no_clock_at_all(self):
        context = ExecutionContext()
        context.charge(3)
        assert context.spent == 3

    def test_wall_mode_measures_elapsed_not_charges(self):
        wall = WallClock()
        context = ExecutionContext(clock=wall, limit=30.0)
        assert context.is_wall
        context.charge(1e9)  # forwarded units must not move the meter
        assert context.spent < 1.0
        assert context.deadline is not None
        assert context.deadline > wall.now

    def test_wall_mode_forwards_units_to_cost_observers(self):
        session_clock = CostClock()
        context = ExecutionContext(
            clock=WallClock(), observers=(session_clock,)
        )
        context.charge(500)
        assert session_clock.now == 500  # deterministic aggregate survives


class TestContextIsolationUnderContention:
    def test_concurrent_contexts_never_leak(self):
        """N threads, one shared observer clock, exact per-context spend."""
        shared = CostClock()
        n_threads, charges_each = 8, 500

        def worker(thread_index: int) -> float:
            context = ExecutionContext(clock=shared, limit=None)
            for _ in range(charges_each):
                context.charge(thread_index + 1)
            return context.spent

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            spends = list(pool.map(worker, range(n_threads)))

        for thread_index, spent in enumerate(spends):
            assert spent == (thread_index + 1) * charges_each
        assert shared.now == sum(spends)

    def test_concurrent_budgets_stay_independent(self):
        """One context exhausting its budget must not exhaust siblings."""
        shared = CostClock()
        tight = ExecutionContext(clock=shared, limit=10)
        roomy = ExecutionContext(clock=shared, limit=10_000)

        def spend(context: ExecutionContext, units: float) -> None:
            for _ in range(10):
                context.charge(units)

        with ThreadPoolExecutor(max_workers=2) as pool:
            pool.submit(spend, tight, 1.0).result()
            pool.submit(spend, roomy, 100.0).result()

        assert tight.remaining == 0.0 and tight.spent == 10
        assert roomy.remaining == 9_000 and roomy.spent == 1_000
        assert shared.now == 1_010


@pytest.fixture
def wall_processor(sky_engine) -> BoundedQueryProcessor:
    hierarchy = build_hierarchy(
        "PhotoObjAll", UniformPolicy(layer_sizes=(10_000, 1_000, 100)), rng=55
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


class TestWallClockThroughputCalibration:
    def test_pre_calibration_is_optimistic(self, wall_processor):
        """Before any observation, every rung must look affordable."""
        context = wall_processor.new_context(limit=1e-6)
        assert wall_processor._throughput is None
        assert wall_processor._budget_units(1e12, context) == 0.0

    def test_first_observation_sets_throughput(self, wall_processor):
        context = wall_processor.new_context()
        wall_processor._observe_throughput(1_000.0, 0.5, context)
        assert wall_processor._throughput == pytest.approx(2_000.0)

    def test_observations_average_pairwise(self, wall_processor):
        """Calibration is the running half-half average of observations."""
        context = wall_processor.new_context()
        wall_processor._observe_throughput(1_000.0, 1.0, context)  # 1000 t/s
        wall_processor._observe_throughput(3_000.0, 1.0, context)  # 3000 t/s
        assert wall_processor._throughput == pytest.approx(2_000.0)
        wall_processor._observe_throughput(500.0, 0.25, context)  # 2000 t/s
        assert wall_processor._throughput == pytest.approx(2_000.0)

    def test_zero_elapsed_is_ignored(self, wall_processor):
        context = wall_processor.new_context()
        wall_processor._observe_throughput(1_000.0, 0.0, context)
        assert wall_processor._throughput is None

    def test_cost_context_never_calibrates(self, sky_engine):
        processor = sky_engine.processor("PhotoObjAll")
        context = processor.new_context()
        processor._observe_throughput(1_000.0, 0.5, context)
        assert processor._throughput is None
        # ...and predictions pass through unconverted
        assert processor._budget_units(12_345.0, context) == 12_345.0

    def test_calibration_converts_predictions_to_seconds(self, wall_processor):
        context = wall_processor.new_context()
        wall_processor._observe_throughput(10_000.0, 1.0, context)
        assert wall_processor._budget_units(5_000.0, context) == pytest.approx(0.5)

    def test_execution_calibrates_end_to_end(self, wall_processor):
        outcome = wall_processor.execute(cone())
        assert outcome.result is not None
        assert wall_processor._throughput is not None
        assert wall_processor._throughput > 0

    def test_calibration_ignores_zero_charge_observations(self, wall_processor):
        context = wall_processor.new_context()
        wall_processor._observe_throughput(0.0, 0.5, context)
        assert wall_processor._throughput is None

    def test_calibration_uses_charged_not_predicted(self, wall_processor):
        """Regression: calibration blended the *predicted* cost over
        elapsed time, so a misestimating planner skewed the tuples/sec
        rate.  The observation must be the tuples actually charged to
        the context."""
        observations = []
        original = wall_processor._observe_throughput

        def spy(charged, elapsed, context):
            observations.append(charged)
            return original(charged, elapsed, context)

        wall_processor._observe_throughput = spy
        # a planner that is wrong by six orders of magnitude
        wall_processor._predicted_cost = lambda query, rung, base: 1e12

        aggregate = CostClock()
        context = ExecutionContext(clock=WallClock(), observers=(aggregate,))
        wall_processor.execute(cone(), context=context)

        assert observations, "execution must calibrate"
        # every observation is real charged work, never the prediction
        assert all(charged < 1e12 for charged in observations)
        assert sum(observations) == pytest.approx(aggregate.now)


class TestChargedUnits:
    def test_cost_mode_charged_equals_spent(self):
        context = ExecutionContext(clock=CostClock())
        context.charge(25)
        assert context.charged_units == context.spent == 25

    def test_wall_mode_counts_charged_units_separately(self):
        context = ExecutionContext(clock=WallClock())
        context.charge(1_000)
        context.charge(500)
        assert context.charged_units == 1_500
        assert context.spent < 1.0  # the meter itself is seconds


class TestContractContextAgreement:
    def test_unlimited_context_still_enforces_contract_budget(self, sky_engine):
        """A caller-opened meter must still enforce the time budget —
        without the processor mutating the caller's context."""
        from repro.core.contracts import Contract

        processor = sky_engine.processor("PhotoObjAll")
        context = processor.new_context()  # limit=None
        outcome = processor.execute(
            cone(),
            Contract(max_relative_error=0.0, time_budget=5_000),
            context=context,
        )
        assert context.limit is None  # caller's context untouched
        assert outcome.total_cost <= 5_000
        assert outcome.met_budget

    def test_reused_context_budgets_are_per_call(self, sky_engine):
        """Budgets apply to each call's own spending, so a reused
        context neither inherits stale limits nor double-counts."""
        from repro.core.contracts import Contract

        processor = sky_engine.processor("PhotoObjAll")
        context = processor.new_context()
        budgeted = Contract(max_relative_error=0.0, time_budget=5_000)
        first = processor.execute(cone(), budgeted, context=context)
        assert first.met_budget and first.total_cost <= 5_000
        # same budgeted contract again: judged on this call only, not
        # on the context's cumulative spend
        second = processor.execute(cone(), budgeted, context=context)
        assert second.met_budget and second.total_cost <= 5_000
        # an unbounded contract on the same context escalates freely
        third = processor.execute(
            cone(), Contract(max_relative_error=0.0), context=context
        )
        assert third.achieved_error == 0.0  # reached the exact base rung
        assert context.spent == (
            first.total_cost + second.total_cost + third.total_cost
        )
