"""Tests for quality assessment: estimates with error bounds."""

import math

import numpy as np
import pytest

from repro.columnstore import AggregateSpec, Between, JoinSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.quality import ImpressionEstimator
from repro.errors import EstimationError


@pytest.fixture
def estimator(sky_engine) -> ImpressionEstimator:
    return ImpressionEstimator(sky_engine.catalog)


@pytest.fixture
def layer0(sky_engine):
    return sky_engine.hierarchy("PhotoObjAll").layer(0)


def cone_count(ra=150.0, dec=10.0, radius=5.0) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, dec, radius),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
    )


class TestScalarEstimates:
    def test_estimates_close_to_exact(self, sky_engine, estimator, layer0):
        result = estimator.estimate(cone_count(), layer0)
        exact = sky_engine.execute_exact(cone_count())
        count_est = result.estimates["count(*)"]
        avg_est = result.estimates["avg(r_mag)"]
        assert count_est.value == pytest.approx(
            exact.scalar("count(*)"), rel=0.15
        )
        assert avg_est.value == pytest.approx(exact.scalar("avg(r_mag)"), rel=0.02)

    def test_intervals_cover_truth_most_of_the_time(
        self, sky_engine, estimator, layer0
    ):
        covered = 0
        queries = [
            cone_count(150, 10, r) for r in (3.0, 4.0, 5.0, 6.0, 8.0)
        ] + [cone_count(205, 40, r) for r in (3.0, 4.0, 5.0, 6.0, 8.0)]
        for q in queries:
            result = estimator.estimate(q, layer0)
            exact = sky_engine.execute_exact(q)
            covered += result.estimates["count(*)"].contains(
                exact.scalar("count(*)")
            )
        assert covered >= 8  # 95% nominal over 10 queries

    def test_sum_estimate(self, sky_engine, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            predicate=Between("ra", 140, 160),
            aggregates=[AggregateSpec("sum", "r_mag")],
        )
        result = estimator.estimate(q, layer0)
        exact = sky_engine.execute_exact(q)
        assert result.estimates["sum(r_mag)"].value == pytest.approx(
            exact.scalar("sum(r_mag)"), rel=0.1
        )

    def test_min_max_have_unbounded_error(self, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("min", "r_mag"), AggregateSpec("max", "r_mag")],
        )
        result = estimator.estimate(q, layer0)
        assert result.estimates["min(r_mag)"].se == math.inf
        assert result.worst_relative_error == math.inf

    def test_var_std_plugin_estimates(self, sky_engine, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("var", "r_mag"), AggregateSpec("std", "r_mag")],
        )
        result = estimator.estimate(q, layer0)
        exact_var = sky_engine.catalog.table("PhotoObjAll")["r_mag"].var(ddof=1)
        assert result.estimates["var(r_mag)"].value == pytest.approx(
            exact_var, rel=0.1
        )
        assert result.estimates["std(r_mag)"].value == pytest.approx(
            math.sqrt(exact_var), rel=0.05
        )

    def test_avg_over_empty_region_raises(self, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            predicate=Between("ra", 120.0, 120.0001),  # almost surely unsampled
            aggregates=[AggregateSpec("avg", "r_mag")],
        )
        with pytest.raises(EstimationError, match="matching"):
            estimator.estimate(q, layer0)

    def test_smaller_layer_has_larger_error(self, sky_engine, estimator):
        hierarchy = sky_engine.hierarchy("PhotoObjAll")
        big = estimator.estimate(cone_count(), hierarchy.layer(0))
        small = estimator.estimate(cone_count(), hierarchy.layer(1))
        assert (
            small.estimates["count(*)"].relative_error
            > big.estimates["count(*)"].relative_error
        )


class TestJoins:
    def test_join_carries_dimension_values(self, sky_engine, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            predicate=Between("ra", 140, 160),
            joins=[JoinSpec("Field", "fieldID", "fieldID", ("sky_brightness",))],
            aggregates=[AggregateSpec("avg", "sky_brightness")],
        )
        result = estimator.estimate(q, layer0)
        exact = sky_engine.execute_exact(q)
        assert result.estimates["avg(sky_brightness)"].value == pytest.approx(
            exact.scalar("avg(sky_brightness)"), rel=0.02
        )


class TestGroupedEstimates:
    def test_group_counts_sum_to_total_estimate(self, sky_engine, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("count")],
            group_by=("obj_type",),
        )
        result = estimator.estimate(q, layer0)
        assert result.groups is not None
        total = result.groups["count(*)"].sum()
        assert total == pytest.approx(
            sky_engine.catalog.table("PhotoObjAll").num_rows, rel=0.05
        )
        assert "count(*)__se" in result.groups.column_names

    def test_group_estimates_close_to_exact(self, sky_engine, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("avg", "r_mag")],
            group_by=("obj_type",),
        )
        result = estimator.estimate(q, layer0)
        exact = sky_engine.execute_exact(q)
        est_by_type = dict(
            zip(result.groups["obj_type"], result.groups["avg(r_mag)"])
        )
        for obj_type, avg in zip(exact.rows["obj_type"], exact.rows["avg(r_mag)"]):
            assert est_by_type[obj_type] == pytest.approx(avg, rel=0.03)

    def test_order_and_limit_applied_to_groups(self, estimator, layer0):
        q = Query(
            table="PhotoObjAll",
            aggregates=[AggregateSpec("count")],
            group_by=("fieldID",),
            order_by="count(*)",
            descending=True,
            limit=5,
        )
        result = estimator.estimate(q, layer0)
        counts = result.groups["count(*)"]
        assert counts.shape[0] == 5
        assert (np.diff(counts) <= 1e-9).all()


class TestRowQueries:
    def test_rows_come_from_sample_with_support_estimate(
        self, sky_engine, estimator, layer0
    ):
        q = Query(
            table="PhotoObjAll",
            predicate=Between("ra", 140, 160),
            select=("objID", "ra"),
            limit=20,
        )
        result = estimator.estimate(q, layer0)
        assert result.rows.num_rows <= 20
        assert (result.rows["ra"] >= 140).all()
        exact = sky_engine.execute_exact(
            Query(
                table="PhotoObjAll",
                predicate=Between("ra", 140, 160),
                aggregates=[AggregateSpec("count")],
            )
        )
        assert result.support.value == pytest.approx(
            exact.scalar("count(*)"), rel=0.15
        )

    def test_pi_column_hidden_from_output(self, estimator, layer0):
        q = Query(table="PhotoObjAll", predicate=Between("ra", 140, 160))
        result = estimator.estimate(q, layer0)
        assert "_pi" not in result.rows.column_names

    def test_limit_returns_representative_not_first(self, estimator, layer0):
        """The paper's LIMIT semantics: sampled rows, not a prefix of
        the base table."""
        q = Query(table="PhotoObjAll", select=("objID",), limit=50)
        result = estimator.estimate(q, layer0)
        # a base-table prefix would be objID 0..49; the sample spans
        # the whole table
        assert result.rows["objID"].max() > 10_000

    def test_describe_mentions_source(self, estimator, layer0):
        result = estimator.estimate(cone_count(), layer0)
        assert layer0.name in result.describe()
