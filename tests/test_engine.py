"""Tests for the SciBorq engine facade."""

import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.engine import SciBorq
from repro.errors import ImpressionError, QueryError
from repro.skyserver.schema import create_skyserver_catalog
from repro.skyserver.views import register_skyserver_views
from repro.core.contracts import Contract


def cone_count(ra=150.0, dec=10.0, radius=5.0) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, dec, radius),
        aggregates=[AggregateSpec("count")],
    )


class TestConstruction:
    def test_requires_interest_attributes(self):
        with pytest.raises(ImpressionError, match="attribute of interest"):
            SciBorq(create_skyserver_catalog(), interest_attributes={})

    def test_hierarchy_lookup_before_creation(self, fresh_sky_engine):
        with pytest.raises(ImpressionError, match="no hierarchy"):
            fresh_sky_engine.hierarchy("Field")


class TestHierarchyManagement:
    def test_create_uniform_by_name(self, fresh_sky_engine):
        h = fresh_sky_engine.hierarchy("PhotoObjAll")
        assert h.depth == 2
        assert "uniform" in h.name

    def test_replacing_hierarchy_detaches_old_layers(self, fresh_sky_engine):
        old = fresh_sky_engine.hierarchy("PhotoObjAll")
        fresh_sky_engine.create_hierarchy(
            "PhotoObjAll", policy="uniform", layer_sizes=(2000, 200)
        )
        old_seen = old.layer(0).sampler.seen
        base = fresh_sky_engine.catalog.table("PhotoObjAll")
        batch = {name: base[name][:10].copy() for name in base.column_names}
        fresh_sky_engine.ingest("PhotoObjAll", batch)
        assert old.layer(0).sampler.seen == old_seen  # detached: unchanged
        new = fresh_sky_engine.hierarchy("PhotoObjAll")
        assert new.layer(0).sampler.seen == 10

    def test_unknown_policy_string(self, fresh_sky_engine):
        with pytest.raises(ImpressionError, match="unknown policy"):
            fresh_sky_engine.create_hierarchy("PhotoObjAll", policy="magic")

    def test_last_seen_requires_daily_ingest(self, fresh_sky_engine):
        with pytest.raises(ImpressionError, match="daily_ingest"):
            fresh_sky_engine.create_hierarchy("PhotoObjAll", policy="last-seen")

    def test_last_seen_with_daily_ingest(self, fresh_sky_engine):
        h = fresh_sky_engine.create_hierarchy(
            "PhotoObjAll",
            policy="last-seen",
            layer_sizes=(1000, 100),
            daily_ingest=10_000,
        )
        assert "last-seen" in h.name


class TestQueryPath:
    def test_execute_logs_and_feeds_interest(self, fresh_sky_engine):
        n_logged = len(fresh_sky_engine.query_log)
        interest = fresh_sky_engine.interest
        before = {a: interest.interest_for(a).predicate_set_size for a in ("ra", "dec")}
        fresh_sky_engine.execute(cone_count())
        assert len(fresh_sky_engine.query_log) == n_logged + 1
        for attribute, n in before.items():
            assert interest.interest_for(attribute).predicate_set_size == n + 1

    def test_execute_without_hierarchy_rejected(self, fresh_sky_engine):
        with pytest.raises(QueryError, match="no hierarchy"):
            fresh_sky_engine.execute(
                Query(table="Field", aggregates=[AggregateSpec("count")])
            )

    def test_error_bound_execution(self, fresh_sky_engine):
        outcome = fresh_sky_engine.execute(cone_count(), Contract.within_error(0.1))
        assert outcome.met_quality
        assert outcome.achieved_error <= 0.1

    def test_execute_exact_bypasses_impressions(self, fresh_sky_engine):
        exact = fresh_sky_engine.execute_exact(cone_count())
        bounded = fresh_sky_engine.execute(cone_count(), Contract.within_error(0.0))
        assert bounded.result.estimates["count(*)"].value == exact.scalar(
            "count(*)"
        )

    def test_view_queries_resolve_through_hierarchy(self, fresh_sky_engine):
        register_skyserver_views(fresh_sky_engine.catalog)
        outcome = fresh_sky_engine.execute(
            Query(table="Star", aggregates=[AggregateSpec("count")])
        )
        assert outcome.result.estimates["count(*)"].value > 0


class TestMaintenancePath:
    def test_refresh_uses_layer_below(self, fresh_sky_engine):
        reports = fresh_sky_engine.refresh("PhotoObjAll")
        assert len(reports) == 1  # two layers: one refresh edge
        assert reports[0].tuples_streamed == 5000

    def test_rebuild_touches_base_per_layer(self, fresh_sky_engine):
        reports = fresh_sky_engine.rebuild("PhotoObjAll")
        base_rows = fresh_sky_engine.catalog.table("PhotoObjAll").num_rows
        assert all(r.tuples_streamed == base_rows for r in reports)

    def test_maintain_quiet_without_drift(self, fresh_sky_engine):
        assert fresh_sky_engine.maintain() == {}

    def test_maintain_reacts_to_drift(self, fresh_sky_engine, rng):
        # establish a focus at ra=150, then shift hard to ra=230
        for _ in range(6):
            fresh_sky_engine.planner.observe("ra", rng.normal(150, 2, 100))
        for _ in range(3):
            fresh_sky_engine.planner.observe("ra", rng.normal(230, 2, 100))
        reports = fresh_sky_engine.maintain()
        assert "PhotoObjAll" in reports

    def test_summary_mentions_hierarchy_and_log(self, fresh_sky_engine):
        fresh_sky_engine.execute(cone_count())
        text = fresh_sky_engine.report().render()
        assert "hierarchy" in text and "query log" in text
