"""Tests for multiple named hierarchies per table (paper §3.1)."""

import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import Between, RadialPredicate
from repro.core.contracts import Contract
from repro.errors import ImpressionError
from repro.skyserver.generator import SkyGenerator

#: the hierarchies the ``engine`` fixture holds
NAMES = ("uniform", "last-seen")


@pytest.fixture
def engine(fresh_sky_engine):
    """The fresh engine plus a second, last-seen hierarchy."""
    fresh_sky_engine.create_hierarchy(
        "PhotoObjAll",
        policy="last-seen",
        layer_sizes=(3_000, 300),
        daily_ingest=10_000,
        make_default=False,
    )
    return fresh_sky_engine


class TestRegistry:
    def test_both_hierarchies_resolve(self, engine):
        for name in NAMES:
            assert name in engine.hierarchy("PhotoObjAll", name).name
            processor = engine.processor("PhotoObjAll", name)
            assert processor.hierarchy is engine.hierarchy("PhotoObjAll", name)

    def test_default_unchanged_when_not_requested(self, engine):
        default = engine.hierarchy("PhotoObjAll")
        assert "uniform" in default.name

    def test_named_lookup(self, engine):
        assert "last-seen" in engine.hierarchy("PhotoObjAll", "last-seen").name

    def test_unknown_name_rejected(self, engine):
        with pytest.raises(ImpressionError, match="no hierarchy named"):
            engine.hierarchy("PhotoObjAll", "ghost")

    def test_make_default_switches(self, engine):
        engine.create_hierarchy(
            "PhotoObjAll",
            policy="uniform",
            layer_sizes=(2_000, 200),
            name="fresh",
            make_default=True,
        )
        assert "fresh" in engine.hierarchy("PhotoObjAll").name

    def test_unknown_processor_rejected(self, engine):
        with pytest.raises(ImpressionError, match="no hierarchy named"):
            engine.processor("PhotoObjAll", "ghost")


class TestParallelFeeding:
    def test_loads_feed_every_hierarchy(self, engine):
        batch = SkyGenerator(rng=91).photoobj_batch(5_000)
        engine.ingest("PhotoObjAll", batch)
        for name in NAMES:
            layer0 = engine.hierarchy("PhotoObjAll", name).layer(0)
            assert layer0.sampler.seen >= 5_000

    def test_replaced_hierarchy_stops_receiving(self, engine):
        replaced = engine.hierarchy("PhotoObjAll", "last-seen")
        engine.create_hierarchy(
            "PhotoObjAll",
            policy="last-seen",
            layer_sizes=(3_000, 300),
            daily_ingest=10_000,
            make_default=False,
        )
        seen_before = replaced.layer(0).sampler.seen
        engine.ingest("PhotoObjAll", SkyGenerator(rng=92).photoobj_batch(1_000))
        assert replaced.layer(0).sampler.seen == seen_before
        successor = engine.hierarchy("PhotoObjAll", "last-seen")
        assert successor is not replaced
        assert successor.layer(0).sampler.seen == 1_000


class TestQueryRouting:
    def cone(self):
        return Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 150.0, 10.0, 5.0),
            aggregates=[AggregateSpec("count")],
        )

    def test_execute_routes_to_named_hierarchy(self, engine):
        outcome = engine.execute(self.cone(), Contract(hierarchy="last-seen"))
        assert "last-seen" in outcome.attempts[0].source

    def test_execute_defaults_to_default(self, engine):
        outcome = engine.execute(self.cone())
        assert "uniform" in outcome.attempts[0].source

    def test_recency_query_per_policy(self, engine):
        """The scenario the paper motivates: a Last Seen hierarchy for
        temporal queries alongside a general-purpose one."""
        # a later ingest whose observation clock continues past the
        # initial load's (mjd identifies recency, as in the paper)
        late = SkyGenerator(rng=93, mjd_start=56_000.0)
        engine.ingest("PhotoObjAll", late.photoobj_batch(10_000))
        recency_query = Query(
            table="PhotoObjAll",
            predicate=Between("mjd", 56_000.0, 1e9),
            select=("objID", "mjd"),
        )
        uniform_rows = engine.execute(recency_query).result.rows
        last_seen_rows = engine.execute(
            recency_query, Contract(hierarchy="last-seen")
        ).result.rows
        # the last-seen hierarchy simply holds more recent tuples
        assert last_seen_rows.num_rows >= uniform_rows.num_rows


class TestMaintenanceAcrossHierarchies:
    def test_maintain_refreshes_all(self, engine, rng):
        for _ in range(6):
            engine.planner.observe("ra", rng.normal(150, 2, 100))
        for _ in range(3):
            engine.planner.observe("ra", rng.normal(230, 2, 100))
        reports = engine.maintain()
        targets = {r.target for r in reports["PhotoObjAll"]}
        # one refresh edge per hierarchy (each has two layers)
        assert any("uniform" in t for t in targets)
        assert any("last-seen" in t for t in targets)