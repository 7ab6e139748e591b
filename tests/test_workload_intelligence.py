"""Tests for collaborative workload intelligence.

The mined model is advice and a shareable artifact: the miner folds
the log deterministically and exactly once, the model persists and
reloads to identical predictions, and the service — installed with
``engine.set_intelligence`` and nothing else — mines on demand, so a
read straight after a batch of queries equals mining after each one.
An engine carrying a service answers, charges and reacts to drift
exactly like one without.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import Between, RadialPredicate
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.intelligence import WorkloadIntelligenceService
from repro.core.persistence import load_intelligence, save_intelligence
from repro.core.server import SciBorqServer
from repro.errors import ImpressionError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.skyserver.workload_gen import FocalPoint, WorkloadGenerator
from repro.workload.intelligence import (
    RegionPopularityModel,
    WorkloadMiner,
    paired_coordinates,
)
from repro.workload.log import QueryLog, QueryOutcome


def make_engine(seed: int = 701) -> SciBorq:
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=seed,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(5_000, 500)
    )
    build_skyserver(
        30_000, generator=SkyGenerator(rng=seed + 1), loader=engine.loader
    )
    return engine


def cone(ra: float, dec: float, radius: float) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, dec, radius),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
    )


def _same(a: float, b: float) -> bool:
    """Bit-for-bit float equality that treats NaN == NaN."""
    return a == b or (np.isnan(a) and np.isnan(b))


def small_model(bins: int = 8) -> RegionPopularityModel:
    return RegionPopularityModel("ra", "dec", (0.0, 360.0), (-90.0, 90.0), bins)


def seeded_log(count: int = 40, seed: int = 5) -> QueryLog:
    generator = WorkloadGenerator(
        focal_points=[FocalPoint(ra=180.0, dec=0.0, spread_ra=4.0)],
        rng=seed,
    )
    log = QueryLog()
    for i, query in enumerate(generator.queries(count)):
        entry = log.record(query)
        log.settle(
            entry.sequence,
            QueryOutcome(
                tuples_charged=100.0 + i,
                rungs_climbed=1 + i % 3,
                achieved_error=0.01 * (i % 5),
                wall_seconds=0.01,
                session_id=i % 2,
            ),
        )
    return log


# ----------------------------------------------------------------------
# RegionPopularityModel
# ----------------------------------------------------------------------
class TestModel:
    def test_observe_accumulates_popularity_and_profile(self):
        model = small_model()
        log = seeded_log(30)
        for entry in log.snapshot():
            model.observe_entry(entry)
        assert model.total > 0
        assert model.table_counts["PhotoObjAll"] == 30
        assert model.counts.sum() == model.total
        assert model.settled.sum() > 0
        # the focal cell dominates
        hot = model.hot_cells(1)[0]
        assert hot.contains(180.0, 0.0) or hot.share > 0.1

    def test_unpaired_queries_count_tables_but_not_cells(self):
        model = small_model()
        log = QueryLog()
        entry = log.record(
            Query(
                table="PhotoObjAll",
                predicate=Between("r_mag", 15.0, 16.0),
                aggregates=[AggregateSpec("count")],
            )
        )
        model.observe_entry(entry)
        assert model.total == 0
        assert model.table_counts["PhotoObjAll"] == 1

    def test_hot_cells_deterministic_under_ties(self):
        model = small_model()
        model.counts[1, 2] = 5
        model.counts[3, 4] = 5
        model.total = 10
        first = model.hot_cells(2)
        again = model.hot_cells(2)
        assert first == again
        # ties broken by flat cell index, ascending
        assert (first[0].x_lo, first[0].y_lo) < (first[1].x_lo, first[1].y_lo)

    def test_decay_cools_abandoned_regions(self):
        model = small_model()
        log = seeded_log(20)
        for entry in log.snapshot():
            model.observe_entry(entry)
        before = model.counts.sum()
        model.decay(0.5)
        assert 0 < model.counts.sum() < before
        assert model.total == model.counts.sum()
        for _ in range(20):
            model.decay(0.1)
        assert model.total == 0
        assert model.hot_cells(4) == []
        assert model.table_counts == {}

    def test_recommendation_requires_support(self):
        model = small_model()
        log = seeded_log(40)
        for entry in log.snapshot():
            model.observe_entry(entry)
        assert model.recommendation_at(0.0, -89.0, min_support=3) is None
        rec = model.recommendation_at(180.0, 0.0, min_support=3)
        assert rec is not None
        assert rec.support >= 3
        assert 1.0 <= rec.mean_rungs <= 3.0
        assert rec.expected_cost > 0
        assert rec.suggested_skip == max(0, int(np.floor(rec.mean_rungs)) - 1)
        assert "settled queries" in rec.describe()

    def test_paired_coordinates_positional(self):
        query = cone(120.0, 30.0, 2.0)
        assert paired_coordinates(query, "ra", "dec") == [(120.0, 30.0)]
        assert paired_coordinates(query, "ra", "mjd") == []


# ----------------------------------------------------------------------
# WorkloadMiner: determinism + incrementality
# ----------------------------------------------------------------------
class TestMiner:
    def test_mining_is_deterministic(self):
        """Same seeded workload → bit-identical model, however batched."""
        log = seeded_log(60, seed=9)
        one_shot = WorkloadMiner(small_model(), decay_every=25)
        one_shot.mine(log)
        batched = WorkloadMiner(small_model(), decay_every=25)
        entries = log.snapshot()
        for start in range(0, len(entries), 7):
            batched.mine_entries(entries[start : start + 7])
        for name, array in one_shot.model.state_arrays().items():
            np.testing.assert_array_equal(
                array, batched.model.state_arrays()[name], err_msg=name
            )
        assert one_shot.model.total == batched.model.total
        assert one_shot.next_sequence == batched.next_sequence

    def test_entries_are_mined_exactly_once(self):
        log = seeded_log(10)
        miner = WorkloadMiner(small_model())
        assert miner.mine(log) == 10
        assert miner.mine(log) == 0
        assert miner.model.table_counts["PhotoObjAll"] == 10

    def test_decay_fires_on_cadence(self):
        log = seeded_log(30)
        miner = WorkloadMiner(small_model(), decay_factor=0.5, decay_every=10)
        miner.mine(log)
        # three aging passes happened: totals are well under 30 points
        assert miner.model.counts.sum() < 30


# ----------------------------------------------------------------------
# Persistence round-trip
# ----------------------------------------------------------------------
class TestPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = small_model()
        miner = WorkloadMiner(model)
        miner.mine(seeded_log(40))
        service = WorkloadIntelligenceService(model=model)
        path = save_intelligence(service, tmp_path / "intel")
        assert path.suffix == ".npz"
        loaded = load_intelligence(path)
        for name, array in model.state_arrays().items():
            np.testing.assert_array_equal(
                array, loaded.state_arrays()[name], err_msg=name
            )
        assert loaded.total == model.total
        assert loaded.table_counts == model.table_counts
        assert loaded.hot_cells(4) == model.hot_cells(4)
        assert loaded.popularity(180.0, 0.0) == model.popularity(180.0, 0.0)
        rec = model.recommendation_at(180.0, 0.0, min_support=1)
        rec_loaded = loaded.recommendation_at(180.0, 0.0, min_support=1)
        assert rec == rec_loaded

    def test_bare_model_round_trips_too(self, tmp_path):
        model = small_model()
        WorkloadMiner(model).mine(seeded_log(10))
        path = save_intelligence(model, tmp_path / "bare")
        loaded = load_intelligence(path)
        assert loaded.total == model.total

    def test_wrong_kind_is_rejected(self, tmp_path):
        from repro.core.persistence import save_hierarchy

        engine = make_engine()
        path = save_hierarchy(
            engine.hierarchy("PhotoObjAll"), tmp_path / "layers"
        )
        with pytest.raises(ImpressionError, match="workload-intelligence"):
            load_intelligence(path)

    def test_a_bundle_with_a_degraded_array_still_loads(self):
        """``data/intelligence_with_degraded.npz`` was saved when settled
        outcomes still carried a degraded flag: its model holds a
        per-cell ``degraded`` count array beside the others.  The array
        is ignored; everything else loads as mined."""
        path = Path(__file__).parent / "data" / "intelligence_with_degraded.npz"
        with np.load(path) as bundle:
            assert int(bundle["degraded"].sum()) > 0
        loaded = load_intelligence(path)
        assert "degraded" not in loaded.state_arrays()
        model = small_model()
        WorkloadMiner(model).mine(seeded_log(40))
        for name, array in model.state_arrays().items():
            np.testing.assert_array_equal(
                array, loaded.state_arrays()[name], err_msg=name
            )
        assert loaded.total == model.total
        assert loaded.table_counts == model.table_counts
        assert loaded.recommendation_at(
            180.0, 0.0, min_support=1
        ) == model.recommendation_at(180.0, 0.0, min_support=1)

    def test_service_resumes_mining_from_loaded_model(self, tmp_path):
        model = small_model()
        WorkloadMiner(model).mine(seeded_log(10))
        path = save_intelligence(model, tmp_path / "resume")
        service = WorkloadIntelligenceService(model=load_intelligence(path))
        assert service.model.total == model.total
        assert service.miner is not None


# ----------------------------------------------------------------------
# The identity property: intelligence never changes answers
# ----------------------------------------------------------------------
class TestIdentity:
    @pytest.fixture(scope="class")
    def engine_pair(self):
        """A cold engine and an intelligence-equipped twin, trained on
        the same seeded workload."""
        cold = make_engine()
        warm = make_engine()
        warm.set_intelligence(WorkloadIntelligenceService(bins=12))
        generator = WorkloadGenerator(
            focal_points=[FocalPoint(ra=185.0, dec=0.0, spread_ra=3.0)],
            cone_fraction=1.0,
            aggregate_fraction=1.0,
            rng=31,
        )
        for query in generator.queries(24):
            cold.execute(query, Contract.within_error(0.3))
            warm.execute(query, Contract.within_error(0.3))
        return cold, warm

    def test_maintenance_reaction_is_identical_single_table(self, engine_pair):
        """A mined model changes nothing about maintenance: drift
        reactions refresh exactly as a cold engine's."""
        cold, warm = engine_pair
        drift = WorkloadGenerator(
            focal_points=[FocalPoint(ra=40.0, dec=-30.0, spread_ra=2.0)],
            cone_fraction=1.0,
            aggregate_fraction=1.0,
            rng=77,
        )
        for query in drift.queries(40):
            cold.execute(query, Contract.within_error(0.5))
            warm.execute(query, Contract.within_error(0.5))
        assert warm.intelligence.queries_mined == 64
        cold_reports = cold.maintain()
        warm_reports = warm.maintain()
        assert cold_reports.keys() == warm_reports.keys()
        for table in cold_reports:
            assert [
                (r.target, r.source, r.tuples_streamed)
                for r in cold_reports[table]
            ] == [
                (r.target, r.source, r.tuples_streamed)
                for r in warm_reports[table]
            ]
        probe = cone(40.0, -30.0, 3.0)
        a = cold.execute(probe, Contract.within_error(0.3))
        b = warm.execute(probe, Contract.within_error(0.3))
        assert a.total_cost == b.total_cost
        for name, estimate in a.result.estimates.items():
            assert _same(estimate.value, b.result.estimates[name].value), name


# ----------------------------------------------------------------------
# Drift reaction: every hierarchy refreshes in full, decay is scoped
# ----------------------------------------------------------------------
def two_table_engine() -> SciBorq:
    """PhotoObjAll (5 000-row reflex layer) plus Photoz (400-row)."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=701,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(5_000, 500)
    )
    engine.create_hierarchy("Photoz", policy="uniform", layer_sizes=(400, 50))
    build_skyserver(
        30_000, generator=SkyGenerator(rng=702), loader=engine.loader
    )
    return engine


def force_ra_drift(engine: SciBorq) -> None:
    """Push the ra detector's recent window far from its history."""
    detector = engine.planner.detectors["ra"]
    rng = np.random.default_rng(3)
    detector.observe(rng.uniform(100.0, 110.0, 400))
    detector.observe(rng.uniform(300.0, 310.0, 200))
    assert detector.drifted


class TestBudgetedMaintenance:
    def test_without_intelligence_everything_refreshes_in_full(self):
        engine = two_table_engine()
        force_ra_drift(engine)
        reports = engine.maintain()
        assert len(reports["PhotoObjAll"]) == 1
        assert len(reports["Photoz"]) == 1
        assert reports["Photoz"][0].tuples_streamed == 400

    def test_scoped_decay_spares_stable_attributes(self):
        engine = make_engine()
        rng = np.random.default_rng(4)
        # both attributes accumulate interest
        engine.interest.observe_values("ra", rng.uniform(100, 200, 300))
        engine.interest.observe_values("dec", rng.uniform(-30, 30, 300))
        ra_before = engine.interest.interest_for("ra").histogram.total
        dec_before = engine.interest.interest_for("dec").histogram.total
        force_ra_drift(engine)  # only ra drifts
        engine.maintain()
        ra_total = engine.interest.interest_for("ra").histogram.total
        dec_total = engine.interest.interest_for("dec").histogram.total
        assert ra_total < ra_before  # decayed
        assert dec_total == dec_before  # untouched


# ----------------------------------------------------------------------
# The service on a live server
# ----------------------------------------------------------------------
def focused_queries(count: int, rng: int = 13):
    generator = WorkloadGenerator(
        focal_points=[FocalPoint(ra=185.0, dec=0.0, spread_ra=2.0)],
        cone_fraction=1.0,
        aggregate_fraction=1.0,
        rng=rng,
    )
    return list(generator.queries(count))


class TestServerIntegration:
    def test_reads_mine_on_demand_and_equal_per_query_mining(self):
        """No explicit ``mine`` anywhere: ``recommend`` straight after
        a batch of settled queries already reflects them, and the model
        equals a twin's that was mined after every single query."""
        batched = make_engine()
        batched.set_intelligence(
            WorkloadIntelligenceService(bins=12, min_support=2, decay_every=5)
        )
        stepped = make_engine()
        stepped_service = WorkloadIntelligenceService(
            bins=12, min_support=2, decay_every=5
        )
        stepped.set_intelligence(stepped_service)
        probe = cone(185.0, 0.0, 2.0)
        with SciBorqServer(batched, max_workers=2) as server:
            session = server.open_session("astronomer")
            for query in focused_queries(14):
                session.execute(query, Contract.within_error(0.4))
                stepped.execute(query, Contract.within_error(0.4))
                assert stepped_service.mine() == 1
            recommendation = session.recommend(probe)
            assert recommendation is not None
            assert recommendation.support >= 2
            assert session.recommend(cone(20.0, -80.0, 1.0)) is None
            assert "workload intelligence" in batched.report().render()
        service = batched.intelligence
        assert service.queries_mined == stepped_service.queries_mined == 14
        assert service.mine() == 0  # the reads above left nothing pending
        for name, array in stepped_service.model.state_arrays().items():
            np.testing.assert_array_equal(
                array, service.model.state_arrays()[name], err_msg=name
            )
        assert service.model.table_counts == stepped_service.model.table_counts
        twin = stepped_service.recommend(probe)
        # wall seconds are not mined, so the advice is equal field by field
        assert twin == recommendation

    def test_save_reads_the_log_first(self, tmp_path):
        engine = make_engine()
        service = WorkloadIntelligenceService(bins=12)
        engine.set_intelligence(service)
        for query in focused_queries(6):
            engine.execute(query, Contract.within_error(0.4))
        loaded = load_intelligence(save_intelligence(service, tmp_path / "m"))
        assert sum(loaded.table_counts.values()) == 6
        assert loaded.total == service.model.total > 0

    def test_server_leaves_an_installed_service_alone(self):
        """The server neither installs nor removes a service: one the
        engine already carries serves its sessions and survives
        ``shutdown()``."""
        engine = make_engine()
        service = WorkloadIntelligenceService(bins=12, min_support=1)
        engine.set_intelligence(service)
        server = SciBorqServer(engine, max_workers=2)
        session = server.open_session()
        session.execute(cone(185.0, 0.0, 2.0), Contract.within_error(0.4))
        assert server.recommend(session, cone(185.0, 0.0, 2.0)) is not None
        server.shutdown()
        assert engine.intelligence is service
        assert service.queries_mined == 1

    def test_recommend_without_a_service_is_none(self):
        with SciBorqServer(make_engine()) as server:
            session = server.open_session()
            assert session.recommend(cone(185.0, 0.0, 2.0)) is None

    def test_unbound_service_raises_with_guidance(self):
        service = WorkloadIntelligenceService()
        with pytest.raises(ImpressionError, match="set_intelligence"):
            service.mine()
