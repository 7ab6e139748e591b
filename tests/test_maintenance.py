"""Tests for impression maintenance: refresh, rebuild, drift reaction."""

import numpy as np
import pytest

from repro.columnstore.table import Table
from repro.core.engine import SciBorq
from repro.core.hierarchy import ImpressionHierarchy
from repro.core.maintenance import (
    MaintenancePlanner,
    rebuild_from_base,
    refresh_from_below,
    refresh_hierarchy,
)
from repro.core.policy import UniformPolicy, build_hierarchy
from repro.errors import ImpressionError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.util.clock import CostClock
from repro.workload.drift import DriftDetector
from repro.workload.interest import InterestModel
from table_helpers import table_from_arrays


@pytest.fixture
def base() -> Table:
    return table_from_arrays(
        "base",
        {"id": np.arange(50_000), "x": np.linspace(0, 100, 50_000)},
    )


@pytest.fixture
def hierarchy(base) -> ImpressionHierarchy:
    h = build_hierarchy("base", UniformPolicy(layer_sizes=(5000, 500, 50)), rng=0)
    for layer in h.layers:
        layer.sampler.offer_batch(np.arange(base.num_rows))
    return h


class TestRefreshFromBelow:
    def test_upper_contents_subset_of_lower(self, base, hierarchy):
        lower, upper = hierarchy.layer(0), hierarchy.layer(1)
        report = refresh_from_below(upper, lower, base)
        assert report.tuples_streamed == lower.size
        assert set(upper.row_ids.tolist()) <= set(lower.row_ids.tolist())
        assert upper.size == upper.capacity

    def test_cost_is_lower_layer_size_not_base(self, base, hierarchy):
        clock = CostClock()
        refresh_from_below(hierarchy.layer(1), hierarchy.layer(0), base, clock)
        assert clock.now == hierarchy.layer(0).size  # 5000, not 50 000

    def test_composed_pis_installed(self, base, hierarchy):
        lower, upper = hierarchy.layer(0), hierarchy.layer(1)
        refresh_from_below(upper, lower, base)
        pis = upper.inclusion_probabilities()
        # two uniform stages: 5000/50000 * 500/5000 = 500/50000
        np.testing.assert_allclose(pis, 500 / 50_000, rtol=1e-6)

    def test_rejects_inverted_sizes(self, base, hierarchy):
        with pytest.raises(ImpressionError, match="smaller"):
            refresh_from_below(hierarchy.layer(0), hierarchy.layer(1), base)

    def test_refresh_hierarchy_runs_topdown(self, base, hierarchy):
        reports = refresh_hierarchy(hierarchy, base)
        assert [r.target for r in reports] == [
            hierarchy.layer(1).name,
            hierarchy.layer(2).name,
        ]
        # the smallest layer is now a subset of the middle one
        assert set(hierarchy.layer(2).row_ids.tolist()) <= set(
            hierarchy.layer(1).row_ids.tolist()
        )


class TestRebuildFromBase:
    def test_rebuild_replaces_contents(self, base, hierarchy):
        before = hierarchy.layer(2).row_ids.copy()
        rebuild_from_base(hierarchy, base, batch_size=10_000)
        after = hierarchy.layer(2).row_ids
        assert set(before.tolist()) != set(after.tolist())
        assert hierarchy.layer(2).size == 50

    def test_rebuild_cost_is_layers_times_base(self, base, hierarchy):
        clock = CostClock()
        rebuild_from_base(hierarchy, base, clock)
        assert clock.now == 3 * base.num_rows

    def test_rebuild_restores_exact_uniform_pis(self, base, hierarchy):
        rebuild_from_base(hierarchy, base)
        pis = hierarchy.layer(1).inclusion_probabilities()
        np.testing.assert_allclose(pis, 500 / 50_000)


class TestMaintenancePlanner:
    def make_planner(self) -> MaintenancePlanner:
        interest = InterestModel({"x": (0.0, 100.0)}, bins=20)
        interest.observe_values("x", np.random.default_rng(0).normal(20, 2, 300))
        return MaintenancePlanner(
            interest=interest,
            detectors={"x": DriftDetector((0, 100), bins=20, window=100, threshold=0.3)},
        )

    def test_no_drift_no_action(self, base, hierarchy, rng):
        planner = self.make_planner()
        planner.observe("x", rng.normal(20, 2, 200))
        assert planner.absorb_drift() == []
        assert planner.drift_events == 0

    def test_drift_triggers_decay_and_refresh(self, base, hierarchy, rng):
        planner = self.make_planner()
        planner.observe("x", rng.normal(20, 2, 200))
        n_before = planner.interest.interest_for("x").predicate_set_size
        planner.observe("x", rng.normal(80, 2, 200))  # focus moves
        assert planner.absorb_drift() == ["x"]
        reports = refresh_hierarchy(hierarchy, base)
        assert len(reports) == 2
        assert planner.drift_events == 1
        assert planner.interest.interest_for("x").predicate_set_size < n_before

    def test_reaction_resets_detector(self, base, hierarchy, rng):
        planner = self.make_planner()
        planner.observe("x", rng.normal(20, 2, 200))
        planner.observe("x", rng.normal(80, 2, 200))
        assert planner.absorb_drift() == ["x"]
        # same (already handled) shift does not re-fire
        assert planner.absorb_drift() == []

    def test_observe_unknown_attribute_ignored(self, rng):
        planner = self.make_planner()
        planner.observe("y", rng.normal(0, 1, 100))  # no detector: no-op
        assert planner.drifted_attributes() == []


# ----------------------------------------------------------------------
# Drift reaction: every hierarchy refreshes in full, decay is scoped
# ----------------------------------------------------------------------
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
    def test_everything_refreshes_in_full(self):
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
