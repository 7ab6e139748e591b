"""Integration tests: full paper scenarios end to end.

These exercise the same pipelines the benchmarks print, and pin the
*shape* claims of the paper's evaluation (README, "Layout of claims
to evidence"): Figure 4's
curve relationships and Figure 7's focal-representation win.
"""

import numpy as np
import pytest

from repro.bench.harness import (
    build_experiment_context,
    figure4_series,
    figure7_series,
)
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.skyserver.schema import RA_RANGE
from repro.skyserver.workload_gen import FocalPoint
from repro.core.contracts import Contract


@pytest.fixture(scope="module")
def context():
    """A shared uniform-policy experiment context (module-scoped)."""
    return build_experiment_context(
        n_objects=80_000, policy="uniform", layer_sizes=(8_000, 800), rng=77
    )


class TestFigure4Shape:
    @pytest.fixture(scope="class")
    def series(self):
        ctx = build_experiment_context(n_objects=1, rng=42)  # data unused
        values = ctx.workload.predicate_set(500)["ra"]
        return figure4_series(values, RA_RANGE, bins=30)

    def test_fbreve_tracks_fhat(self, series):
        """'almost identical with the estimation from f̂' (paper §4)."""
        scale = series["f_hat"].max()
        mad = np.abs(series["f_hat"] - series["f_breve"]).mean()
        assert mad < 0.15 * scale
        # and f̆ is far closer to f̂ than the deliberately bad bandwidths
        mad_over = np.abs(series["f_hat"] - series["oversmoothed"]).mean()
        mad_under = np.abs(series["f_hat"] - series["undersmoothed"]).mean()
        assert mad < min(mad_over, mad_under)

    def test_oversmoothed_flattens_the_modes(self, series):
        assert series["oversmoothed"].max() < 0.6 * series["f_hat"].max()

    def test_undersmoothed_is_spikier(self, series):
        assert series["undersmoothed"].max() > 1.2 * series["f_hat"].max()

    def test_histogram_mass_equals_predicate_set(self, series):
        assert series["hist_counts"].sum() == series["n_predicates"][0]

    def test_density_modes_near_default_focal_points(self, series):
        grid = series["grid"]
        f = series["f_breve"]
        # the two default focal points are at ra 150 and 205
        for focal_ra in (150.0, 205.0):
            window = (grid > focal_ra - 15) & (grid < focal_ra + 15)
            assert f[window].max() > 2 * np.median(f)


class TestFigure7Shape:
    @pytest.fixture(scope="class")
    def panels(self):
        """Base vs uniform vs biased impressions, as the figure builds
        them: interest from a 400-query workload, n = 6 000 samples of
        a 120 000-tuple base."""
        ctx = build_experiment_context(
            n_objects=120_000,
            policy="uniform",
            layer_sizes=(6_000, 600),
            warmup_queries=400,
            rng=7,
        )
        engine = ctx.engine
        base = engine.catalog.table("PhotoObjAll")
        base_ra = base["ra"].copy()

        def sample_ra():
            return engine.hierarchy("PhotoObjAll").layer(0).materialise(base)["ra"].copy()

        uniform_ra = sample_ra()
        engine.create_hierarchy(
            "PhotoObjAll", policy="biased", layer_sizes=(6_000, 600)
        )
        engine.rebuild("PhotoObjAll")
        biased_ra = sample_ra()
        interest = engine.interest.interest_for("ra")
        centers = np.linspace(RA_RANGE[0], RA_RANGE[1], 30)
        focal_density = interest.kde.evaluate(centers)
        return figure7_series(
            base_ra,
            uniform_ra,
            biased_ra,
            RA_RANGE,
            bins=30,
            focal_density=focal_density,
        )

    def test_uniform_sample_matches_base_shape(self, panels):
        tv = 0.5 * np.abs(
            panels["uniform_proportions"] - panels["base_proportions"]
        ).sum()
        assert tv < 0.07

    def test_biased_sample_overrepresents_focal_bins(self, panels):
        """The paper's headline: 'The impression created with bias
        contains many more tuples from the areas of interest.'"""
        assert (
            panels["biased_focal_fraction"][0]
            > panels["uniform_focal_fraction"][0] + 0.1
        )

    def test_biased_beats_uniform_inside_focal_area(self, panels):
        """More focal tuples than the base's own share: resolution
        around the focal points improves."""
        assert panels["biased_focal_fraction"][0] > panels["base_focal_fraction"][0]

    def test_sample_sizes_preserved(self, panels):
        assert panels["uniform_counts"].sum() == 6_000
        assert panels["biased_counts"].sum() == 6_000


class TestEndToEndSession:
    def test_explore_escalate_ingest_drift_refocus(self, rng):
        """The full SciBORQ story in one session."""
        ctx = build_experiment_context(
            n_objects=60_000,
            policy="biased",
            layer_sizes=(6_000, 600),
            warmup_queries=300,
            rng=11,
        )
        engine = ctx.engine

        # 1. interactive exploration with an error bound
        q = Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 150, 10, 4),
            aggregates=[AggregateSpec("count")],
        )
        outcome = engine.execute(q, Contract.within_error(0.2))
        assert outcome.met_quality

        # 2. incremental ingest flows into the impressions
        seen_before = engine.hierarchy("PhotoObjAll").layer(0).sampler.seen
        engine.ingest("PhotoObjAll", ctx.generator.photoobj_batch(5_000))
        assert (
            engine.hierarchy("PhotoObjAll").layer(0).sampler.seen
            == seen_before + 5_000
        )

        # 3. the workload shifts; drift is detected and handled
        ctx.workload.shift([FocalPoint(230.0, 55.0, 2.0, 2.0)])
        for query in ctx.workload.queries(250):
            engine.collector.observe(query)
        reports = engine.maintain()
        assert "PhotoObjAll" in reports
        assert engine.planner.drift_events == 1

    def test_time_budget_controls_cost_monotonically(self, context):
        q = Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 205, 40, 5),
            aggregates=[AggregateSpec("count")],
        )
        costs, errors = [], []
        for budget in (1_000, 20_000, 500_000):
            outcome = context.engine.execute(
                q, Contract.within_error(0.0) & Contract.within_budget(budget)
            )
            costs.append(outcome.total_cost)
            errors.append(outcome.achieved_error)
        assert costs == sorted(costs)
        assert errors == sorted(errors, reverse=True)  # more budget, less error

    def test_join_query_through_bounded_path(self, context):
        from repro.columnstore import JoinSpec

        q = Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 150, 10, 5),
            joins=[JoinSpec("Field", "fieldID", "fieldID", ("sky_brightness",))],
            aggregates=[AggregateSpec("avg", "sky_brightness")],
        )
        outcome = context.engine.execute(q, Contract.within_error(0.05))
        exact = context.engine.execute_exact(q)
        assert outcome.result.estimates["avg(sky_brightness)"].value == pytest.approx(
            exact.scalar("avg(sky_brightness)"), rel=0.03
        )
