"""Tests for the benchmark harness and report helpers."""

import numpy as np

from repro.bench.harness import (
    build_experiment_context,
    figure4_series,
    figure7_series,
)
from repro.bench.report import print_histogram_panel, print_series


class TestExperimentContext:
    def test_builds_requested_configuration(self):
        ctx = build_experiment_context(
            n_objects=5_000,
            policy="uniform",
            layer_sizes=(500, 50),
            warmup_queries=20,
            rng=1,
        )
        assert ctx.catalog.table("PhotoObjAll").num_rows == 5_000
        assert ctx.engine.hierarchy("PhotoObjAll").depth == 2
        interest = ctx.engine.interest
        assert all(interest.interest_for(a).predicate_set_size > 0 for a in interest.attributes)

    def test_deterministic_under_seed(self):
        a = build_experiment_context(n_objects=2_000, layer_sizes=(200, 20), rng=9)
        b = build_experiment_context(n_objects=2_000, layer_sizes=(200, 20), rng=9)
        np.testing.assert_array_equal(
            a.catalog.table("PhotoObjAll")["ra"],
            b.catalog.table("PhotoObjAll")["ra"],
        )
        np.testing.assert_array_equal(
            a.engine.hierarchy("PhotoObjAll").layer(0).row_ids,
            b.engine.hierarchy("PhotoObjAll").layer(0).row_ids,
        )


class TestFigurePipelines:
    def test_figure4_outputs_aligned(self, rng):
        values = rng.normal(180, 10, 300)
        series = figure4_series(values, (120, 240), bins=20, grid_points=50)
        assert series["grid"].shape == (50,)
        for key in ("f_hat", "oversmoothed", "undersmoothed", "f_breve"):
            assert series[key].shape == (50,)
        assert series["hist_counts"].shape == (20,)
        assert series["hist_edges"].shape == (21,)

    def test_figure7_focal_metrics_require_density(self, rng):
        base = rng.uniform(0, 100, 10_000)
        sample_a = rng.uniform(0, 100, 500)
        sample_b = rng.normal(30, 5, 500).clip(0, 100)
        without = figure7_series(base, sample_a, sample_b, (0, 100), bins=10)
        assert "focal_bins" not in without
        density = np.zeros(10)
        density[3] = 0.1  # a focal bin around 30-40
        with_focal = figure7_series(
            base, sample_a, sample_b, (0, 100), bins=10, focal_density=density
        )
        assert with_focal["focal_bins"].sum() == 1
        assert (
            with_focal["biased_focal_fraction"][0]
            > with_focal["uniform_focal_fraction"][0]
        )


class TestReport:
    def test_print_series_returns_rendered_text(self, capsys):
        text = print_series("t", [1, 2, 3], {"a": [1, 4, 9]}, max_rows=2)
        captured = capsys.readouterr().out
        assert "== t ==" in text and text.strip() in captured.strip()

    def test_print_histogram_panel(self, capsys):
        text = print_histogram_panel("h", [1, 2], [0.0, 1.0, 2.0])
        assert "== h ==" in text
        assert capsys.readouterr().out
