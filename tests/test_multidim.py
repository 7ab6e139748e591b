"""Tests for the 2-D interest histogram (paper footnote 3 future work)."""

import numpy as np
import pytest
from scipy.integrate import trapezoid

from repro.stats.multidim import Grid2DHistogram


@pytest.fixture
def grid() -> Grid2DHistogram:
    return Grid2DHistogram((0.0, 100.0), (0.0, 50.0), bins=20)


class TestObservation:
    def test_counts_and_total(self, grid, rng):
        grid.observe_batch(rng.uniform(0, 100, 300), rng.uniform(0, 50, 300))
        assert grid.total == 300
        assert grid.counts.sum() == 300

    def test_cell_means_match_observations(self, grid):
        # y-cell width is 2.5: both points fall in cell (ix=2, iy=2)
        grid.observe_batch(np.array([12.0, 13.0]), np.array([6.0, 7.0]))
        cell = grid.counts > 0
        assert grid.counts[cell].sum() == 2
        assert grid.x_means[cell][0] == pytest.approx(12.5)
        assert grid.y_means[cell][0] == pytest.approx(6.5)

    def test_out_of_range_clamped(self, grid):
        grid.observe_batch(np.array([-10.0, 500.0]), np.array([60.0, -5.0]))
        assert grid.total == 2

    def test_mismatched_batches_rejected(self, grid):
        with pytest.raises(ValueError, match="same shape"):
            grid.observe_batch(np.zeros(3), np.zeros(2))

    def test_incremental_merge_of_means(self, grid):
        # both points fall in cell (ix=2, iy=4): y width is 2.5
        grid.observe_batch(np.array([10.0]), np.array([10.0]))
        grid.observe_batch(np.array([12.0]), np.array([11.0]))
        cell = grid.counts > 0
        assert grid.x_means[cell][0] == pytest.approx(11.0)
        assert grid.y_means[cell][0] == pytest.approx(10.5)


class TestDensity:
    def test_integrates_to_one(self, rng):
        grid = Grid2DHistogram((0, 10), (0, 10), bins=10)
        grid.observe_batch(rng.normal(5, 1, 500), rng.normal(5, 1, 500))
        xs = np.linspace(-5, 15, 80)
        ys = np.linspace(-5, 15, 80)
        gx, gy = np.meshgrid(xs, ys)
        density = grid.density(gx.ravel(), gy.ravel()).reshape(gx.shape)
        total = trapezoid(trapezoid(density, xs, axis=1), ys)
        assert total == pytest.approx(1.0, abs=0.05)

    def test_peaks_where_mass_is(self, grid, rng):
        grid.observe_batch(rng.normal(30, 2, 400), rng.normal(20, 2, 400))
        focal = grid.density([30.0], [20.0])[0]
        far = grid.density([90.0], [45.0])[0]
        assert focal > 100 * max(far, 1e-12)

    def test_couples_dimensions_unlike_marginals(self, rng):
        """A cross-shaped workload: 2-D density distinguishes the arms'
        intersection from the empty diagonal corners, marginals cannot."""
        grid = Grid2DHistogram((0, 10), (0, 10), bins=10)
        n = 300
        # arm 1: x ~ 5, y uniform; arm 2: y ~ 5, x uniform
        grid.observe_batch(
            np.concatenate([rng.normal(5, 0.3, n), rng.uniform(0, 10, n)]),
            np.concatenate([rng.uniform(0, 10, n), rng.normal(5, 0.3, n)]),
        )
        on_arm = grid.density([5.0], [9.0])[0]
        off_diag = grid.density([9.0], [9.0])[0]
        assert on_arm > 3 * off_diag

    def test_empty_grid_evaluates_to_zero(self, grid):
        np.testing.assert_array_equal(grid.density([1.0], [1.0]), [0.0])

    def test_mismatched_query_points_rejected(self, grid):
        with pytest.raises(ValueError, match="same shape"):
            grid.density(np.zeros(2), np.zeros(3))


class TestMaintenance:
    def test_decay(self, grid, rng):
        grid.observe_batch(rng.uniform(0, 100, 100), rng.uniform(0, 50, 100))
        grid.decay(0.5)
        assert grid.total == grid.counts.sum() <= 50

    def test_decay_validation(self, grid):
        with pytest.raises(ValueError, match="decay"):
            grid.decay(1.5)
