"""Tests for exact and binned KDE — the heart of paper §4."""

import numpy as np
import pytest
from scipy.integrate import trapezoid

from repro.stats.bandwidth import silverman_bandwidth
from repro.stats.histogram import PredicateHistogram
from repro.stats.kde import (
    BinnedKDE,
    EpanechnikovKernel,
    ExactKDE,
    GaussianKernel,
)


@pytest.fixture
def bimodal_points(rng) -> np.ndarray:
    """A Figure-4-like predicate set: two focal clusters, N=400."""
    return np.concatenate(
        [rng.normal(150, 5, 200), rng.normal(205, 8, 200)]
    )


class TestKernels:
    def test_gaussian_integrates_to_one(self):
        u = np.linspace(-8, 8, 2001)
        assert trapezoid(GaussianKernel()(u), u) == pytest.approx(1.0, abs=1e-6)

    def test_epanechnikov_integrates_to_one(self):
        u = np.linspace(-1.5, 1.5, 2001)
        assert trapezoid(EpanechnikovKernel()(u), u) == pytest.approx(1.0, abs=1e-6)

    def test_epanechnikov_compact_support(self):
        kernel = EpanechnikovKernel()
        assert kernel(np.array([1.01, -2.0])).tolist() == [0.0, 0.0]

    def test_kernels_symmetric(self):
        u = np.array([0.3, 1.7])
        for kernel in (GaussianKernel(), EpanechnikovKernel()):
            np.testing.assert_allclose(kernel(u), kernel(-u))


class TestExactKDE:
    def test_integrates_to_one(self, bimodal_points):
        kde = ExactKDE(bimodal_points, silverman_bandwidth(bimodal_points))
        grid = np.linspace(100, 260, 2000)
        assert trapezoid(kde(grid), grid) == pytest.approx(1.0, abs=1e-3)

    def test_peaks_at_the_modes(self, bimodal_points):
        kde = ExactKDE(bimodal_points, silverman_bandwidth(bimodal_points))
        assert kde(150.0)[0] > kde(178.0)[0]
        assert kde(205.0)[0] > kde(178.0)[0]

    def test_scalar_and_array_evaluation_agree(self, bimodal_points):
        kde = ExactKDE(bimodal_points, 3.0)
        assert kde(150.0)[0] == pytest.approx(kde(np.array([150.0]))[0])

    def test_cost_is_N(self, bimodal_points):
        kde = ExactKDE(bimodal_points, 3.0)
        assert kde.evaluation_cost() == 400

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExactKDE(np.array([]), 1.0)

    def test_rejects_bad_bandwidth(self, bimodal_points):
        with pytest.raises(ValueError, match="bandwidth"):
            ExactKDE(bimodal_points, 0.0)


class TestBinnedKDE:
    def make_pair(self, points, bins=30):
        hist = PredicateHistogram(120, 240, bins)
        hist.observe_batch(points)
        return BinnedKDE(hist), hist

    def test_integrates_to_one(self, bimodal_points):
        f_breve, _ = self.make_pair(bimodal_points)
        grid = np.linspace(60, 300, 3000)
        assert trapezoid(f_breve(grid), grid) == pytest.approx(1.0, abs=1e-3)

    def test_close_to_exact_kde(self, bimodal_points):
        """The paper: 'almost identical with the estimation from f̂'."""
        f_breve, _ = self.make_pair(bimodal_points)
        f_hat = ExactKDE(bimodal_points, silverman_bandwidth(bimodal_points))
        grid = np.linspace(120, 240, 400)
        mad = float(np.mean(np.abs(f_hat(grid) - f_breve(grid))))
        scale = float(f_hat(grid).max())
        assert mad < 0.15 * scale

    def test_cost_independent_of_N(self, rng):
        small = rng.normal(180, 10, 50)
        large = rng.normal(180, 10, 5000)
        f_small, _ = self.make_pair(small)
        f_large, _ = self.make_pair(large)
        assert f_large.evaluation_cost() <= f_small.histogram.bins
        assert f_large.evaluation_cost() <= 30  # β, not N

    def test_bandwidth_equals_bin_width(self, bimodal_points):
        f_breve, hist = self.make_pair(bimodal_points)
        assert f_breve.bandwidth == hist.width

    def test_empty_histogram_evaluates_to_zero(self):
        hist = PredicateHistogram(0, 1, 4)
        f_breve = BinnedKDE(hist)
        np.testing.assert_array_equal(f_breve(np.array([0.5])), [0.0])

    def test_tracks_histogram_updates(self, rng):
        hist = PredicateHistogram(0, 100, 10)
        f_breve = BinnedKDE(hist)
        hist.observe_batch(rng.normal(20, 3, 100))
        before = f_breve(np.array([80.0]))[0]
        hist.observe_batch(rng.normal(80, 3, 300))
        after = f_breve(np.array([80.0]))[0]
        assert after > before

    def test_mass_higher_at_focal_points(self, bimodal_points):
        f_breve, hist = self.make_pair(bimodal_points)
        focal = f_breve(np.array([150.0]))[0] * hist.total
        distant = f_breve(np.array([178.0]))[0] * hist.total
        assert focal > 3 * distant

    def test_epanechnikov_kernel_usable(self, bimodal_points):
        hist = PredicateHistogram(120, 240, 30)
        hist.observe_batch(bimodal_points)
        f_breve = BinnedKDE(hist, EpanechnikovKernel())
        grid = np.linspace(120, 240, 1000)
        assert trapezoid(f_breve(grid), grid) == pytest.approx(1.0, abs=0.02)
