"""Tests for bandwidth selectors."""

import numpy as np
import pytest

from repro.stats.bandwidth import (
    oversmoothed_bandwidth,
    silverman_bandwidth,
    undersmoothed_bandwidth,
)


class TestReferenceRules:
    def test_silverman_formula(self, rng):
        values = rng.normal(0, 2, 400)
        h = silverman_bandwidth(values)
        spread = min(values.std(ddof=1), np.subtract(*np.percentile(values, [75, 25])) / 1.34)
        assert h == pytest.approx(0.9 * spread * 400 ** (-0.2))

    def test_shrinks_with_sample_size(self, rng):
        small = rng.normal(0, 1, 50)
        large = rng.normal(0, 1, 5000)
        assert silverman_bandwidth(large) < silverman_bandwidth(small)

    def test_constant_sample_fallback(self):
        h = silverman_bandwidth(np.full(10, 3.0))
        assert h > 0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            silverman_bandwidth(np.array([]))


class TestFigure4Panels:
    def test_over_and_under_bracket_the_reference(self, rng):
        values = rng.normal(0, 1, 300)
        h = silverman_bandwidth(values)
        assert oversmoothed_bandwidth(values) == pytest.approx(8 * h)
        assert undersmoothed_bandwidth(values) == pytest.approx(h / 8)

    def test_custom_factors(self, rng):
        values = rng.normal(0, 1, 300)
        assert oversmoothed_bandwidth(values, 2.0) == pytest.approx(
            2 * silverman_bandwidth(values)
        )

    def test_invalid_factor(self, rng):
        with pytest.raises(ValueError, match="factor"):
            oversmoothed_bandwidth(rng.normal(0, 1, 10), 0.0)
