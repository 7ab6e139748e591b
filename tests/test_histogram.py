"""Tests for the Figure-5 predicate histogram and the plain histogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.histogram import EquiWidthHistogram, PredicateHistogram

domain_values = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=200,
)


class TestPredicateHistogram:
    def test_figure5_semantics_counts_and_means(self):
        hist = PredicateHistogram(0.0, 10.0, 5)
        for v in [1.0, 1.5, 7.0]:
            hist.observe(v)
        assert hist.total == 3
        assert hist.counts[0] == 2 and hist.counts[3] == 1
        assert hist.means[0] == pytest.approx(1.25)
        assert hist.means[3] == pytest.approx(7.0)

    def test_batch_equals_sequential(self, rng):
        values = rng.uniform(0, 10, 500)
        seq = PredicateHistogram(0, 10, 16)
        for v in values:
            seq.observe(v)
        batch = PredicateHistogram(0, 10, 16)
        batch.observe_batch(values)
        np.testing.assert_array_equal(seq.counts, batch.counts)
        np.testing.assert_allclose(seq.means, batch.means, atol=1e-9)

    def test_out_of_domain_clamps_to_edge_bins(self):
        hist = PredicateHistogram(0, 10, 5)
        hist.observe(-5.0)
        hist.observe(15.0)
        assert hist.counts[0] == 1 and hist.counts[-1] == 1
        assert hist.total == 2

    def test_value_at_maximum_goes_to_last_bin(self):
        hist = PredicateHistogram(0, 10, 5)
        hist.observe(10.0)
        assert hist.counts[-1] == 1

    def test_merge_matches_combined_stream(self, rng):
        a_vals = rng.uniform(0, 10, 100)
        b_vals = rng.uniform(0, 10, 50)
        a = PredicateHistogram(0, 10, 8)
        a.observe_batch(a_vals)
        b = PredicateHistogram(0, 10, 8)
        b.observe_batch(b_vals)
        a.merge(b)
        combined = PredicateHistogram(0, 10, 8)
        combined.observe_batch(np.concatenate([a_vals, b_vals]))
        np.testing.assert_array_equal(a.counts, combined.counts)
        np.testing.assert_allclose(a.means, combined.means, atol=1e-9)

    def test_merge_rejects_different_domains(self):
        a = PredicateHistogram(0, 10, 8)
        b = PredicateHistogram(0, 20, 8)
        with pytest.raises(ValueError, match="different domains"):
            a.merge(b)

    def test_density_integrates_to_one(self, rng):
        hist = PredicateHistogram(0, 10, 16)
        hist.observe_batch(rng.uniform(0, 10, 400))
        assert (hist.density() * hist.width).sum() == pytest.approx(1.0)

    def test_effective_centers_prefer_means(self):
        hist = PredicateHistogram(0, 10, 2)
        hist.observe(1.0)  # bin 0 mean = 1.0 (midpoint would be 2.5)
        centers = hist.effective_centers()
        assert centers[0] == 1.0
        assert centers[1] == 7.5  # empty bin falls back to midpoint

    def test_decay_reduces_counts_keeps_means(self):
        hist = PredicateHistogram(0, 10, 2)
        hist.observe_batch(np.array([1.0, 2.0, 3.0, 4.0]))
        means_before = hist.means.copy()
        hist.decay(0.5)
        assert hist.total == hist.counts.sum() == 2
        np.testing.assert_array_equal(hist.means, means_before)

    def test_decay_factor_validation(self):
        hist = PredicateHistogram(0, 10, 2)
        with pytest.raises(ValueError, match="decay factor"):
            hist.decay(0.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty domain"):
            PredicateHistogram(5, 5, 4)

    @given(domain_values)
    @settings(max_examples=60, deadline=None)
    def test_invariant_sum_of_counts_is_N(self, values):
        hist = PredicateHistogram(0.0, 10.0, 7)
        hist.observe_batch(np.array(values))
        assert hist.counts.sum() == hist.total == len(values)

    @given(domain_values)
    @settings(max_examples=60, deadline=None)
    def test_invariant_weighted_means_reconstruct_total_sum(self, values):
        hist = PredicateHistogram(0.0, 10.0, 7)
        hist.observe_batch(np.array(values))
        reconstructed = float((hist.counts * hist.means).sum())
        assert reconstructed == pytest.approx(sum(values), rel=1e-9, abs=1e-6)

    @given(domain_values)
    @settings(max_examples=60, deadline=None)
    def test_invariant_means_lie_inside_their_bins(self, values):
        hist = PredicateHistogram(0.0, 10.0, 7)
        hist.observe_batch(np.array(values))
        edges = hist.edges
        for i in range(hist.bins):
            if hist.counts[i]:
                assert edges[i] - 1e-9 <= hist.means[i] <= edges[i + 1] + 1e-9


class TestEquiWidthHistogram:
    def test_proportions_sum_to_one(self, rng):
        hist = EquiWidthHistogram(-5, 5, 8)
        hist.observe_batch(rng.normal(0, 1, 200))
        assert hist.proportions().sum() == pytest.approx(1.0)

    def test_tv_distance_identical_is_zero(self, rng):
        values = rng.normal(0, 1, 200)
        a = EquiWidthHistogram(-5, 5, 10)
        a.observe_batch(values)
        b = EquiWidthHistogram(-5, 5, 10)
        b.observe_batch(values)
        assert a.total_variation_distance(b) == 0.0

    def test_tv_distance_disjoint_is_one(self):
        a = EquiWidthHistogram(0, 10, 10)
        a.observe_batch(np.full(10, 1.0))
        b = EquiWidthHistogram(0, 10, 10)
        b.observe_batch(np.full(10, 9.0))
        assert a.total_variation_distance(b) == pytest.approx(1.0)

    def test_tv_distance_requires_same_bins(self):
        a = EquiWidthHistogram(0, 1, 4)
        b = EquiWidthHistogram(0, 1, 8)
        with pytest.raises(ValueError, match="same bin count"):
            a.total_variation_distance(b)

    def test_empty_histogram_density_is_zero(self):
        hist = EquiWidthHistogram(0, 1, 4)
        np.testing.assert_array_equal(hist.density(), np.zeros(4))
