"""Cross-cutting property-based tests (hypothesis).

Each property here is an invariant that spans modules — the kind of
statement unit tests sample but cannot quantify over: estimator
identities, sampler conservation laws, histogram/KDE consistency,
bounded-execution contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.pps import pps_inclusion_probabilities, systematic_pps_sample
from repro.sampling.reservoir import ReservoirR
from repro.stats.estimators import hajek_mean, ht_count, ht_sum, srs_count
from repro.stats.fnchg import FisherNCHypergeometric
from repro.stats.histogram import EquiWidthHistogram, PredicateHistogram
from repro.stats.kde import BinnedKDE
from repro.core.contracts import Contract

positive_floats = st.floats(0.01, 1000.0, allow_nan=False)
unit_floats = st.floats(0.01, 1.0)


class TestEstimatorIdentities:
    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        pi=unit_floats,
    )
    @settings(max_examples=60, deadline=None)
    def test_ht_sum_with_constant_pi_scales_the_sample_sum(self, values, pi):
        values = np.array(values)
        estimate = ht_sum(values, np.full(values.shape[0], pi))
        assert estimate.value == pytest.approx(values.sum() / pi, rel=1e-9)

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        pi=unit_floats,
    )
    @settings(max_examples=60, deadline=None)
    def test_hajek_mean_invariant_to_constant_pi(self, values, pi):
        values = np.array(values)
        estimate = hajek_mean(values, np.full(values.shape[0], pi))
        assert estimate.value == pytest.approx(values.mean(), rel=1e-9, abs=1e-9)

    @given(
        matches=st.integers(0, 100),
        extra=st.integers(0, 100),
        population=st.integers(200, 100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_srs_count_bounds_are_ordered_and_contain_estimate(
        self, matches, extra, population
    ):
        sample_size = matches + extra
        if sample_size == 0 or sample_size > population:
            return
        estimate = srs_count(matches, sample_size, population)
        low, high = estimate.ci
        assert low <= estimate.value <= high
        assert estimate.se >= 0

    @given(
        pis=st.lists(unit_floats, min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_ht_count_value_is_sum_of_inverse_pis(self, pis):
        pis = np.array(pis)
        estimate = ht_count(pis)
        assert estimate.value == pytest.approx((1.0 / pis).sum(), rel=1e-9)


class TestSamplerConservation:
    @given(
        capacity=st.integers(1, 100),
        stream=st.integers(0, 2000),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_reservoir_pis_sum_to_at_most_capacity(self, capacity, stream, seed):
        """Σπ over occupants never exceeds n (HT self-consistency)."""
        sampler = ReservoirR(capacity, rng=seed)
        sampler.offer_batch(np.arange(stream))
        pis = sampler.inclusion_probabilities()
        assert pis.sum() <= capacity + 1e-9

    @given(
        masses=st.lists(positive_floats, min_size=2, max_size=200),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_pps_sample_size_is_exact(self, masses, seed):
        masses = np.array(masses)
        n = max(1, masses.shape[0] // 3)
        indices, pis = systematic_pps_sample(masses, n, rng=seed)
        assert indices.shape[0] == n
        assert (pis > 0).all()

    @given(
        masses=st.lists(positive_floats, min_size=2, max_size=200),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_pps_pis_scale_invariant(self, masses, scale):
        """πps depends only on mass *ratios* — rescaling all masses
        changes nothing."""
        masses = np.array(masses)
        n = max(1, masses.shape[0] // 3)
        base = pps_inclusion_probabilities(masses, n)
        scaled = pps_inclusion_probabilities(masses * scale, n)
        np.testing.assert_allclose(base, scaled, rtol=1e-9)


class TestHistogramKdeConsistency:
    @given(
        values=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=300),
        bins=st.integers(2, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_fbreve_integrates_to_one(self, values, bins):
        hist = PredicateHistogram(0.0, 10.0, bins)
        hist.observe_batch(np.array(values))
        kde = BinnedKDE(hist)
        # generous grid far beyond the domain to capture kernel tails
        grid = np.linspace(-40.0, 50.0, 1500)
        from scipy.integrate import trapezoid

        assert trapezoid(kde(grid), grid) == pytest.approx(1.0, abs=0.02)

    @given(
        values=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=2, max_size=300),
        split=st.integers(1, 299),
    )
    @settings(max_examples=40, deadline=None)
    def test_histogram_merge_associative_with_stream(self, values, split):
        split = min(split, len(values) - 1)
        values = np.array(values)
        whole = PredicateHistogram(0.0, 10.0, 8)
        whole.observe_batch(values)
        left = PredicateHistogram(0.0, 10.0, 8)
        left.observe_batch(values[:split])
        right = PredicateHistogram(0.0, 10.0, 8)
        right.observe_batch(values[split:])
        left.merge(right)
        np.testing.assert_array_equal(left.counts, whole.counts)
        np.testing.assert_allclose(left.means, whole.means, atol=1e-9)

    @given(
        values=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=200),
        bins=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_tv_distance_is_a_metric_on_self(self, values, bins):
        values = np.array(values)
        a = EquiWidthHistogram(0.0, 100.0, bins)
        a.observe_batch(values)
        b = EquiWidthHistogram(0.0, 100.0, bins)
        b.observe_batch(values)
        assert a.total_variation_distance(b) == 0.0


class TestFisherNCHProperties:
    @given(
        m1=st.integers(1, 60),
        m2=st.integers(1, 60),
        odds=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_mean_within_support_and_monotone_in_odds(self, m1, m2, odds):
        n = (m1 + m2) // 2
        if n == 0:
            return
        d = FisherNCHypergeometric(m1, m2, n, odds)
        lo, hi = d.support
        assert lo <= d.mean <= hi
        d_higher = FisherNCHypergeometric(m1, m2, n, odds * 2.0)
        assert d_higher.mean >= d.mean - 1e-9

    @given(
        m1=st.integers(1, 60),
        m2=st.integers(1, 60),
        odds=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, m1, m2, odds):
        """Swapping the classes and inverting the odds mirrors X to
        n − X."""
        n = (m1 + m2) // 2
        if n == 0:
            return
        d = FisherNCHypergeometric(m1, m2, n, odds)
        mirrored = FisherNCHypergeometric(m2, m1, n, 1.0 / odds)
        assert d.mean + mirrored.mean == pytest.approx(n, rel=1e-6, abs=1e-6)
        assert d.variance == pytest.approx(
            mirrored.variance, rel=1e-6, abs=1e-6
        )


_shared_engine = None


def _bounded_engine():
    """Lazy shared engine (hypothesis does not manage pytest fixtures)."""
    global _shared_engine
    if _shared_engine is None:
        from repro.core.engine import SciBorq
        from repro.skyserver.generator import SkyGenerator, build_skyserver
        from repro.skyserver.schema import (
            DEC_RANGE,
            RA_RANGE,
            create_skyserver_catalog,
        )

        engine = SciBorq(
            create_skyserver_catalog(),
            interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
            rng=4242,
        )
        engine.create_hierarchy(
            "PhotoObjAll", policy="uniform", layer_sizes=(5_000, 500)
        )
        build_skyserver(
            30_000, generator=SkyGenerator(rng=4243), loader=engine.loader
        )
        _shared_engine = engine
    return _shared_engine


class TestBoundedExecutionContract:
    @given(target=st.floats(0.01, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_met_quality_implies_achieved_below_target(self, target):
        from repro.columnstore import AggregateSpec, Query
        from repro.columnstore.expressions import RadialPredicate

        engine = _bounded_engine()
        query = Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 150.0, 10.0, 5.0),
            aggregates=[AggregateSpec("count")],
        )
        outcome = engine.execute(query, Contract.within_error(target))
        if outcome.met_quality:
            assert outcome.achieved_error <= target
        # attempts are always ordered cheap-to-expensive
        rows = [a.rows for a in outcome.attempts]
        assert rows == sorted(rows)
