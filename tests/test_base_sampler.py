"""Tests for the reservoir base machinery: churn integral, load_state."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling.base import ReservoirBase
from repro.sampling.biased import BiasedReservoir
from repro.sampling.last_seen import LastSeenReservoir
from repro.sampling.reservoir import ReservoirR
from table_helpers import table_from_arrays


class FixedProbReservoir(ReservoirBase):
    """Test double with a configurable constant acceptance probability."""

    def __init__(self, capacity, prob, rng=None):
        super().__init__(capacity, rng)
        self.prob = prob

    def acceptance_probabilities(self, row_ids, batch, counts_after):
        return np.full(row_ids.shape[0], self.prob)


class TestChurnIntegral:
    def test_uniform_schedule_reduces_to_n_over_N(self):
        """For acceptance n/cnt the churn-integral π must equal the
        classical Algorithm-R value for every occupant."""

        class PlainR(ReservoirBase):
            def acceptance_probabilities(self, row_ids, batch, counts_after):
                return self.capacity / counts_after.astype(float)

        sampler = PlainR(200, rng=0)
        for chunk in np.array_split(np.arange(20_000), 10):
            sampler.offer_batch(chunk)
        pis = sampler.inclusion_probabilities()
        np.testing.assert_allclose(pis, 200 / 20_000, rtol=0.02)

    def test_constant_schedule_decays_exponentially(self):
        sampler = FixedProbReservoir(100, prob=0.1, rng=1)
        sampler.offer_batch(np.arange(10_000))
        pis = sampler.inclusion_probabilities()
        ids = sampler.row_ids
        # π(c) = 0.1·exp(−0.1·(N−c)/n) for accepted tuples
        accepted = ids >= 100  # beyond the initial fill
        expected = 0.1 * np.exp(-0.1 * (10_000 - ids[accepted]) / 100)
        np.testing.assert_allclose(pis[accepted], expected, rtol=0.05)

    def test_churn_independent_of_batching(self):
        a = FixedProbReservoir(50, prob=0.2, rng=2)
        a.offer_batch(np.arange(5_000))
        b = FixedProbReservoir(50, prob=0.2, rng=2)
        for chunk in np.array_split(np.arange(5_000), 13):
            b.offer_batch(chunk)
        assert a._churn_total == pytest.approx(b._churn_total)

    def test_pis_bounded(self):
        sampler = FixedProbReservoir(10, prob=0.9, rng=3)
        sampler.offer_batch(np.arange(1_000))
        pis = sampler.inclusion_probabilities()
        assert (pis > 0).all() and (pis <= 1).all()


class TestLoadState:
    def test_roundtrip(self):
        sampler = ReservoirR(100, rng=0)
        ids = np.arange(100, 200)
        pis = np.linspace(0.1, 0.9, 100)
        sampler.load_state(ids, pis, seen=5_000)
        np.testing.assert_array_equal(sampler.row_ids, ids)
        assert sampler.seen == 5_000
        assert sampler.size == 100

    def test_loaded_pis_survive_on_non_uniform_samplers(self):
        sampler = LastSeenReservoir(100, daily_ingest=1000, rng=1)
        ids = np.arange(100)
        pis = np.full(100, 0.37)
        sampler.load_state(ids, pis, seen=1_000)
        np.testing.assert_allclose(sampler.inclusion_probabilities(), 0.37)

    def test_streaming_after_load_decays_loaded_pis(self):
        mass_fn = lambda batch: np.ones(batch["x"].shape[0])
        sampler = BiasedReservoir(100, mass_fn, rng=2)
        sampler.load_state(np.arange(100), np.full(100, 0.5), seen=1_000)
        sampler.offer_batch(
            np.arange(1_000, 3_000), {"x": np.arange(2_000).astype(float)}
        )
        pis = sampler.inclusion_probabilities()
        survivors = sampler.row_ids < 100
        if survivors.any():
            # loaded occupants decayed below their installed 0.5
            assert (pis[survivors] < 0.5).all()

    def test_partial_fill_allowed(self):
        sampler = ReservoirR(100, rng=3)
        sampler.load_state(np.arange(30), np.full(30, 1.0), seen=30)
        assert sampler.size == 30

    def test_validation(self):
        sampler = ReservoirR(10, rng=4)
        with pytest.raises(SamplingError, match="align"):
            sampler.load_state(np.arange(5), np.ones(4), seen=10)
        with pytest.raises(SamplingError, match="capacity"):
            sampler.load_state(np.arange(11), np.ones(11), seen=11)


class TestPPSRebuildIntegration:
    def test_biased_rebuild_uses_exact_pps_pis(self, rng):
        """After rebuild_from_base on a static table, a biased layer's
        πs equal the exact πps probabilities of its (floored) masses."""
        from repro.core.hierarchy import ImpressionHierarchy
        from repro.core.impression import Impression
        from repro.core.maintenance import rebuild_from_base
        from repro.sampling.pps import pps_inclusion_probabilities

        base = table_from_arrays(
            "base",
            {"id": np.arange(20_000), "x": rng.uniform(0, 100, 20_000)},
        )

        def mass_fn(batch):
            x = batch["x"]
            return np.where((x > 40) & (x < 60), 5.0, 0.2)

        sampler = BiasedReservoir(2_000, mass_fn, uniform_floor=0.1, rng=5)
        impression = Impression("base/b/L0", "base", sampler)
        hierarchy = ImpressionHierarchy("base/b", "base", [impression])
        rebuild_from_base(hierarchy, base)

        masses = np.maximum(mass_fn({"x": base["x"]}), 0.1)
        expected = pps_inclusion_probabilities(masses, 2_000)
        np.testing.assert_allclose(
            impression.inclusion_probabilities(),
            expected[impression.row_ids],
            rtol=1e-9,
        )
        # focal tuples dominate the sample
        focal = (base["x"][impression.row_ids] > 40) & (
            base["x"][impression.row_ids] < 60
        )
        assert focal.mean() > 0.5
