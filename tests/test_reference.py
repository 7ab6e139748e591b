"""Tests comparing production samplers against the literal pseudocode
transcriptions of paper Figures 2, 3 and 6."""

import numpy as np
import pytest

from reference_samplers import (
    biased_reference,
    last_seen_reference,
    reservoir_r_reference,
    slot_histogram_last_seen,
)


class TestReservoirRReference:
    def test_size_and_membership(self):
        sample = reservoir_r_reference(range(1000), 50, rng=0)
        assert len(sample) == 50
        assert set(sample) <= set(range(1000))
        assert len(set(sample)) == 50

    def test_short_stream_keeps_everything(self):
        assert reservoir_r_reference(range(5), 10, rng=0) == list(range(5))

    def test_uniformity_matches_production(self):
        """Mean of kept ids ≈ stream mean for both implementations."""
        from repro.sampling.reservoir import ReservoirR

        ref_means, prod_means = [], []
        for seed in range(20):
            ref = reservoir_r_reference(range(20_000), 500, rng=seed)
            ref_means.append(np.mean(ref))
            prod = ReservoirR(500, rng=seed + 1000)
            prod.offer_batch(np.arange(20_000))
            prod_means.append(prod.row_ids.mean())
        assert np.mean(ref_means) == pytest.approx(10_000, rel=0.03)
        assert np.mean(prod_means) == pytest.approx(10_000, rel=0.03)


class TestLastSeenReference:
    def test_literal_pseudocode_freezes_high_slots(self):
        """The literal Figure-3 code only ever replaces slots below
        n·k/D, so the initial fill survives in the other slots — the
        artefact the production sampler corrects.  With k/D = 0.1 the
        steady-state recent fraction is pinned near 10%, not the ~63%
        a uniform-eviction reservoir reaches."""
        stream = range(100, 50_100)
        sample = last_seen_reference(stream, 100, daily_ingest=1000, keep=100, rng=1)
        recent = np.mean([s >= 40_000 for s in sample])
        initial_fill_survivors = np.mean([s < 200 for s in sample])
        assert recent == pytest.approx(0.1, abs=0.05)
        assert initial_fill_survivors > 0.8

    def test_slot_artifact_concentrates_low_slots(self):
        """The literal Figure-3 slot expression floor(n·rnd) with
        acceptance rnd < k/D only ever touches slots < n·k/D.  This
        documents the pseudocode artefact our production sampler
        deliberately corrects (see reference_samplers.py docstring)."""
        hits = slot_histogram_last_seen(
            total=50_000, n=100, daily_ingest=1000, keep=100, rng=2
        )
        # k/D = 0.1 -> only slots 0..9 can be hit
        assert hits[:10].sum() == hits.sum() > 0
        assert (hits[10:] == 0).all()

    def test_production_sampler_spreads_evictions(self):
        """Production Last Seen replaces slots uniformly, so long-run
        occupancy cannot be dominated by the first n·k/D slots."""
        from repro.sampling.last_seen import LastSeenReservoir

        sampler = LastSeenReservoir(100, daily_ingest=1000, rng=3)
        for day in range(50):
            sampler.offer_batch(np.arange(day * 1000, (day + 1) * 1000))
        # all slots should hold recent-ish tuples; if only slots <10
        # were replaced, 90% of the sample would still be from day 0
        from_day0 = (sampler.row_ids < 1000).mean()
        assert from_day0 < 0.2


class TestBiasedReference:
    def test_accepts_with_mass_pairs(self):
        stream = [(i, 2.0 if 400 <= i < 500 else 0.01) for i in range(2000)]
        sample = biased_reference(stream, 100, predicate_set_size=100, rng=4)
        focal = np.mean([400 <= s < 500 for s in sample])
        assert focal > 0.3  # population share is 0.05

    def test_accepts_with_mass_function(self):
        sample = biased_reference(
            range(2000),
            100,
            predicate_set_size=100,
            mass_fn=lambda i: 1.0 if i < 100 else 0.0,
            rng=5,
        )
        assert len(sample) == 100

    def test_zero_mass_tail_never_enters(self):
        stream = [(i, 1.0 if i < 200 else 0.0) for i in range(1000)]
        sample = biased_reference(stream, 50, predicate_set_size=50, rng=6)
        assert all(s < 200 for s in sample)

    def test_production_and_reference_both_concentrate_on_focal(self):
        """Interleaved focal tuples (every 20th id): both the literal
        pseudocode and the production sampler overrepresent the focal
        5% population share several-fold.  Exact shares differ because
        the literal code's slot reuse shields high slots from
        low-probability evictions (see module docstring)."""
        from repro.sampling.biased import BiasedReservoir

        def is_focal(i):
            return i % 20 == 0

        def mass_fn(batch):
            x = batch["x"]
            return np.where(x % 20 == 0, 3.0 * 100, 0.05 * 100)

        ref_shares, prod_shares = [], []
        for seed in range(15):
            stream = [
                (i, 3.0 if is_focal(i) else 0.05) for i in range(4000)
            ]
            ref = biased_reference(stream, 100, predicate_set_size=100, rng=seed)
            ref_shares.append(np.mean([is_focal(s) for s in ref]))
            prod = BiasedReservoir(100, mass_fn, rng=seed + 500)
            ids = np.arange(4000)
            prod.offer_batch(ids, {"x": ids})
            prod_shares.append((prod.row_ids % 20 == 0).mean())
        population_share = 0.05
        assert np.mean(ref_shares) > 3 * population_share
        assert np.mean(prod_shares) > 3 * population_share
