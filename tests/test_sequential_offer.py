"""The reservoir's array-step offer against its hit-by-hit transcription.

``ReservoirBase.offer_batch`` writes a batch's accepted tuples with one
scatter per state array.  These tests hold it byte for byte to
:func:`reference_samplers.sequential_offer_batch`, which draws the same
numbers and writes one hit per loop iteration: every state array,
the churn integral, the counters and the πs, for Algorithm R, Last Seen
and the biased reservoir, over random capacities and batch splits —
small capacities make several hits in one batch land on the same slot.
The same holds for whole hierarchies loaded through an engine, and for
the lookups around the samplers (refresh-from-below's composed πs, the
(cell, row id) index).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_samplers import sequential_offer_batch
from repro import SciBorq
from repro.core.impression import CellKeys, _index
from repro.core.maintenance import refresh_from_below, refresh_hierarchy
from repro.core.policy import BiasedPolicy, UniformPolicy, build_hierarchy
from repro.errors import SamplingError
from repro.sampling.base import ReservoirBase
from repro.sampling.biased import BiasedReservoir
from repro.sampling.last_seen import LastSeenReservoir
from repro.sampling.reservoir import ReservoirR
from repro.skyserver import SkyGenerator, build_skyserver, create_skyserver_catalog
from repro.skyserver.schema import DEC_RANGE, RA_RANGE
from repro.workload.interest import InterestModel
from table_helpers import table_from_arrays

STATE = ("_row_ids", "_accept_prob", "_accept_seq", "_offer_cnt", "_churn_at")
SCHEDULES = ("algorithm_r", "last_seen", "biased", "biased_floor")


def focal_mass(batch):
    """Interest mass peaked on a quarter of the unit interval, 0 elsewhere."""
    x = batch["x"]
    return np.where((x > 0.4) & (x < 0.65), 6.0, 0.0)


def make(schedule: str, capacity: int, seed: int) -> ReservoirBase:
    if schedule == "algorithm_r":
        return ReservoirR(capacity, rng=seed)
    if schedule == "last_seen":
        return LastSeenReservoir(
            capacity, daily_ingest=3 * capacity, keep=max(1, capacity // 2), rng=seed
        )
    floor = 0.2 if schedule == "biased_floor" else 0.0
    return BiasedReservoir(capacity, mass_fn=focal_mass, uniform_floor=floor, rng=seed)


def assert_same_state(got: ReservoirBase, want: ReservoirBase) -> None:
    for name in STATE:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got._churn_total == want._churn_total
    assert (got.accepts, got.seen, got.size) == (want.accepts, want.seen, want.size)
    assert (
        got.inclusion_probabilities().tobytes()
        == want.inclusion_probabilities().tobytes()
    )


class TestByteIdentity:
    @given(
        schedule=st.sampled_from(SCHEDULES),
        capacity=st.integers(1, 40),
        batches=st.lists(st.integers(0, 120), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    # capacity 1: every accepted tuple of a batch lands on slot 0
    @example(schedule="algorithm_r", capacity=1, batches=[3, 50], seed=0)
    # one batch straddles the fill
    @example(schedule="biased", capacity=10, batches=[4, 90], seed=1)
    @settings(max_examples=150, deadline=None)
    def test_state_equals_the_hit_by_hit_loop(self, schedule, capacity, batches, seed):
        got, want = make(schedule, capacity, seed), make(schedule, capacity, seed)
        values = np.random.default_rng(seed).uniform(0, 1, sum(batches))
        first = 0
        for size in batches:
            ids = np.arange(first, first + size)
            batch = {"x": values[first : first + size]}
            assert got.offer_batch(ids, batch) == sequential_offer_batch(
                want, ids, batch
            )
            assert_same_state(got, want)
            first += size
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    @pytest.mark.parametrize("policy", ["uniform", "biased"])
    def test_an_engine_load_equals_an_oracle_fed_twin(self, policy, monkeypatch):
        """200 000 SkyServer rows through ``engine.create_hierarchy``'s
        layers: every layer's row ids and πs match an engine whose
        reservoirs run the hit-by-hit loop."""

        def load():
            engine = SciBorq(
                create_skyserver_catalog(),
                interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
                rng=31,
            )
            hierarchy = engine.create_hierarchy(
                "PhotoObjAll", policy=policy, layer_sizes=(50_000, 10_000, 2_000)
            )
            build_skyserver(
                200_000, generator=SkyGenerator(rng=32), loader=engine.loader
            )
            return hierarchy

        got = load()
        monkeypatch.setattr(ReservoirBase, "offer_batch", sequential_offer_batch)
        want = load()
        for mine, theirs in zip(got.layers, want.layers):
            assert mine.sampler.accepts == theirs.sampler.accepts > 0
            assert mine.row_ids.tobytes() == theirs.row_ids.tobytes()
            assert (
                mine.inclusion_probabilities().tobytes()
                == theirs.inclusion_probabilities().tobytes()
            )


class TestAFailedOfferLeavesNoTrace:
    @pytest.mark.parametrize("schedule", ["algorithm_r", "last_seen", "biased"])
    def test_a_raising_schedule_on_a_batch_straddling_the_fill(
        self, schedule, monkeypatch
    ):
        sampler = make(schedule, 100, seed=5)
        sampler.offer_batch(np.arange(40), {"x": np.full(40, 0.5)})
        if schedule == "biased":
            sampler.mass_fn = lambda batch: -np.ones(batch["x"].shape[0])
        else:

            def refuse(row_ids, batch, counts_after):
                raise SamplingError("no schedule")

            monkeypatch.setattr(sampler, "acceptance_probabilities", refuse)
        before = {name: getattr(sampler, name).copy() for name in STATE}
        counters = (sampler._churn_total, sampler.accepts, sampler.seen, sampler.size)
        rng_state = sampler.rng.bit_generator.state
        with pytest.raises(SamplingError):
            sampler.offer_batch(np.arange(40, 190), {"x": np.full(150, 0.5)})
        for name in STATE:
            np.testing.assert_array_equal(getattr(sampler, name), before[name])
        assert (
            sampler._churn_total, sampler.accepts, sampler.seen, sampler.size
        ) == counters == (0.0, 0, 40, 40)
        assert sampler.rng.bit_generator.state == rng_state


def dict_composed(lower_ids, lower_pis, upper_ids, upper_pis):
    """Refresh-from-below's composed πs through a per-row dict."""
    pi_of_row = {int(row): float(pi) for row, pi in zip(lower_ids, lower_pis)}
    composed = np.array([pi_of_row[int(row)] for row in upper_ids], dtype=float)
    return np.clip(composed * upper_pis, 1e-12, 1.0)


class TestRefreshLookup:
    @pytest.mark.parametrize("kind", ["uniform", "biased"])
    def test_composed_pis_equal_the_dict_composition(self, kind):
        rows = 30_000
        x = np.random.default_rng(8).uniform(0, 1, rows)
        base = table_from_arrays("base", {"x": x})
        sizes = (3_000, 600, 60)
        if kind == "uniform":
            policy = UniformPolicy(layer_sizes=sizes)
        else:
            interest = InterestModel({"x": (0.0, 1.0)})
            focus = np.random.default_rng(10).uniform(0.4, 0.6, 200)
            interest.observe_values("x", focus)
            policy = BiasedPolicy(interest=interest, layer_sizes=sizes)
        hierarchy = build_hierarchy("base", policy, rng=9)
        for layer in hierarchy.layers:
            layer.sampler.offer_batch(np.arange(rows), {"x": x})
        # a refreshed hierarchy: the lower layers carry composed πs
        refresh_hierarchy(hierarchy, base)
        for lower, upper in zip(hierarchy.layers, hierarchy.layers[1:]):
            lower_ids, lower_pis = lower.row_ids, lower.inclusion_probabilities()
            refresh_from_below(upper, lower, base)
            want = dict_composed(
                lower_ids,
                lower_pis,
                upper.sampler.row_ids,
                upper.sampler.inclusion_probabilities(),
            )
            assert upper.inclusion_probabilities().tobytes() == want.tobytes()


class TestIndexSort:
    @given(
        rows=st.integers(1, 3_000),
        size=st.integers(1, 600),
        churn=st.integers(0, 200),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_index_equals_a_stable_sorted_oracle(self, rows, size, churn, seed):
        """From scratch and patched, the (cell, row id) index orders its
        distinct keys as a stable sort does."""
        rng = np.random.default_rng(seed)
        cells = CellKeys({"x": (0.0, 1.0), "y": (0.0, 1.0)})
        total = rows + size + churn
        cells.observe(0, {"x": rng.uniform(0, 1, total), "y": rng.uniform(0, 1, total)})
        ids = rng.permutation(total)[:size].astype(np.int64)
        previous = None
        for _ in range(2):
            index, _patch = _index(cells, ids, previous)
            keys = cells.sort_keys(ids)
            order = np.argsort(keys, kind="stable")
            np.testing.assert_array_equal(index.order, order)
            np.testing.assert_array_equal(index.sorted_keys, keys[order])
            np.testing.assert_array_equal(index.slot_keys, keys)
            # replace a few slots with rows the reservoir does not hold
            fresh = np.setdiff1d(np.arange(total), ids)[: min(churn, size) // 4]
            ids = ids.copy()
            ids[rng.choice(size, fresh.shape[0], replace=False)] = fresh
            previous = index
