"""E12 — sampler substrate: throughput and footprint of the reservoir
family.

Streams one million tuples through each sampler.  Shape checks: every
reservoir variant holds exactly its capacity; uniform inclusion
probabilities match the closed form.
"""

import numpy as np
import pytest

from repro.sampling.biased import BiasedReservoir
from repro.sampling.last_seen import LastSeenReservoir
from repro.sampling.reservoir import ReservoirR

STREAM = 1_000_000
CAPACITY = 10_000
CHUNK = 50_000


def drive(sampler, needs_values: bool) -> None:
    for start in range(0, STREAM, CHUNK):
        ids = np.arange(start, start + CHUNK)
        if needs_values:
            sampler.offer_batch(ids, {"x": ids.astype(float)})
        else:
            sampler.offer_batch(ids)


@pytest.mark.parametrize(
    "name,factory,needs_values",
    [
        ("algorithm-R", lambda: ReservoirR(CAPACITY, rng=1), False),
        (
            "last-seen",
            lambda: LastSeenReservoir(CAPACITY, daily_ingest=CHUNK, rng=2),
            False,
        ),
        (
            "biased",
            lambda: BiasedReservoir(
                CAPACITY,
                mass_fn=lambda batch: np.where(
                    (batch["x"] >= 400_000) & (batch["x"] < 500_000), 8.0, 0.2
                ),
                rng=3,
            ),
            True,
        ),
    ],
)
def test_reservoir_throughput(benchmark, name, factory, needs_values):
    def run():
        sampler = factory()
        drive(sampler, needs_values)
        return sampler

    sampler = benchmark.pedantic(run, rounds=2, iterations=1)
    rate = STREAM / max(benchmark.stats.stats.mean, 1e-9)
    print(f"== E12: {name}: {rate / 1e6:.1f}M tuples/s, size={sampler.size}")

    assert sampler.size == CAPACITY  # fixed footprint, always
    assert sampler.seen == STREAM


def test_uniform_inclusion_probability_closed_form(benchmark):
    def run():
        sampler = ReservoirR(CAPACITY, rng=5)
        drive(sampler, False)
        return sampler.inclusion_probabilities()

    pis = benchmark.pedantic(run, rounds=2, iterations=1)
    np.testing.assert_allclose(pis, CAPACITY / STREAM)
