"""E12 — sampler substrate: throughput and footprint of the reservoir
family.

Streams one million tuples through each sampler.  Shape checks: every
reservoir variant holds exactly its capacity; uniform inclusion
probabilities match the closed form.

Two entry points: ``pytest benchmarks/bench_reservoir.py -q -s``, and
standalone ``python benchmarks/bench_reservoir.py [--smoke]``.  The
standalone run streams the rows through Algorithm R, Last Seen and the
biased reservoir at the largest layer's capacity of the repo benchmark
(250 000 of 1 M rows), in 50 000-row batches as a load delivers them.
It first holds each sampler's state, array for array, to
:func:`sequential_offer` — ``offer_batch`` written one accepted tuple at
a time — on a short stream, then times both over the full stream in the
same process and writes ``BENCH_reservoir.json`` (rows/s, accepts, and
the speed-up over the transcription).  ``repro.bench.gates`` holds
Algorithm R's speed-up at 5x or more: a same-process ratio, not a
wall-clock floor.
"""

import time

import numpy as np
import pytest

from repro.sampling.biased import BiasedReservoir
from repro.sampling.last_seen import LastSeenReservoir
from repro.sampling.reservoir import ReservoirR

STREAM = 1_000_000
CAPACITY = 10_000
CHUNK = 50_000
#: the largest layer of the repo benchmark's hierarchy over its 1 M rows
TOP_LAYER = 250_000
STATE = ("_row_ids", "_accept_prob", "_accept_seq", "_offer_cnt", "_churn_at")


def focal_mass(batch):
    """Interest mass 8 on a tenth of the row ids, 0.2 elsewhere."""
    return np.where((batch["x"] >= 400_000) & (batch["x"] < 500_000), 8.0, 0.2)


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
            lambda: BiasedReservoir(CAPACITY, mass_fn=focal_mass, rng=3),
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


# ----------------------------------------------------------------------
# standalone: the array-step offer against its hit-by-hit transcription
# ----------------------------------------------------------------------
def sequential_offer(sampler, row_ids, batch=None) -> int:
    """``ReservoirBase.offer_batch`` with one loop iteration per accepted
    tuple: the same acceptance test and draws, in the same order."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    count = row_ids.shape[0]
    take = min(sampler.capacity - sampler._filled, count)
    fill = slice(sampler._filled, sampler._filled + take)
    sampler._row_ids[fill] = row_ids[:take]
    sampler._accept_prob[fill] = 1.0
    sampler._accept_seq[fill] = sampler._accepts
    sampler._offer_cnt[fill] = sampler._seen + 1 + np.arange(take)
    sampler._churn_at[fill] = sampler._churn_total
    sampler._filled += take
    sampler._seen += take
    if take == count:
        return take
    tail_ids = row_ids[take:]
    tail_batch = (
        {k: np.asarray(v)[take:] for k, v in batch.items()} if batch else None
    )
    counts_after = sampler._seen + 1 + np.arange(tail_ids.shape[0], dtype=np.int64)
    probs = np.clip(
        sampler.acceptance_probabilities(tail_ids, tail_batch, counts_after), 0.0, 1.0
    )
    draws = sampler.rng.random(tail_ids.shape[0])
    hits = np.flatnonzero(draws < probs)
    slots = sampler.rng.integers(0, sampler.capacity, size=hits.shape[0])
    churn_after = sampler._churn_total + np.cumsum(probs) / sampler.capacity
    for hit, slot in zip(hits, slots):
        sampler._accepts += 1
        sampler._row_ids[slot] = tail_ids[hit]
        sampler._accept_prob[slot] = probs[hit]
        sampler._accept_seq[slot] = sampler._accepts
        sampler._offer_cnt[slot] = counts_after[hit]
        sampler._churn_at[slot] = churn_after[hit]
    sampler._churn_total = float(churn_after[-1])
    sampler._seen += tail_ids.shape[0]
    return take + hits.shape[0]


def samplers(capacity: int, stream: int):
    """(name, factory, needs_values) for the three reservoirs."""
    return [
        ("algorithm_r", lambda: ReservoirR(capacity, rng=11), False),
        # one "day" is the whole stream: k/D = capacity/stream
        (
            "last_seen",
            lambda: LastSeenReservoir(capacity, daily_ingest=stream, rng=12),
            False,
        ),
        (
            "biased",
            lambda: BiasedReservoir(
                capacity, mass_fn=focal_mass, uniform_floor=0.1, rng=13
            ),
            True,
        ),
    ]


def stream_through(
    sampler, offer, stream: int, needs_values: bool, chunk: int = CHUNK
) -> float:
    """Seconds to offer ``stream`` rows in ``chunk``-row batches via
    ``offer``."""
    elapsed = 0.0
    for start in range(0, stream, chunk):
        ids = np.arange(start, min(start + chunk, stream))
        batch = {"x": ids.astype(float)} if needs_values else None
        began = time.perf_counter()
        offer(sampler, ids, batch)
        elapsed += time.perf_counter() - began
    return elapsed


def array_offer(sampler, ids, batch) -> int:
    return sampler.offer_batch(ids, batch)


def run_identity_claim(capacity: int, stream: int) -> None:
    """Array steps and the hit-by-hit loop leave the same state after a
    stream whose fourth batch straddles the fill."""
    for name, factory, needs_values in samplers(capacity, stream):
        got, want = factory(), factory()
        chunk = capacity // 3
        stream_through(got, array_offer, stream, needs_values, chunk)
        stream_through(want, sequential_offer, stream, needs_values, chunk)
        for field in STATE:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got._churn_total, got.accepts, got.seen) == (
            want._churn_total,
            want.accepts,
            want.seen,
        )
        assert got.rng.bit_generator.state == want.rng.bit_generator.state
        print(
            f"  {name}: state identical to the hit-by-hit loop "
            f"({got.accepts} accepts)"
        )


def run_throughput_claim(capacity: int, stream: int) -> dict:
    """Rows/s of the array-step offer and its speed-up over the loop."""
    results = {}
    for name, factory, needs_values in samplers(capacity, stream):
        sampler = factory()
        fast = stream_through(sampler, array_offer, stream, needs_values)
        slow = stream_through(factory(), sequential_offer, stream, needs_values)
        assert sampler.size == capacity and sampler.seen == stream
        results[name] = {
            "rows_per_s": stream / fast,
            "accepts": sampler.accepts,
            "seconds": fast,
            "sequential_seconds": slow,
            "speedup": slow / fast,
        }
        print(
            f"  {name}: {stream / fast / 1e6:.1f}M rows/s, "
            f"{sampler.accepts} accepts, {slow / fast:.1f}x the hit-by-hit loop"
        )
    return results


def main() -> None:
    import argparse

    from repro.bench.report import write_bench_report

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1 M rows for CI (the full run streams 4 M)",
    )
    args = parser.parse_args()
    stream = STREAM if args.smoke else 4 * STREAM
    print(f"reservoir benchmark: stream={stream} capacity={TOP_LAYER}")
    run_identity_claim(capacity=2_500, stream=20_000)
    results = run_throughput_claim(TOP_LAYER, stream)
    write_bench_report(
        "reservoir", {"stream": stream, "capacity": TOP_LAYER, **results}
    )
    print("state identical to the hit-by-hit loop ✓ (speed-ups: see the gates)")


if __name__ == "__main__":
    main()
