"""Literal transcriptions of the paper's pseudocode (Figures 2, 3, 6).

These are deliberately tuple-at-a-time and follow the figures line by
line, including the detail that one random draw serves both the
acceptance test and the slot choice.  ``tests/test_reference.py``
imports this module (the way ``tests/test_lazy_impressions.py`` imports
``ladder_dump``) and compares the production (vectorised) samplers
against these references:

* acceptance *rates* must match exactly in expectation;
* for Figure 2 the slot reuse is distributionally equivalent to a
  fresh uniform slot draw (conditioned on acceptance, ``rnd`` is
  uniform over ``[0, n)``);
* for Figures 3 and 6 the literal slot expression ``floor(n·rnd)``
  concentrates evictions in the low slots whenever the acceptance
  probability is below one (conditioned on acceptance, ``rnd`` is
  uniform over ``[0, p)``, so only slots ``< n·p`` are ever
  replaced).  The production samplers rescale the draw to keep
  evictions uniform, matching the prose ("another randomly chosen one
  is thrown out") rather than the pseudocode artefact.  The
  ``test_reference_slot_artifact`` tests document the difference.

:func:`sequential_offer_batch` is of another kind: the production
``ReservoirBase.offer_batch`` written hit by hit, with the same draws
in the same order.  ``tests/test_sequential_offer.py`` holds the
array-step implementation to it state array for state array.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.sampling.base import ReservoirBase
from repro.util.rng import RandomSource, ensure_rng


def reservoir_r_reference(
    stream: Iterable[object], n: int, rng: RandomSource = None
) -> List[object]:
    """Paper Figure 2, line by line.

    ``populate the sample smp with the first n tuples;
    cnt := n;
    while (tpl := block until next tuple())
        cnt++;
        rnd := floor(cnt*random());
        if (rnd < n) smp[rnd] := tpl;``
    """
    rng = ensure_rng(rng)
    smp: List[object] = []
    cnt = 0
    for tpl in stream:
        if len(smp) < n:
            smp.append(tpl)
            cnt += 1
            continue
        cnt += 1
        rnd = math.floor(cnt * rng.random())
        if rnd < n:
            smp[rnd] = tpl
    return smp


def last_seen_reference(
    stream: Iterable[object],
    n: int,
    daily_ingest: int,
    keep: int,
    rng: RandomSource = None,
) -> List[object]:
    """Paper Figure 3, line by line.

    ``populate the sample smp with the first n tuples;
    while (tpl := block until next tuple())
        rnd := random();
        if ((D*rnd) < k) smp[floor(n*rnd)] := tpl;``

    Note the slot expression: with acceptance probability ``k/D < 1``
    only slots below ``n·k/D`` are ever replaced.  See the module
    docstring.
    """
    rng = ensure_rng(rng)
    smp: List[object] = []
    for tpl in stream:
        if len(smp) < n:
            smp.append(tpl)
            continue
        rnd = rng.random()
        if daily_ingest * rnd < keep:
            smp[math.floor(n * rnd)] = tpl
    return smp


def biased_reference(
    stream: Iterable[Tuple[object, float]],
    n: int,
    predicate_set_size: int,
    mass_fn: Callable[[object], float] | None = None,
    rng: RandomSource = None,
) -> List[object]:
    """Paper Figure 6, line by line.

    ``populate the sample smp with the first n tuples;
    cnt := n;
    while (tpl := block until next tuple())
        cnt++;
        rnd := random();
        if ((cnt*rnd) < (n*N*f̆(tpl))) smp[floor(rnd*n)] := tpl;``

    ``stream`` yields ``(tuple, f̆(tuple))`` pairs unless ``mass_fn``
    is given, in which case it yields plain tuples and ``mass_fn``
    computes ``f̆``.
    """
    rng = ensure_rng(rng)
    smp: List[object] = []
    cnt = 0
    for item in stream:
        if mass_fn is None:
            tpl, f_value = item  # type: ignore[misc]
        else:
            tpl, f_value = item, mass_fn(item)
        if len(smp) < n:
            smp.append(tpl)
            cnt += 1
            continue
        cnt += 1
        rnd = rng.random()
        if cnt * rnd < n * predicate_set_size * f_value:
            smp[math.floor(rnd * n)] = tpl
    return smp


def slot_histogram_last_seen(
    total: int,
    n: int,
    daily_ingest: int,
    keep: int,
    rng: RandomSource = None,
) -> np.ndarray:
    """Count how often each slot is replaced by the literal Figure-3
    code over ``total`` offered tuples (documents the slot artefact)."""
    rng = ensure_rng(rng)
    hits = np.zeros(n, dtype=np.int64)
    for _ in range(total):
        rnd = rng.random()
        if daily_ingest * rnd < keep:
            hits[math.floor(n * rnd)] += 1
    return hits


def sequential_offer_batch(
    sampler: ReservoirBase,
    row_ids: np.ndarray,
    batch: Optional[Mapping[str, np.ndarray]] = None,
) -> int:
    """``ReservoirBase.offer_batch`` one accepted tuple at a time.

    The same acceptance test and the same draws, in the same order, but
    every hit is written by its own loop iteration, so a later hit into
    a slot overwrites an earlier one and accepts are numbered as they
    come.  Fills first, like the tuple-at-a-time figures.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    count = row_ids.shape[0]
    if count == 0:
        return 0
    start = 0
    accepted = 0
    if sampler._filled < sampler.capacity:
        take = min(sampler.capacity - sampler._filled, count)
        fill = slice(sampler._filled, sampler._filled + take)
        sampler._row_ids[fill] = row_ids[:take]
        sampler._accept_prob[fill] = 1.0
        sampler._accept_seq[fill] = sampler._accepts
        sampler._offer_cnt[fill] = sampler._seen + 1 + np.arange(take)
        sampler._churn_at[fill] = sampler._churn_total
        sampler._filled += take
        sampler._seen += take
        start = accepted = take
        if start == count:
            return accepted
    tail_ids = row_ids[start:]
    tail_batch = (
        {k: np.asarray(v)[start:] for k, v in batch.items()}
        if batch is not None
        else None
    )
    counts_after = sampler._seen + 1 + np.arange(tail_ids.shape[0], dtype=np.int64)
    probs = np.clip(
        sampler.acceptance_probabilities(tail_ids, tail_batch, counts_after),
        0.0,
        1.0,
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
    return accepted + hits.shape[0]
