"""Shared machinery for reservoir-style samplers.

All of the paper's construction algorithms share the reservoir shape
(paper §3.3): a fixed capacity of ``n`` slots, sequential processing,
and eviction of an existing occupant to admit a newcomer.  They differ
only in the per-tuple acceptance probability.  This base class owns
the slots, the accept bookkeeping, and the inclusion-probability
accounting that the Horvitz–Thompson estimators need; subclasses
supply :meth:`acceptance_probabilities`.

Sequential semantics, array steps
---------------------------------
The figures process one tuple at a time; :meth:`ReservoirBase.offer_batch`
processes a batch in a handful of array operations that leave exactly
the state the tuple-at-a-time loop would.  Accepted tuples are not rare
— a 250 000-slot layer accepts about a third of a 1 M-row load — so
none of them takes a Python path: the accepts are written with one
scatter per state array, and when several accepted tuples of a batch
draw the same slot the last one in stream order wins.

Inclusion probabilities
-----------------------
A tuple accepted with probability ``p`` must survive every later
offer: at each subsequent stream position ``j`` the reservoir evicts
any given occupant with probability ``p_j / n`` (the newcomer is
accepted with probability ``p_j`` and evicts a uniformly random slot,
per the paper: "another randomly chosen one is thrown out").  Since
the sampler computes every ``p_j`` anyway, it integrates the *expected
churn* ``C = Σ_j p_j / n`` online and stamps each occupant with the
integral at its insertion, giving the marginal inclusion probability

``π = p · exp(−(C_now − C_at_insert))``.

This is exact in expectation for any acceptance schedule and —
crucially — gives identical π to tuples of identical acceptance
profile regardless of *when* they were accepted, which keeps
Horvitz–Thompson variance estimates tight.  For Algorithm R it
reduces to the classical ``n/cnt`` (``p = n/c`` and
``C_now − C_at = ln(cnt/c)``), which
:class:`repro.sampling.reservoir.ReservoirR` reports in closed form.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.errors import SamplingError
from repro.util.rng import RandomSource, ensure_rng


class ReservoirBase:
    """Fixed-capacity reservoir over base-table row ids.

    The sampler never stores tuple values — only row ids and
    statistical metadata — so one sampler design serves tables of any
    schema.  Materialising the sampled rows is the impression's job.

    Parameters
    ----------
    capacity:
        n, the number of slots.
    rng:
        Seed or generator for all stochastic choices.
    """

    def __init__(self, capacity: int, rng: RandomSource = None) -> None:
        if capacity <= 0:
            raise SamplingError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.rng = ensure_rng(rng)
        self._row_ids = np.full(self.capacity, -1, dtype=np.int64)
        self._accept_prob = np.ones(self.capacity, dtype=np.float64)
        self._accept_seq = np.zeros(self.capacity, dtype=np.int64)
        self._offer_cnt = np.zeros(self.capacity, dtype=np.int64)
        self._churn_at = np.zeros(self.capacity, dtype=np.float64)
        self._churn_total = 0.0
        self._filled = 0
        self._seen = 0
        self._accepts = 0

    # ------------------------------------------------------------------
    # the subclass hook
    # ------------------------------------------------------------------
    def acceptance_probabilities(
        self,
        row_ids: np.ndarray,
        batch: Optional[Mapping[str, np.ndarray]],
        counts_after: np.ndarray,
    ) -> np.ndarray:
        """Per-tuple acceptance probability for a batch.

        ``counts_after[i]`` is the value of the paper's ``cnt`` when
        tuple ``i`` is considered (i.e. tuples seen so far including
        tuple ``i``).  ``batch`` carries the column values for
        samplers that need them (the biased reservoir); Algorithm R
        and Last Seen ignore it.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def offer_batch(
        self,
        row_ids: np.ndarray,
        batch: Optional[Mapping[str, np.ndarray]] = None,
    ) -> int:
        """Stream a batch of tuples through the reservoir.

        Returns the number of tuples accepted.  The batch leaves the
        state the tuple-at-a-time loop would, in array steps: the first
        tuples fill the empty slots, the rest take one vectorised
        acceptance test, and the accepted ones are written with one
        scatter per state array.  When several accepted tuples draw the
        same slot, the last one in stream order wins; accepts are
        numbered in stream order.  Probabilities and draws are computed
        before any state is written, so a batch whose probabilities
        raise leaves the reservoir as it was.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.ndim != 1:
            raise SamplingError("row_ids must be one-dimensional")
        count = row_ids.shape[0]
        if count == 0:
            return 0
        take = min(self.capacity - self._filled, count)
        if take == count:
            self._fill(row_ids)
            return count
        # Phase 2: probabilistic replacement, evicting a uniformly random
        # slot per accepted tuple.  Everything that can raise runs before
        # the fill writes; the fill draws nothing, so the draws keep
        # their stream order.
        tail_ids = row_ids[take:]
        tail_batch = (
            {k: np.asarray(v)[take:] for k, v in batch.items()}
            if batch is not None
            else None
        )
        counts_after = (
            self._seen + take + 1 + np.arange(tail_ids.shape[0], dtype=np.int64)
        )
        probs = np.clip(
            self.acceptance_probabilities(tail_ids, tail_batch, counts_after),
            0.0,
            1.0,
        )
        draws = self.rng.random(tail_ids.shape[0])
        hits = np.flatnonzero(draws < probs)
        slots = self.rng.integers(0, self.capacity, size=hits.shape[0])
        churn_after = self._churn_total + np.cumsum(probs) / self.capacity
        self._fill(row_ids[:take])
        # the last accept into each slot wins: the greatest position among
        # the hits that drew it
        position = np.arange(hits.shape[0])
        latest = np.full(self.capacity, -1, dtype=np.int64)
        np.maximum.at(latest, slots, position)
        last = np.flatnonzero(latest[slots] == position)
        won, winners = slots[last], hits[last]
        self._row_ids[won] = tail_ids[winners]
        self._accept_prob[won] = probs[winners]
        self._accept_seq[won] = self._accepts + 1 + last
        self._offer_cnt[won] = counts_after[winners]
        self._churn_at[won] = churn_after[winners]
        self._accepts += hits.shape[0]
        self._churn_total = float(churn_after[-1])
        self._seen += tail_ids.shape[0]
        return take + hits.shape[0]

    def _fill(self, row_ids: np.ndarray) -> None:
        """Phase 1, the initial fill ("populate the sample with the first
        n tuples" — every construction figure starts this way): the next
        empty slots take ``row_ids``, accepted with probability one."""
        take = row_ids.shape[0]
        fill = slice(self._filled, self._filled + take)
        self._row_ids[fill] = row_ids
        self._accept_prob[fill] = 1.0
        self._accept_seq[fill] = self._accepts
        self._offer_cnt[fill] = self._seen + 1 + np.arange(take)
        self._churn_at[fill] = self._churn_total
        self._filled += take
        self._seen += take

    def load_state(
        self,
        row_ids: np.ndarray,
        inclusion_probs: np.ndarray,
        seen: int,
    ) -> None:
        """Install an externally-constructed sample as reservoir state.

        Used by maintenance when a layer is rebuilt from static data
        with an exact design (πps, see :mod:`repro.sampling.pps`): the
        provided inclusion probabilities become the occupants'
        ``accept_prob`` with zero accumulated churn, so subsequent
        *streaming* offers decay them correctly through the ordinary
        expected-churn bookkeeping.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        inclusion_probs = np.asarray(inclusion_probs, dtype=float)
        if row_ids.shape != inclusion_probs.shape:
            raise SamplingError("row_ids and inclusion_probs must align")
        if row_ids.shape[0] > self.capacity:
            raise SamplingError(
                f"cannot load {row_ids.shape[0]} rows into capacity "
                f"{self.capacity}"
            )
        count = row_ids.shape[0]
        self._row_ids[:count] = row_ids
        self._accept_prob[:count] = np.clip(inclusion_probs, 1e-12, 1.0)
        self._accept_seq[:count] = 0
        self._offer_cnt[:count] = max(int(seen), 1)
        self._churn_at[:count] = 0.0
        self._churn_total = 0.0
        self._filled = count
        self._seen = int(seen)
        self._accepts = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def seen(self) -> int:
        """Total tuples offered (the paper's ``cnt``)."""
        return self._seen

    @property
    def accepts(self) -> int:
        """Total replacement accepts since the initial fill."""
        return self._accepts

    @property
    def size(self) -> int:
        """Tuples currently held (< capacity only before first fill)."""
        return self._filled

    @property
    def row_ids(self) -> np.ndarray:
        """Base-table row ids of the current occupants (a copy)."""
        return self._row_ids[: self._filled].copy()

    def inclusion_probabilities(self) -> np.ndarray:
        """Marginal π per occupant via the expected-churn integral.

        ``π = p · exp(−(C_now − C_at_insert))`` — see the module
        docstring.  Exact-in-expectation for every acceptance
        schedule; unbiasedness of the resulting Horvitz–Thompson
        estimates is validated empirically in the test-suite.
        """
        if self._filled == 0:
            return np.empty(0)
        decay = np.exp(
            -(self._churn_total - self._churn_at[: self._filled])
        )
        return np.clip(
            self._accept_prob[: self._filled] * decay, 1e-12, 1.0
        )

    def __len__(self) -> int:
        return self._filled

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"seen={self._seen}, accepts={self._accepts})"
        )
