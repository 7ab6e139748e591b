"""Fleet-wide workload intelligence: mining the query log.

SciBORQ's premise is that "publicly accessible query logs provide a
basis to derive areas of interest" (paper §2.1), and CQMS argues the
query log of a many-user scientific database is itself the most
valuable shared asset.  This module turns the engine's cross-session
:class:`~repro.workload.log.QueryLog` from a reactive per-session feed
into a *predictive* model of the fleet's behaviour:

* :class:`RegionPopularityModel` — a β×β grid over a coordinate pair
  (ra, dec for the SkyServer workload) accumulating, per sky cell,
  how many queries landed there *and* how their executions went
  (tuples charged, rungs climbed, achieved error, degradations) from
  the settle-time :class:`~repro.workload.log.QueryOutcome` metadata.
  Popularity ages through the same machinery as the Figure-5
  histograms (:func:`repro.stats.histogram.age_counts`), so a region
  the fleet abandons really cools down.
* :class:`WorkloadMiner` — folds log entries into the model
  incrementally (each entry exactly once, in sequence order), which
  makes mining deterministic: the same seeded workload always yields
  the same model, bit for bit.
* :class:`LadderRecommendation` — the mined advice for one region:
  "sessions that explored this cone escalated to rung k / error ε",
  surfaced via ``Session.recommend``.

Everything here is pure data + arithmetic — no locks, no engine
references.  Thread-safety, the binding to an engine's log and
on-demand mining live in the service wrapper
(:mod:`repro.core.intelligence`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnstore.query import Query
from repro.stats.histogram import age_counts
from repro.util.validation import require, require_positive
from repro.workload.log import QueryLog, QueryLogEntry


def paired_coordinates(
    query: Query, x_attribute: str, y_attribute: str
) -> List[Tuple[float, float]]:
    """The (x, y) points a query's predicates request, paired.

    Values are paired positionally, exactly as
    :class:`~repro.workload.interest.CoupledInterest` pairs them — a
    cone search contributes its one (ra, dec) centre; a query touching
    only one of the two coordinates contributes nothing (a range scan
    on one axis says nothing about *where on the sky* interest lies).
    """
    requested = query.requested_values()
    xs = requested.get(x_attribute, [])
    ys = requested.get(y_attribute, [])
    return [(float(x), float(y)) for x, y in zip(xs, ys)]


@dataclass(frozen=True)
class HotRegion:
    """One predicted-hot cell of the popularity grid."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    count: int
    share: float

    @property
    def x_center(self) -> float:
        return 0.5 * (self.x_lo + self.x_hi)

    @property
    def y_center(self) -> float:
        return 0.5 * (self.y_lo + self.y_hi)

    def contains(self, x: float, y: float) -> bool:
        return self.x_lo <= x < self.x_hi and self.y_lo <= y < self.y_hi


@dataclass(frozen=True)
class LadderRecommendation:
    """Mined escalation advice for one region of the sky.

    ``suggested_skip`` is the number of initial ladder rungs past
    experience says this region's queries waste: sessions here
    typically settled at rung ``mean_rungs``, so starting
    ``suggested_skip`` rungs up saves the doomed small-rung scans.
    The suggestion is conservative (floor of the mean, minus one):
    it names only rungs the mined record says essentially never
    answer.  It is advice to the caller; the ladder does not act on it.
    """

    support: int
    mean_rungs: float
    expected_error: float
    expected_cost: float
    share: float
    suggested_skip: int

    def describe(self) -> str:
        return (
            f"{self.support} settled queries here: escalate to rung "
            f"{self.mean_rungs:.2f} on average (error "
            f"{self.expected_error:.3g}, cost {self.expected_cost:.4g}); "
            f"suggested initial-rung skip: {self.suggested_skip}"
        )


class RegionPopularityModel:
    """Per-cell popularity + escalation profile over a coordinate pair.

    Parameters
    ----------
    x_attribute / y_attribute:
        The coordinate pair mined from predicates (ra/dec for the
        SkyServer workload).
    x_range / y_range:
        The known domains (paper §4's "known beforehand").
    bins:
        β per axis; the grid has β² cells.
    """

    def __init__(
        self,
        x_attribute: str,
        y_attribute: str,
        x_range: Tuple[float, float],
        y_range: Tuple[float, float],
        bins: int = 16,
    ) -> None:
        require(x_range[1] > x_range[0], f"empty x domain {x_range}")
        require(y_range[1] > y_range[0], f"empty y domain {y_range}")
        require_positive(bins, "bins")
        self.x_attribute = x_attribute
        self.y_attribute = y_attribute
        self.x_min, self.x_max = map(float, x_range)
        self.y_min, self.y_max = map(float, y_range)
        self.bins = int(bins)
        self.x_width = (self.x_max - self.x_min) / self.bins
        self.y_width = (self.y_max - self.y_min) / self.bins
        shape = (self.bins, self.bins)
        #: queries observed per cell (ages like a Figure-5 histogram)
        self.counts = np.zeros(shape, dtype=np.int64)
        #: settled queries per cell (denominator of the profile means)
        self.settled = np.zeros(shape, dtype=np.int64)
        self.tuples_sum = np.zeros(shape, dtype=np.float64)
        self.rungs_sum = np.zeros(shape, dtype=np.float64)
        self.error_sum = np.zeros(shape, dtype=np.float64)
        #: per-table query counts
        self.table_counts: Dict[str, int] = {}
        self.total = 0

    # ------------------------------------------------------------------
    # observation side
    # ------------------------------------------------------------------
    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """The (ix, iy) cell a point falls into (clamped to edges)."""
        ix = min(max(int((x - self.x_min) // self.x_width), 0), self.bins - 1)
        iy = min(max(int((y - self.y_min) // self.y_width), 0), self.bins - 1)
        return ix, iy

    def observe_entry(self, entry: QueryLogEntry) -> None:
        """Fold one log entry: popularity always, profile if settled."""
        table = entry.query.table
        self.table_counts[table] = self.table_counts.get(table, 0) + 1
        points = paired_coordinates(
            entry.query, self.x_attribute, self.y_attribute
        )
        if not points:
            return
        outcome = entry.outcome
        for x, y in points:
            cell = self.cell_of(x, y)
            self.counts[cell] += 1
            self.total += 1
            if outcome is None:
                continue
            self.settled[cell] += 1
            self.tuples_sum[cell] += float(outcome.tuples_charged)
            self.rungs_sum[cell] += float(outcome.rungs_climbed)
            if math.isfinite(outcome.achieved_error):
                self.error_sum[cell] += float(outcome.achieved_error)

    def decay(self, factor: float) -> None:
        """Age the popularity *and* the escalation profile together.

        Counts go through the shared integer-aging helper; the profile
        sums scale by the same factor so per-cell means stay unbiased.
        """
        self.counts = age_counts(self.counts, factor)
        self.settled = age_counts(self.settled, factor)
        self.tuples_sum *= factor
        self.rungs_sum *= factor
        self.error_sum *= factor
        self.total = int(self.counts.sum())
        self.table_counts = {
            table: aged
            for table, count in self.table_counts.items()
            if (aged := int(math.floor(count * factor))) > 0
        }

    # ------------------------------------------------------------------
    # prediction side
    # ------------------------------------------------------------------
    def _region(self, ix: int, iy: int) -> HotRegion:
        return HotRegion(
            x_lo=self.x_min + ix * self.x_width,
            x_hi=self.x_min + (ix + 1) * self.x_width,
            y_lo=self.y_min + iy * self.y_width,
            y_hi=self.y_min + (iy + 1) * self.y_width,
            count=int(self.counts[ix, iy]),
            share=(
                float(self.counts[ix, iy]) / self.total if self.total else 0.0
            ),
        )

    def hot_cells(self, k: int) -> List[HotRegion]:
        """The ``k`` most popular non-empty cells, deterministically.

        Ties break on cell position, so equal-seed workloads always
        predict the same regions (the persistence round-trip and the
        miner-determinism tests pin this).
        """
        flat = self.counts.ravel()
        live = np.flatnonzero(flat > 0)
        if live.size == 0:
            return []
        order = sorted(live.tolist(), key=lambda i: (-int(flat[i]), i))
        return [
            self._region(i // self.bins, i % self.bins)
            for i in order[: max(0, int(k))]
        ]

    def popularity(self, x: float, y: float) -> float:
        """This point's cell share of all observed predicate points."""
        if self.total == 0:
            return 0.0
        return float(self.counts[self.cell_of(x, y)]) / self.total

    def recommendation_at(
        self, x: float, y: float, min_support: int = 3
    ) -> Optional[LadderRecommendation]:
        """Mined ladder advice for a point, or None below support."""
        cell = self.cell_of(x, y)
        support = int(self.settled[cell])
        if support < max(1, int(min_support)):
            return None
        mean_rungs = float(self.rungs_sum[cell]) / support
        return LadderRecommendation(
            support=support,
            mean_rungs=mean_rungs,
            expected_error=float(self.error_sum[cell]) / support,
            expected_cost=float(self.tuples_sum[cell]) / support,
            share=(
                float(self.counts[cell]) / self.total if self.total else 0.0
            ),
            suggested_skip=max(0, int(math.floor(mean_rungs)) - 1),
        )

    def recommendation_for(
        self, query: Query, min_support: int = 3
    ) -> Optional[LadderRecommendation]:
        """Advice for a query's first requested (x, y) point."""
        points = paired_coordinates(query, self.x_attribute, self.y_attribute)
        if not points:
            return None
        return self.recommendation_at(*points[0], min_support=min_support)

    # ------------------------------------------------------------------
    # persistence support (arrays + metadata, no file I/O here)
    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The model's numeric state, keyed for an ``.npz`` bundle."""
        return {
            "counts": self.counts,
            "settled": self.settled,
            "tuples_sum": self.tuples_sum,
            "rungs_sum": self.rungs_sum,
            "error_sum": self.error_sum,
        }

    def state_metadata(self) -> Dict[str, object]:
        """The model's configuration + non-array state (JSON-able)."""
        return {
            "x_attribute": self.x_attribute,
            "y_attribute": self.y_attribute,
            "x_range": [self.x_min, self.x_max],
            "y_range": [self.y_min, self.y_max],
            "bins": self.bins,
            "total": self.total,
            "table_counts": dict(self.table_counts),
        }

    @classmethod
    def from_state(
        cls, arrays: Dict[str, np.ndarray], metadata: Dict[str, object]
    ) -> "RegionPopularityModel":
        """Rebuild a model from :meth:`state_arrays`/:meth:`state_metadata`."""
        model = cls(
            str(metadata["x_attribute"]),
            str(metadata["y_attribute"]),
            tuple(metadata["x_range"]),  # type: ignore[arg-type]
            tuple(metadata["y_range"]),  # type: ignore[arg-type]
            bins=int(metadata["bins"]),  # type: ignore[call-overload]
        )
        shape = (model.bins, model.bins)
        for name in model.state_arrays():
            loaded = np.asarray(arrays[name])
            if loaded.shape != shape:
                raise ValueError(
                    f"model array {name!r} has shape {loaded.shape}, "
                    f"expected {shape}"
                )
        model.counts = np.asarray(arrays["counts"], dtype=np.int64)
        model.settled = np.asarray(arrays["settled"], dtype=np.int64)
        model.tuples_sum = np.asarray(arrays["tuples_sum"], dtype=np.float64)
        model.rungs_sum = np.asarray(arrays["rungs_sum"], dtype=np.float64)
        model.error_sum = np.asarray(arrays["error_sum"], dtype=np.float64)
        model.total = int(metadata["total"])  # type: ignore[call-overload]
        model.table_counts = {
            str(table): int(count)
            for table, count in dict(metadata["table_counts"]).items()  # type: ignore[call-overload]
        }
        return model

    def __repr__(self) -> str:
        return (
            f"RegionPopularityModel({self.x_attribute!r}×"
            f"{self.y_attribute!r}, bins={self.bins}, N={self.total}, "
            f"settled={int(self.settled.sum())})"
        )


class WorkloadMiner:
    """Folds query-log entries into a popularity model, exactly once.

    The miner walks the log in sequence order and remembers the last
    sequence it consumed, so repeated :meth:`mine` calls are
    incremental — O(new entries), never a re-scan.  Entries that were
    mined *unsettled* and settle later are not revisited (the log is a
    stream, not a table); the settle-before-mine ordering the engine
    guarantees for blocking executions makes that loss marginal under
    batched mining.

    Mining is deterministic: no randomness, order fixed by sequence
    numbers, aging applied on a fixed query-count cadence.
    """

    def __init__(
        self,
        model: RegionPopularityModel,
        decay_factor: float = 0.9,
        decay_every: int = 256,
    ) -> None:
        require(0.0 < decay_factor <= 1.0, "decay_factor must be in (0, 1]")
        require_positive(decay_every, "decay_every")
        self.model = model
        self.decay_factor = float(decay_factor)
        self.decay_every = int(decay_every)
        #: next log sequence to consume (first un-mined entry)
        self.next_sequence = 0
        #: entries folded since the last aging pass
        self._since_decay = 0

    def mine(self, log: QueryLog) -> int:
        """Fold all not-yet-mined entries; returns how many were."""
        entries = log.since(self.next_sequence)
        return self.mine_entries(entries)

    def mine_entries(self, entries: Sequence[QueryLogEntry]) -> int:
        """Fold an explicit batch (already-mined sequences skipped)."""
        mined = 0
        for entry in sorted(entries, key=lambda e: e.sequence):
            if entry.sequence < self.next_sequence:
                continue
            self.model.observe_entry(entry)
            self.next_sequence = entry.sequence + 1
            mined += 1
            self._since_decay += 1
            if self._since_decay >= self.decay_every:
                self.model.decay(self.decay_factor)
                self._since_decay = 0
        return mined

    def __repr__(self) -> str:
        return (
            f"WorkloadMiner(next_sequence={self.next_sequence}, "
            f"model={self.model!r})"
        )
