"""The shared-scan batch scheduler: concurrent queries share one scan.

SciBORQ's workload premise is that exploratory science traffic is
bursty and *redundant* — many users probing the same table under their
own runtime/quality bounds (paper §2.1).  LifeRaft makes the
corresponding systems observation: batching data-driven queries around
shared sequential scans is the dominant win for scientific-database
serving.  This module is that idea grafted onto our escalation
ladders: the unit of sharing is the **rung scan**.

How it works
------------
Every scan of every in-flight query that the executor's cache does not
serve funnels through :meth:`SharedScanScheduler.scan` (via
:meth:`~repro.columnstore.executor.Executor.select_indices`).  Scans
are grouped by the *identity* of the table object being scanned —
materialised impressions, rung deltas, and complements are cached on
their :class:`~repro.core.impression.Impression` per sampler
generation, so two queries climbing the same rung at the same time
hold the *same* table object.  Per table, a
:class:`~repro.util.concurrency.Combiner` forms convoys: the first
scan to find the queue idle leads, grabs every pending request, and
executes the whole batch in one shared pass
(:func:`~repro.columnstore.operators.select_shared`); scans arriving
while a leader works form the next convoy.  A lone scan executes
immediately — batching emerges under load, nobody stalls without
co-runners (an optional ``window`` lets a would-be-lone leader wait
for stragglers).

Within a batch, requests with *equal* predicates (by fingerprint) that
read equal values collapse into one evaluation — the redundancy win —
and distinct predicates ride the same pass, evaluated one after another
in the leader's thread: the scheduler starts no thread, and its
followers wait while the leader's pass runs.  Each request is evaluated
over its own reads: an exact contract's *raw* request reads warm
blocks' raw bytes, a bounded one their codes, so the two never share an
evaluation, whatever pass they ride.

Convoys share a scan among queries *in flight*.  Reuse *across*
queries — a later scan of the same table object, version and predicate
— is the executor's selection cache
(:class:`~repro.columnstore.recycler.Recycler`), consulted before a
scan ever reaches the scheduler.  The two stay separate, as in LifeRaft,
and meet at one point: a pass stores what it evaluated in the cache
before the next pass on its table starts, and a leader re-checks the
cache for the requests it carries.  A scan that queued behind a twin's
pass — a few milliseconds too late to join it — is then served by that
pass rather than reading the table again.

Accounting stays honest
-----------------------
Each enrolled query is charged exactly the tuples its *solo* scan
would have read: zone-map pruning is computed per query, the returned
:class:`~repro.columnstore.operators.OperatorStats` are byte-identical
to a solo :func:`~repro.columnstore.operators.select`, and the
query's own :class:`~repro.util.clock.ExecutionContext` is charged
that cost.  Contracts, escalation decisions, and ``ProgressUpdate``
streams are therefore indistinguishable from solo execution — the win
is wall-clock and server throughput, never accounting tricks.  A bad
predicate fails only its own query, never the convoy.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnstore import operators
from repro.columnstore.expressions import Expression
from repro.columnstore.operators import OperatorStats
from repro.columnstore.recycler import Recycler, lossy_reads
from repro.columnstore.table import Table
from repro.util.clock import ExecutionContext
from repro.util.concurrency import Combiner


@dataclass(frozen=True)
class SchedulerStats:
    """Cumulative shared-scan bookkeeping (monotone counters).

    ``scans`` counts every request enrolled; ``batches`` counts shared
    passes that actually evaluated something, and ``convoy_scans`` the
    requests those passes carried, so ``convoy_scans / batches`` is
    the average convoy size.  ``deduped_scans`` counts requests served
    by an equal predicate's evaluation inside the same convoy, and
    ``tuples_saved`` the scan cost those requests were charged without
    anything being re-read for them.  Scans the selection cache serves
    count as the cache's hits, not here.
    """

    scans: int
    batches: int
    convoy_scans: int
    deduped_scans: int
    tuples_saved: float

    @property
    def mean_batch_size(self) -> float:
        """Average number of scans per executed shared pass."""
        return self.convoy_scans / self.batches if self.batches else 0.0

    def describe(self) -> str:
        """One-line summary for server dashboards and benchmarks."""
        return (
            f"shared scans: {self.scans} scan(s) in {self.batches} "
            f"batch(es) (mean convoy {self.mean_batch_size:.2f}), "
            f"{self.deduped_scans} deduped, "
            f"{self.tuples_saved:g} tuples saved"
        )


class _Request:
    """One query's enrolment in a convoy: predicate + result slot."""

    __slots__ = ("predicate", "raw", "lossy", "key", "served")

    def __init__(self, table: Table, predicate: Expression, raw: bool) -> None:
        self.predicate = predicate
        #: Whether the scan reads warm blocks' raw bytes (an exact
        #: contract's): ``operators.select(..., raw=True)``.
        self.raw = raw
        #: The cache's lossy tag, taken at enrolment — before any
        #: evaluation, as the cache requires; ``()`` for a raw scan.
        self.lossy = () if raw else lossy_reads(table, predicate)
        #: Convoy group: a request whose columns are exact never rides
        #: a twin's evaluation over quantised values, and a raw request
        #: never a dequantised one (nor the other way round).
        self.key = (predicate.fingerprint(), self.lossy, raw)
        #: Set by the leader: ``"convoy"`` when an equal request's
        #: evaluation in the same pass served this one, ``"cache"``
        #: when the selection cache did.
        self.served: Optional[str] = None


class _TableLane:
    """Per-table-object scheduling state: the convoy queue."""

    __slots__ = ("ref", "combiner")

    def __init__(self, table: Table, window: float) -> None:
        self.ref = weakref.ref(table)
        self.combiner: Combiner = Combiner(window)


class SharedScanScheduler:
    """Batches concurrent rung scans of the same table into one pass.

    Parameters
    ----------
    window:
        Batching window in seconds: how long a scan that would
        otherwise run alone waits for co-runners before leading a
        convoy of one.  The default ``0.0`` never stalls — convoys
        still form whenever a scan arrives while another is running
        (queue pressure), which is exactly the concurrent-burst case
        the scheduler exists for.

    Thread-safe; one instance serves a whole
    :class:`~repro.core.server.SciBorqServer`.
    """

    def __init__(self, window: float = 0.0) -> None:
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        self.window = window
        self._lanes: Dict[int, _TableLane] = {}
        self._lanes_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._scans = 0
        self._batches = 0
        self._convoy_scans = 0
        self._deduped = 0
        self._tuples_saved = 0.0

    # ------------------------------------------------------------------
    def scan(
        self,
        table: Table,
        predicate: Expression,
        context: ExecutionContext,
        recycler: Optional[Recycler] = None,
        raw: bool = False,
    ) -> Tuple[np.ndarray, OperatorStats]:
        """Run one selection through the scheduler, charging ``context``.

        Blocks until a convoy containing this request has executed
        (immediately, when no convoy is forming).  Returns ``(indices,
        stats)`` byte-identical to a solo
        :func:`~repro.columnstore.operators.select`, with the solo cost
        charged to ``context``; re-raises exactly what the solo scan
        would have raised, without failing the rest of the convoy.
        ``recycler`` is the executor's selection cache, where this
        request already missed: the leader re-checks it and stores
        what the pass evaluates.  ``raw`` is the solo scan's
        (:func:`~repro.columnstore.operators.select`).
        """
        lane = self._lane_for(table)
        request = _Request(table, predicate, raw)
        try:
            outcome = lane.combiner.run(
                request, lambda batch: self._execute(table, batch, recycler)
            )
        except Exception:  # noqa: BLE001 - whole-pass failure
            # a failure of the pass itself (not of one predicate —
            # those come back as per-group outcomes) is one exception
            # object shared by the whole convoy; fall back to a solo
            # scan so every consumer gets its own result or its own
            # exception instance
            indices, stats = operators.select(table, predicate, raw=raw)
            context.charge(stats.cost)
            return indices, stats
        if isinstance(outcome, Exception):
            if request.served is None:
                raise outcome
            # deduped consumers re-run solo instead of re-raising the
            # group's shared instance: exception objects must stay
            # per-query (callers annotate them, and raising one object
            # from several threads garbles tracebacks).  A failed scan
            # charged nothing, so the re-run is charge-identical.
            indices, stats = operators.select(table, predicate, raw=raw)
            context.charge(stats.cost)
            return indices, stats
        indices, stats = outcome
        context.charge(stats.cost)
        if request.served is not None:
            context.note_shared(stats.cost)
        if request.served == "convoy":
            with self._stats_lock:
                self._deduped += 1
                self._tuples_saved += stats.cost
        return indices, stats

    # ------------------------------------------------------------------
    def _lane_for(self, table: Table) -> _TableLane:
        """The combiner lane for this table *object* (identity-keyed).

        Identity is the one safe key: ephemeral rung deltas and
        complements reuse names and versions across sampler
        generations, but two requests can only ever share a pass when
        they hold the very same object — which the impression-level
        materialisation caches guarantee for concurrent climbers of
        the same rung.  A weak reference guards against ``id()`` reuse
        after garbage collection.
        """
        key = id(table)
        with self._lanes_lock:
            lane = self._lanes.get(key)
            if lane is None or lane.ref() is not table:
                # lane creation marks a table-generation boundary: the
                # previous generation's ephemeral tables are dying, so
                # sweep dead lanes now (creation is rare — once per
                # generation)
                dead = [k for k, v in self._lanes.items() if v.ref() is None]
                for k in dead:
                    del self._lanes[k]
                lane = _TableLane(table, self.window)
                self._lanes[key] = lane
            return lane

    def _execute(
        self, table: Table, batch: List[_Request], recycler: Optional[Recycler]
    ) -> Sequence[Tuple[np.ndarray, OperatorStats] | Exception]:
        """The leader's shared pass: re-check, dedup, scan once, distribute.

        A request the ``recycler`` can serve now — a pass that finished
        while it queued stored its selection — is served from there.
        Equal-fingerprint requests share one evaluation; distinct
        predicates ride the same pass via
        :func:`~repro.columnstore.operators.select_shared`, and each
        evaluated selection goes into the ``recycler`` before the next
        pass on this table can start — exact evaluations last, so a twin
        over quantised values in the same pass never displaces the entry
        an exact scan's caller reads back (the engine feeds its ICICLES
        sample from it).  Returns one outcome per request, in batch order.
        """
        outcomes: Dict[int, Tuple[np.ndarray, OperatorStats]] = {}
        leaders: Dict[tuple, _Request] = {}
        for position, request in enumerate(batch):
            if request.key in leaders:
                request.served = "convoy"
                continue
            hit = (
                None
                if recycler is None
                else recycler.recheck(table, request.predicate, request.lossy)
            )
            if hit is None:
                leaders[request.key] = request
            else:
                request.served = "cache"
                outcomes[position] = hit
        per_group: Dict[tuple, Tuple[np.ndarray, OperatorStats] | Exception] = {}
        if leaders:
            per_group = dict(
                zip(
                    leaders,
                    operators.select_shared(
                        table,
                        [leader.predicate for leader in leaders.values()],
                        raw=[leader.raw for leader in leaders.values()],
                    ),
                )
            )
            if recycler is not None:
                for key in sorted(per_group, key=lambda key: not key[1]):
                    outcome = per_group[key]
                    if not isinstance(outcome, Exception):
                        leader = leaders[key]
                        recycler.store(
                            table, leader.predicate, outcome[0], outcome[1], leader.lossy
                        )
        with self._stats_lock:
            self._scans += len(batch)
            if leaders:
                self._batches += 1
                self._convoy_scans += len(batch)
        return [
            outcomes[position] if position in outcomes else per_group[request.key]
            for position, request in enumerate(batch)
        ]

    # ------------------------------------------------------------------
    def lane_activity(self) -> Dict[str, int]:
        """Live lanes per *base* table name — the popularity signal.

        The admission controller (:mod:`repro.core.admission`) orders
        its intake queue with this: a queued query whose base table
        has live lanes can ride an in-flight convoy's pass, so
        dispatching it now buys throughput for free.  Lane
        keys are table objects (impressions, deltas, complements);
        each maps back to its base table by stripping the derivation
        suffix (``base§…``, ``base∖…``, ``base#…``), so the counts
        line up with ``Query.table``.  Dead lanes are skipped, not
        swept — sweeping stays with :meth:`_lane_for`.
        """
        activity: Dict[str, int] = {}
        with self._lanes_lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            table = lane.ref()
            if table is None:
                continue
            base = table.name
            for separator in ("§", "∖", "#"):
                base = base.split(separator, 1)[0]
            activity[base] = activity.get(base, 0) + 1
        return activity

    @property
    def stats(self) -> SchedulerStats:
        """A consistent snapshot of the cumulative counters."""
        with self._stats_lock:
            return SchedulerStats(
                scans=self._scans,
                batches=self._batches,
                convoy_scans=self._convoy_scans,
                deduped_scans=self._deduped,
                tuples_saved=self._tuples_saved,
            )

    def __repr__(self) -> str:
        snapshot = self.stats
        return (
            f"SharedScanScheduler(window={self.window:g}, "
            f"scans={snapshot.scans}, batches={snapshot.batches}, "
            f"deduped={snapshot.deduped_scans})"
        )
