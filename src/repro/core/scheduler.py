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
Every rung scan of every in-flight query funnels through
:meth:`SharedScanScheduler.scan` (via
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

Within a batch, requests with *equal* predicates (by fingerprint)
collapse into one evaluation — the redundancy win — and distinct
predicates ride the same pass, fanned morsel-by-morsel over the shared
:class:`~repro.util.concurrency.MorselPool`.

Convoys alone would under-share: the GIL staggers concurrent ladder
climbs, so two queries scanning the same rung often miss each other by
a few milliseconds.  Each lane therefore keeps a **scan memo**: once a
convoy (or lone leader) has evaluated a predicate over a table object,
later enrolled scans of the *same object at the same version* reuse
the result — each block of a table generation really is read once per
distinct predicate, no matter how arrivals interleave.  Keying on the
live object (not name/version, the recycler's key) is what makes this
safe for the ephemeral delta/complement tables that recycling must
skip: a new sampler generation is a new object, so stale reuse is
structurally impossible, and ingest bumps the version, which the memo
checks.  Tiering changes neither, so each memo entry also remembers
whether it was evaluated over quantised blocks and is refused by a
scan whose predicate columns are exact again — an exact answer never
reuses a lossy evaluation, while bounded scans over still-warm blocks
keep their hits.  Contexts are charged their full solo cost on memo
hits too.

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
from repro.columnstore.recycler import reads_lossy_values
from repro.columnstore.table import Table
from repro.util.clock import ExecutionContext
from repro.util.concurrency import Combiner, MorselPool, shared_scan_pool

#: Distinct predicate results remembered per table generation.
_MEMO_CAPACITY = 128

#: Index-vector bytes one lane's memo may pin (the Recycler keeps the
#: same discipline for its cache: results are bounded by bytes, not
#: entry counts — a single broad predicate over a large base table can
#: leave a multi-MB index vector behind).
_MEMO_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class SchedulerStats:
    """Cumulative shared-scan bookkeeping (monotone counters).

    ``scans`` counts every request enrolled; ``batches`` counts shared
    passes that actually evaluated something, and ``convoy_scans`` the
    requests those passes carried, so ``convoy_scans / batches`` is
    the average convoy size (memo-only serves inflate neither).
    ``deduped_scans`` counts requests served by another query's
    predicate evaluation — inside one convoy (equal fingerprints) or
    via the lane's scan memo (same table generation, any interleaving)
    — and ``tuples_saved`` the scan cost those requests were charged
    without anything being re-read for them.
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

    __slots__ = ("predicate", "fingerprint", "lossy", "key", "shared")

    def __init__(self, table: Table, predicate: Expression) -> None:
        self.predicate = predicate
        self.fingerprint = predicate.fingerprint()
        #: Whether this scan reads quantised values.  Taken at
        #: enrolment, *before* any evaluation: blocks are only ever
        #: promoted while readers run, so an entry remembered under
        #: this flag is never lossier than the flag says.
        self.lossy = reads_lossy_values(table, predicate)
        #: Convoy group: a request whose columns are exact never rides
        #: a twin's lossy memo hit.
        self.key = (self.fingerprint, self.lossy)
        #: Set by the leader: True when another request's evaluation
        #: served this one (equal fingerprint, same convoy).
        self.shared = False


class _TableLane:
    """Per-table-object scheduling state: convoy queue + scan memo.

    The memo maps predicate fingerprints to ``(version, indices,
    stats, lossy)`` of an already-executed scan of *this* table object;
    the version guard invalidates on ingest, and a ``lossy`` entry
    (evaluated over quantised blocks) only serves requests that are
    lossy themselves.  Bounded FIFO by entry count
    *and* by pinned index-vector bytes — a table generation sees a
    modest set of distinct predicates, but one broad predicate can
    leave a large vector behind.
    """

    __slots__ = ("ref", "combiner", "memo", "memo_lock", "memo_bytes")

    def __init__(self, table: Table, window: float) -> None:
        self.ref = weakref.ref(table)
        self.combiner: Combiner = Combiner(window)
        self.memo: Dict[str, Tuple[int, np.ndarray, OperatorStats, bool]] = {}
        self.memo_lock = threading.Lock()
        self.memo_bytes = 0

    def lookup(
        self, request: _Request, version: int
    ) -> Optional[Tuple[np.ndarray, OperatorStats]]:
        with self.memo_lock:
            hit = self.memo.get(request.fingerprint)
            if hit is None or hit[0] != version or (hit[3] and not request.lossy):
                return None
            return hit[1], hit[2]

    def remember(
        self,
        request: _Request,
        version: int,
        indices: np.ndarray,
        stats: OperatorStats,
    ) -> None:
        fingerprint = request.fingerprint
        if indices.nbytes > _MEMO_BYTES:
            return  # never pin a vector bigger than the whole budget
        with self.memo_lock:
            previous = self.memo.pop(fingerprint, None)
            if previous is not None:
                self.memo_bytes -= previous[1].nbytes
            while self.memo and (
                len(self.memo) >= _MEMO_CAPACITY
                or self.memo_bytes + indices.nbytes > _MEMO_BYTES
            ):
                evicted = self.memo.pop(next(iter(self.memo)))[1]
                self.memo_bytes -= evicted.nbytes
            self.memo[fingerprint] = (version, indices, stats, request.lossy)
            self.memo_bytes += indices.nbytes


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
    pool:
        Morsel pool for the shared pass; defaults to the process-wide
        scan pool.

    Thread-safe; one instance serves a whole
    :class:`~repro.core.server.SciBorqServer`.
    """

    def __init__(
        self, window: float = 0.0, pool: Optional[MorselPool] = None
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        self.window = window
        self._pool = pool if pool is not None else shared_scan_pool()
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
    ) -> Tuple[np.ndarray, OperatorStats]:
        """Run one selection through the scheduler, charging ``context``.

        Served from the lane's scan memo when this table generation
        has already evaluated an equal predicate; otherwise blocks
        until a convoy containing this request has executed
        (immediately, when no convoy is forming).  Returns ``(indices,
        stats)`` byte-identical to a solo
        :func:`~repro.columnstore.operators.select`, with the solo cost
        charged to ``context``; re-raises exactly what the solo scan
        would have raised, without failing the rest of the convoy.
        """
        lane = self._lane_for(table)
        request = _Request(table, predicate)
        hit = lane.lookup(request, table.version)
        if hit is not None:
            indices, stats = hit
            context.charge(stats.cost)
            context.note_shared(stats.cost)
            with self._stats_lock:
                self._scans += 1
                self._deduped += 1
                self._tuples_saved += stats.cost
            return indices, stats
        try:
            outcome = lane.combiner.run(
                request, lambda batch: self._execute(table, lane, batch)
            )
        except Exception:  # noqa: BLE001 - whole-pass failure
            # a failure of the pass itself (not of one predicate —
            # those come back as per-group outcomes) is one exception
            # object shared by the whole convoy; fall back to a solo
            # serial scan so every consumer gets its own result or its
            # own exception instance
            indices, stats = operators.select(table, predicate, pool=None)
            context.charge(stats.cost)
            return indices, stats
        if isinstance(outcome, Exception):
            if not request.shared:
                raise outcome
            # deduped consumers re-run solo instead of re-raising the
            # group's shared instance: exception objects must stay
            # per-query (callers annotate them, and raising one object
            # from several threads garbles tracebacks).  A failed scan
            # charged nothing, so the re-run is charge-identical.
            indices, stats = operators.select(
                table, predicate, pool=self._pool
            )
            context.charge(stats.cost)
            return indices, stats
        indices, stats = outcome
        context.charge(stats.cost)
        if request.shared:
            context.note_shared(stats.cost)
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
                # generation — and the sweep keeps dead memos from
                # pinning index vectors until some arbitrary later
                # threshold)
                dead = [k for k, v in self._lanes.items() if v.ref() is None]
                for k in dead:
                    del self._lanes[k]
                lane = _TableLane(table, self.window)
                self._lanes[key] = lane
            return lane

    def _execute(
        self, table: Table, lane: _TableLane, batch: List[_Request]
    ) -> Sequence[Tuple[np.ndarray, OperatorStats] | Exception]:
        """The leader's shared pass: dedup, scan once, distribute.

        Equal-fingerprint requests share one evaluation; distinct
        predicates ride the same pass via
        :func:`~repro.columnstore.operators.select_shared`.  The memo
        is consulted again here, group by group — a request that
        missed it at enrolment may find its twin's result by the time
        it leads (lane passes are serialised, so a pass that finished
        while this request queued has already published) — and each
        freshly evaluated group is remembered for the rest of the
        table generation.  Returns one outcome per request, in batch
        order.
        """
        version = table.version
        outcomes: Dict[
            Tuple[str, bool], Tuple[np.ndarray, OperatorStats] | Exception
        ] = {}
        leaders: Dict[Tuple[str, bool], _Request] = {}
        for request in batch:
            key = request.key
            if key in leaders or key in outcomes:
                request.shared = True
                continue
            hit = lane.lookup(request, version)
            if hit is not None:
                outcomes[key] = hit
                request.shared = True
                continue
            leaders[key] = request
        unique = [leader.predicate for leader in leaders.values()]
        if unique:
            per_group = operators.select_shared(table, unique, pool=self._pool)
            for (key, leader), outcome in zip(leaders.items(), per_group):
                outcomes[key] = outcome
                if not isinstance(outcome, Exception):
                    lane.remember(leader, version, outcome[0], outcome[1])
        with self._stats_lock:
            self._scans += len(batch)
            if unique:
                self._batches += 1
                self._convoy_scans += len(batch)
        return [outcomes[request.key] for request in batch]

    # ------------------------------------------------------------------
    def lane_activity(self) -> Dict[str, int]:
        """Live lanes per *base* table name — the popularity signal.

        The admission controller (:mod:`repro.core.admission`) orders
        its intake queue with this: a queued query whose base table
        has live lanes can ride an in-flight convoy's pass or its scan
        memo, so dispatching it now buys throughput for free.  Lane
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
