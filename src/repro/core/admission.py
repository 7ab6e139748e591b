"""Admission control and overload management for the serving layer.

SciBORQ's pitch is *bounds* — on runtime and on quality — but a bound
is only worth anything if the server also bounds what it accepts.
Before this module the server fed every submission to an unbounded
thread-pool queue: under heavy traffic nothing limited queueing delay,
so tail latency exploded while every individual query still "met its
budget" (budgets bill execution, not the queue).  The
:class:`AdmissionController` closes that gap with an explicit ladder,
in order of increasing pressure:

1. **Admit** — an in-flight slot is free (``max_inflight``): the query
   runs unchanged, byte-identical to an unloaded run.
2. **Queue, aged** — all slots are busy but the bounded intake queue
   (``queue_depth``) has room.  Dispatch order is *popularity-first
   with aging* (LifeRaft's throughput-vs-starvation tradeoff): queries
   on tables with live shared-scan lanes or queued siblings ride
   first — they convoy on one pass, buying throughput — but a queued
   query's priority grows linearly with its wait, so a starved query
   monotonically gains ground and never waits forever.
3. **Degrade** — occupancy has crossed ``degrade_threshold``: the
   query is still answered, under a *coarsened* contract (error bound
   widened / time budget tightened by ``degrade_factor``).  The
   outcome is marked ``degraded=True`` with its honest achieved
   error — graceful degradation is an answer, never an error.
4. **Shed** — the queue is full (or a per-session quota exceeded):
   the query is rejected *structurally*, as a :class:`RejectedQuery`
   carrying the reason and retry-after advice, never by silent
   queueing or an opaque timeout.

The controller is transport-agnostic: pool-driven submissions
(``kind="pool"``) enqueue a ticket that a worker later claims via
:meth:`take` (workers always claim the *globally best* ticket, which
is how priority ordering happens on a plain FIFO thread pool), while
blocking callers (``kind="blocking"``) wait inline via :meth:`wait`
under the same queue, quotas, and aging.

The popularity signal is wired to the
:class:`~repro.core.scheduler.SharedScanScheduler`: the scheduler
exposes its live lanes (:meth:`~repro.core.scheduler.
SharedScanScheduler.lane_activity`), and queries targeting a table
with active lanes are boosted — dispatching them while the convoy is
hot turns the queue itself into a batching instrument.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.contracts import Contract
from repro.errors import OverloadedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.columnstore.query import Query
    from repro.core.scheduler import SharedScanScheduler
    from repro.core.session import Session

#: Default retry-after advice (seconds) before any run-time history
#: exists to base an estimate on.
_RETRY_AFTER_FLOOR = 0.05


@dataclass(frozen=True)
class RejectedQuery:
    """A structured shed: why, and when it is worth trying again.

    ``reason`` is one of ``"queue_full"``, ``"session_quota"``, or
    ``"shutdown"``.  ``retry_after`` estimates (in seconds) when a
    resubmission is likely to be admitted: queue length ahead times
    the observed mean run time, divided by the in-flight width.
    """

    session_name: str
    session_id: int
    query: "Query"
    reason: str
    retry_after: float
    queued: int
    inflight: int
    #: The contract the shed query asked for, when the shed happened
    #: at admission time (``None`` for shutdown evictions, which are
    #: built without one).  The contract monitor reads the tier off it
    #: so a shed gold query counts against the gold denominator.
    contract: Optional[Contract] = None

    def describe(self) -> str:
        """One-line form used by the raising path and logs."""
        return (
            f"query shed ({self.reason}): session {self.session_name!r}, "
            f"table {self.query.table!r}, {self.queued} queued / "
            f"{self.inflight} in flight; retry after "
            f"{self.retry_after:.3g}s"
        )


@dataclass(frozen=True)
class AdmissionStats:
    """A consistent snapshot of the controller's counters.

    The cumulative counters are monotone; ``inflight`` and ``queued``
    are the point-in-time occupancy at snapshot time.  Queue-time
    figures cover *granted* tickets only (a shed query never queued).
    """

    submitted: int
    admitted: int
    degraded: int
    shed_queue_full: int
    shed_session_quota: int
    shed_shutdown: int
    completed: int
    failed: int
    inflight: int
    queued: int
    max_queue_seconds: float
    total_queue_seconds: float

    @property
    def shed(self) -> int:
        """Total queries rejected, across all reasons."""
        return (
            self.shed_queue_full
            + self.shed_session_quota
            + self.shed_shutdown
        )

    @property
    def mean_queue_seconds(self) -> float:
        """Average admission wait across granted tickets."""
        if not self.admitted:
            return 0.0
        return self.total_queue_seconds / self.admitted

    def describe(self) -> str:
        """One-line summary for server dashboards and benchmarks."""
        return (
            f"admission: {self.submitted} submitted, {self.admitted} "
            f"admitted ({self.degraded} degraded), {self.shed} shed "
            f"(full {self.shed_queue_full} / quota "
            f"{self.shed_session_quota}), {self.failed} failed, "
            f"queue wait mean {self.mean_queue_seconds:.4g}s "
            f"max {self.max_queue_seconds:.4g}s, "
            f"now {self.inflight} in flight + {self.queued} queued"
        )


class AdmissionTicket:
    """One query's passage through admission: queue → slot → release.

    Created by the controller, never directly.  ``degraded`` records
    whether pressure at submission coarsened the contract; the server
    copies it onto the outcome.  ``queue_seconds`` is the intake wait
    (enqueue to grant) — the quantity the controller exists to bound.
    ``payload`` is the owner's parking spot (the server stores the
    ``(handle, session, query)`` triple there so a worker claiming the
    ticket — or shutdown evicting it — can find what to drive or fail).
    """

    __slots__ = (
        "session",
        "query",
        "kind",
        "weight",
        "degraded",
        "enqueued_at",
        "granted_at",
        "released",
        "payload",
    )

    def __init__(
        self,
        session: "Session",
        query: "Query",
        kind: str,
        weight: float,
        enqueued_at: float,
    ) -> None:
        self.session = session
        self.query = query
        self.kind = kind
        self.weight = weight
        self.degraded = False
        self.enqueued_at = enqueued_at
        self.granted_at: Optional[float] = None
        self.released = False
        self.payload: Optional[tuple] = None

    @property
    def queue_seconds(self) -> Optional[float]:
        """Seconds spent in the intake queue (None until granted)."""
        if self.granted_at is None:
            return None
        return self.granted_at - self.enqueued_at


class AdmissionController:
    """Bounded intake with starvation-aware dispatch and degradation.

    Parameters
    ----------
    max_inflight:
        Queries allowed to execute simultaneously.  Defaults to the
        machine's core count (capped at 8), matching the server's
        pool sizing.
    queue_depth:
        Queries allowed to *wait* beyond the in-flight slots; the
        bound that turns queueing delay into an explicit shed.  The
        worst queueing delay is therefore ``queue_depth`` times the
        mean run time divided by ``max_inflight`` — a configuration
        choice, not an accident of load.
    per_session_limit:
        Maximum queries one session may have admitted-or-queued at
        once (None: no quota).  A single aggressive tenant saturating
        the queue is the classic fairness failure; the quota sheds
        its overflow with ``reason="session_quota"`` while other
        tenants keep being admitted.
    degrade_threshold:
        Occupancy fraction — ``(inflight + queued) / (max_inflight +
        queue_depth)`` — at or above which admitted queries run under
        a coarsened contract (None: never degrade).  Degradation is
        rung 3 of the ladder: cheaper answers under pressure so the
        queue drains faster, marked honestly, *before* anything is
        shed.
    degrade_factor:
        How much coarser: error bounds are multiplied by it, time
        budgets divided by it.  Exact and unconstrained contracts are
        never degraded (exactness is semantics, and there is nothing
        to coarsen).
    age_rate:
        Priority gained per second of queue wait.  Effective priority
        is ``weight * (1 + popularity) + age_rate * waited`` —
        popularity buys convoys throughput, but the age term is
        unbounded and strictly monotone, so every queued query
        eventually outranks any stream of fresh arrivals: nothing
        starves.
    clock:
        Monotonic-seconds source (injectable for deterministic
        tests).
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        queue_depth: int = 64,
        per_session_limit: Optional[int] = None,
        degrade_threshold: Optional[float] = 0.75,
        degrade_factor: float = 4.0,
        age_rate: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_inflight is None:
            max_inflight = max(1, min(8, os.cpu_count() or 1))
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if queue_depth < 0:
            raise ValueError(
                f"queue_depth must be non-negative, got {queue_depth}"
            )
        if per_session_limit is not None and per_session_limit < 1:
            raise ValueError(
                f"per_session_limit must be >= 1, got {per_session_limit}"
            )
        if degrade_threshold is not None and not 0.0 < degrade_threshold <= 1.0:
            raise ValueError(
                f"degrade_threshold must be in (0, 1], got {degrade_threshold}"
            )
        if degrade_factor <= 1.0:
            raise ValueError(
                f"degrade_factor must be > 1, got {degrade_factor}"
            )
        if age_rate < 0:
            raise ValueError(f"age_rate must be non-negative, got {age_rate}")
        self.max_inflight = int(max_inflight)
        self.queue_depth = int(queue_depth)
        self.per_session_limit = per_session_limit
        self.degrade_threshold = degrade_threshold
        self.degrade_factor = degrade_factor
        self.age_rate = age_rate
        self._clock = clock
        self._scheduler: Optional["SharedScanScheduler"] = None
        self._cond = threading.Condition()
        self._waiting: List[AdmissionTicket] = []
        self._inflight = 0
        #: admitted-or-queued tickets per session id (quota accounting)
        self._per_session: Dict[int, int] = {}
        #: admitted-or-queued tickets per target table (popularity)
        self._per_table: Dict[str, int] = {}
        self._closed = False
        # monotone counters (all guarded by _cond's lock)
        self._submitted = 0
        self._admitted = 0
        self._degraded = 0
        self._shed_queue_full = 0
        self._shed_session_quota = 0
        self._shed_shutdown = 0
        self._completed = 0
        self._failed = 0
        self._max_queue_seconds = 0.0
        self._total_queue_seconds = 0.0
        # EWMA of observed run seconds, feeding retry-after advice
        self._mean_run_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_scheduler(self, scheduler: Optional["SharedScanScheduler"]) -> None:
        """Use ``scheduler``'s live lane activity as the popularity signal.

        A queued query whose table currently has shared-scan lanes (a
        convoy in flight, or one that just ran) is boosted: admitting
        it *now* lets it ride the convoy's pass, or find recent scans'
        selections still in the executor's cache, which is throughput
        the queue would otherwise waste.  The
        server binds its own scheduler automatically.
        """
        self._scheduler = scheduler

    # ------------------------------------------------------------------
    # the intake ladder
    # ------------------------------------------------------------------
    def admit(
        self,
        session: "Session",
        query: "Query",
        contract: Contract,
        kind: str = "pool",
    ) -> Tuple[AdmissionTicket, Contract]:
        """Rung 1–4 in one call: queue the query or shed it.

        Returns ``(ticket, effective_contract)`` — the contract is the
        caller's own, or a coarsened variant when pressure has crossed
        ``degrade_threshold`` (``ticket.degraded`` records which).
        Raises :class:`~repro.errors.OverloadedError` on shed; batch
        callers catch it and surface ``exc.rejection`` in the slot.
        """
        if kind not in ("pool", "blocking"):
            raise ValueError(f"unknown ticket kind {kind!r}")
        with self._cond:
            self._submitted += 1
            reason = self._shed_reason(session)
            if reason is not None:
                rejection = self._reject(session, query, reason, contract)
                raise OverloadedError(rejection)
            ticket = AdmissionTicket(
                session,
                query,
                kind,
                weight=getattr(session, "weight", 1.0),
                enqueued_at=self._clock(),
            )
            self._waiting.append(ticket)
            self._per_session[session.session_id] = (
                self._per_session.get(session.session_id, 0) + 1
            )
            self._per_table[query.table] = (
                self._per_table.get(query.table, 0) + 1
            )
            effective = contract
            if self._pressure() >= (self.degrade_threshold or float("inf")):
                coarser = self._coarsen(contract)
                if coarser is not None:
                    effective = coarser
                    ticket.degraded = True
                    self._degraded += 1
            self._cond.notify_all()
            return ticket, effective

    def _shed_reason(self, session: "Session") -> Optional[str]:
        """Why this submission must be shed right now (None: admit)."""
        if self._closed:
            return "shutdown"
        if (
            self.per_session_limit is not None
            and self._per_session.get(session.session_id, 0)
            >= self.per_session_limit
        ):
            return "session_quota"
        if len(self._waiting) >= self.queue_depth + self._free_slots():
            # the queue bound counts *waiting beyond free slots*: a
            # submission that would be granted immediately is never
            # shed just because earlier arrivals filled the depth
            return "queue_full"
        return None

    def _free_slots(self) -> int:
        return max(0, self.max_inflight - self._inflight)

    def _reject(
        self,
        session: "Session",
        query: "Query",
        reason: str,
        contract: Optional[Contract] = None,
    ) -> RejectedQuery:
        if reason == "queue_full":
            self._shed_queue_full += 1
        elif reason == "session_quota":
            self._shed_session_quota += 1
        else:
            self._shed_shutdown += 1
        run = self._mean_run_seconds or _RETRY_AFTER_FLOOR
        # advice, not a promise: time for the queue ahead to drain at
        # the observed per-slot service rate
        retry_after = max(
            _RETRY_AFTER_FLOOR,
            (len(self._waiting) + 1) * run / self.max_inflight,
        )
        return RejectedQuery(
            session_name=session.name,
            session_id=session.session_id,
            query=query,
            reason=reason,
            retry_after=retry_after,
            queued=len(self._waiting),
            inflight=self._inflight,
            contract=contract,
        )

    def _pressure(self) -> float:
        """Occupancy fraction of total capacity (slots + queue)."""
        capacity = self.max_inflight + self.queue_depth
        return (self._inflight + len(self._waiting)) / capacity

    def _coarsen(self, contract: Contract) -> Optional[Contract]:
        """The next-coarser rung of ``contract`` (None: nothing to give).

        Error bounds widen by ``degrade_factor`` (a coarser ladder
        rung satisfies them, so the query stops climbing earlier);
        time budgets tighten by the same factor (less work admitted
        per query).  Strictness is dropped — a degraded answer is by
        definition best-effort, and "shed or degrade" must never turn
        into an unexpected hard error.  Exact contracts are sacred.
        """
        if contract.is_exact:
            return None
        coarse_error = (
            None
            if contract.max_relative_error is None
            else contract.max_relative_error * self.degrade_factor
        )
        coarse_budget = (
            None
            if contract.time_budget is None
            else contract.time_budget / self.degrade_factor
        )
        if coarse_error is None and coarse_budget is None:
            return None  # unconstrained: already as coarse as it gets
        return replace(
            contract,
            max_relative_error=coarse_error,
            time_budget=coarse_budget,
            strict=False,
        )

    # ------------------------------------------------------------------
    # dispatch: priority aging
    # ------------------------------------------------------------------
    def _effective_priority(self, ticket: AdmissionTicket, now: float) -> float:
        """LifeRaft's tradeoff as one number, biggest-first.

        The popularity term (queued/in-flight siblings on the same
        table, plus the shared-scan scheduler's live lanes) makes
        convoys win throughput; the age term grows without bound, so
        a starved query's priority is strictly monotone in its wait
        and eventually dominates any popularity gap.
        """
        popularity = self._per_table.get(ticket.query.table, 0) - 1
        if self._scheduler is not None:
            popularity += self._scheduler.lane_activity().get(
                ticket.query.table, 0
            )
        return (
            ticket.weight * (1.0 + max(popularity, 0))
            + self.age_rate * (now - ticket.enqueued_at)
        )

    def _best_index(self, now: float) -> Optional[int]:
        """Index of the highest-priority waiting ticket (None: empty).

        A linear scan: the queue is bounded by ``queue_depth`` and
        aging re-ranks continuously, so a heap would be stale the
        moment it was built.  Ties go to the earlier arrival.
        """
        best, best_priority = None, -float("inf")
        for index, ticket in enumerate(self._waiting):
            priority = self._effective_priority(ticket, now)
            if priority > best_priority:
                best, best_priority = index, priority
        return best

    def _grant(self, index: int) -> AdmissionTicket:
        """Move the waiting ticket at ``index`` into an in-flight slot."""
        ticket = self._waiting.pop(index)
        ticket.granted_at = self._clock()
        self._inflight += 1
        self._admitted += 1
        waited = ticket.queue_seconds or 0.0
        self._total_queue_seconds += waited
        self._max_queue_seconds = max(self._max_queue_seconds, waited)
        return ticket

    def take(self, timeout: Optional[float] = None) -> Optional[AdmissionTicket]:
        """Claim the globally best pool ticket; a worker's entry point.

        Blocks until a slot is free *and* the best-ranked waiting
        ticket is pool-kind (a better-ranked blocking ticket is left
        for its own thread — strict priority order).  Returns ``None``
        on controller close or ``timeout`` — the worker should simply
        return; its ticket has been failed or claimed elsewhere.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                if self._closed and not self._waiting:
                    return None
                if self._inflight < self.max_inflight and self._waiting:
                    index = self._best_index(self._clock())
                    if index is not None and (
                        self._waiting[index].kind == "pool"
                    ):
                        return self._grant(index)
                if deadline is not None and self._clock() >= deadline:
                    return None
                # bounded wait: aging can flip which kind ranks best
                # without any notify, so re-check periodically
                self._cond.wait(timeout=0.05)

    def wait(self, ticket: AdmissionTicket, timeout: Optional[float] = None) -> bool:
        """Block until ``ticket`` is granted a slot (blocking-kind).

        Returns ``False`` if the controller closed (the ticket has
        been removed) or ``timeout`` elapsed first.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                if ticket.granted_at is not None:
                    return True
                if self._closed or ticket not in self._waiting:
                    return False
                if self._inflight < self.max_inflight:
                    index = self._best_index(self._clock())
                    if index is not None and self._waiting[index] is ticket:
                        self._grant(index)
                        return True
                if deadline is not None and self._clock() >= deadline:
                    return False
                self._cond.wait(timeout=0.05)

    def release(self, ticket: AdmissionTicket, failed: bool = False) -> None:
        """Return ``ticket``'s slot (idempotent); wakes the next grant.

        ``failed`` feeds the failure counter — admission owns outcome
        accounting for everything it admitted, so a query that died
        mid-drain is still visible in :attr:`stats`.
        """
        with self._cond:
            if ticket.released:
                return
            ticket.released = True
            if ticket.granted_at is not None:
                self._inflight -= 1
                run = self._clock() - ticket.granted_at
                if self._mean_run_seconds is None:
                    self._mean_run_seconds = run
                else:
                    self._mean_run_seconds = 0.5 * (
                        self._mean_run_seconds + run
                    )
                if failed:
                    self._failed += 1
                else:
                    self._completed += 1
            else:
                self._waiting.remove(ticket)
            self._forget(ticket)
            self._cond.notify_all()

    def _forget(self, ticket: AdmissionTicket) -> None:
        """Drop the ticket from the quota and popularity accounting."""
        session_id = ticket.session.session_id
        remaining = self._per_session.get(session_id, 0) - 1
        if remaining > 0:
            self._per_session[session_id] = remaining
        else:
            self._per_session.pop(session_id, None)
        table_remaining = self._per_table.get(ticket.query.table, 0) - 1
        if table_remaining > 0:
            self._per_table[ticket.query.table] = table_remaining
        else:
            self._per_table.pop(ticket.query.table, None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> List[AdmissionTicket]:
        """Stop admitting; evict and return every still-queued ticket.

        The server fails the evicted tickets' handles so no caller
        blocks forever on a query that will never run.  In-flight
        tickets finish normally (their :meth:`release` still counts).
        Idempotent.
        """
        with self._cond:
            self._closed = True
            evicted = list(self._waiting)
            self._waiting.clear()
            for ticket in evicted:
                self._shed_shutdown += 1
                self._forget(ticket)
            self._cond.notify_all()
            return evicted

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> AdmissionStats:
        """A consistent snapshot of all counters (never torn)."""
        with self._cond:
            return AdmissionStats(
                submitted=self._submitted,
                admitted=self._admitted,
                degraded=self._degraded,
                shed_queue_full=self._shed_queue_full,
                shed_session_quota=self._shed_session_quota,
                shed_shutdown=self._shed_shutdown,
                completed=self._completed,
                failed=self._failed,
                inflight=self._inflight,
                queued=len(self._waiting),
                max_queue_seconds=self._max_queue_seconds,
                total_queue_seconds=self._total_queue_seconds,
            )

    def __repr__(self) -> str:
        snapshot = self.stats
        return (
            f"AdmissionController(max_inflight={self.max_inflight}, "
            f"queue_depth={self.queue_depth}, "
            f"inflight={snapshot.inflight}, queued={snapshot.queued}, "
            f"shed={snapshot.shed})"
        )
