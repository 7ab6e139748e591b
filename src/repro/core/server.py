"""The multi-session server: one shared engine, many concurrent users.

SciBORQ's bounds are per-query promises made to *people* — SkyServer
answers "scientists, students and interested laymen" simultaneously
(paper §2.1).  :class:`SciBorqServer` is that serving layer for the
reproduction:

* **Shared state, guarded.**  The catalog, impression hierarchies,
  interest model, and recycler live in one :class:`~repro.core.engine.
  SciBorq` engine.  Queries only read them; ingest and maintenance
  rewrite them.  A writer-preferring readers-writer lock
  (:class:`~repro.util.concurrency.ReadWriteLock`) lets any number of
  queries run at once while giving loads and drift reactions exclusive
  access.
* **Isolated accounting.**  Every query runs in its own
  :class:`~repro.util.clock.ExecutionContext`; the engine's global
  clock and the owning session's clock are enrolled as observers.
  ``engine.clock.now`` therefore equals the sum of all sessions'
  spending, while each query's ``total_cost`` is exactly its own
  tuples touched — no cross-session leakage, by construction.
* **Two ways to run a query.**  :meth:`execute` drains the ladder in
  the calling thread; :meth:`submit` returns a handle at once and a
  pool worker drains it.  NumPy releases the GIL inside the scan
  kernels, so concurrent sessions overlap on real cores.
* **Shared scans.**  Concurrent queries probing the same table convoy
  on one block scan: the server installs a
  :class:`~repro.core.scheduler.SharedScanScheduler` into the engine,
  so in-flight rung scans of the same (materialised) table execute as
  one shared pass, with equal predicates evaluated once.  Per-query
  answers, tuples charged, and progress streams are byte-identical to
  solo execution — the scheduler buys wall-clock throughput, never
  accounting shortcuts.  Sessions may opt out per user
  (``open_session(shared_scans=False)``); ``batch_window`` configures
  how long a lone scan waits for co-runners (default: never).

Bounds stay per query: the bounded processor enforces each query's
time budget and error bound rung by rung (paper §3.2).  Every query
takes the same prologue (:meth:`SciBorqServer._open`) and epilogue
(:meth:`SciBorqServer._finish`); no intake layer queues, coarsens or
sheds it on the way in.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.columnstore.query import Query
from repro.core.bounded import BoundedResult
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.governor import GovernorStats, MemoryGovernor
from repro.core.handle import QueryHandle
from repro.core.maintenance import RefreshReport
from repro.core.monitor import ContractMonitor, SlaReport
from repro.core.scheduler import SchedulerStats, SharedScanScheduler
from repro.core.session import Session, SessionStats
from repro.errors import SessionError
from repro.util.clock import ExecutionContext
from repro.util.concurrency import ReadWriteLock


@dataclass(frozen=True)
class ShutdownReport:
    """What :meth:`SciBorqServer.shutdown` actually did.

    ``drained`` queries completed on their own (outcome or recorded
    failure); ``cancelled`` were force-settled at the shutdown
    deadline (best-so-far kept where a rung boundary allowed, failed
    otherwise — their callers never block forever).  A second shutdown
    reports zeros.
    """

    drained: int = 0
    cancelled: int = 0


@dataclass(frozen=True)
class ServerReport:
    """Structured server state (:meth:`SciBorqServer.report`).

    Each optional field is ``None`` when the corresponding subsystem
    is not installed; the stats fields are the subsystems' own frozen
    snapshot types, taken under their own locks, so a report is a
    consistent point-in-time picture.  :meth:`render` is the overview
    for examples and debugging.
    """

    #: Open sessions at snapshot time, one ``session.report()`` each.
    open_sessions: Tuple[SessionStats, ...]
    queries_served: int
    queries_failed: int
    pool_workers: int
    #: Engine clock (all sessions + maintenance), in cost units.
    engine_clock: float
    scheduler: Optional[SchedulerStats]
    #: Full :meth:`~repro.core.engine.SciBorq.memory_report` mapping.
    memory: Mapping[str, object]
    governor_budget: Optional[int]
    governor: Optional[GovernorStats]
    #: Fleet SLA aggregates when a contract monitor is installed.
    sla: Optional[SlaReport]

    def render(self) -> str:
        """The server state as text, one subsystem per line."""
        lines = [
            f"SciBorqServer: {len(self.open_sessions)} open session(s), "
            f"{self.queries_served} queries served, "
            f"{self.queries_failed} failed, "
            f"pool={self.pool_workers} workers",
        ]
        lines.extend(
            f"  session {stats.name!r} (id={stats.session_id}): "
            f"{stats.queries} queries, cost {stats.total_cost:g}"
            for stats in self.open_sessions
        )
        lines.append(
            f"  engine clock (all sessions + maintenance): "
            f"{self.engine_clock:g}"
        )
        if self.scheduler is not None:
            lines.append(f"  {self.scheduler.describe()}")
        tiers = self.memory["tiers"]
        lines.append(
            f"  memory: {self.memory['ram_total']} B RAM "
            f"(hot {tiers['hot']}, "
            f"warm {tiers['warm']}, impressions "
            f"{self.memory['impressions_bytes']}, recycler "
            f"{self.memory['recycler_bytes']}); "
            f"cold spill {self.memory['cold_bytes']} B"
        )
        if self.governor is not None:
            lines.append(
                f"  governor: budget {self.governor_budget} B, "
                f"demotions warm/cold {self.governor.demotions_warm}/"
                f"{self.governor.demotions_cold}, "
                f"promotions {self.governor.promotions}"
            )
        if self.sla is not None:
            lines.append(f"  {self.sla.describe()}")
        return "\n".join(lines)


class SciBorqServer:
    """Serves bounded queries from many sessions over one engine.

    Parameters
    ----------
    engine:
        The shared engine.  The server owns it until :meth:`shutdown`:
        all ingest/maintenance goes through the server, and a second
        server on the same engine raises
        :class:`~repro.errors.SessionError` before the engine is
        touched (two servers would guard one engine with two locks).
    max_workers:
        Thread-pool width for :meth:`submit`; defaults to the
        machine's core count (capped at 8 — scans are memory-bound
        well before that).
    shared_scans:
        Whether to install a shared-scan batch scheduler into the
        engine (default on).  Individual sessions can still opt out.
    batch_window:
        Scheduler batching window in seconds — how long a scan that
        would otherwise run alone waits for co-runners.  The default
        ``0.0`` never stalls anyone; convoys still form under load.
    memory_budget:
        RAM-footprint governance (default ``None``: no governor).  An
        ``int`` installs a :class:`~repro.core.governor.MemoryGovernor`
        with that byte budget; a ready governor is installed as-is.
        The governor demotes
        least-recently-scanned base-table blocks hot→warm→cold after
        ingests and query completions, keeping tables + impressions +
        recycler inside the budget; impression tables stay exact
        copies of base rows, estimates that read warm base blocks carry
        the quantisation bound in their CIs, and exact contracts read
        demoted blocks' raw bytes from the spill.
    monitor:
        Runtime contract monitoring (default ``True``: a fresh
        :class:`~repro.core.monitor.ContractMonitor` is installed into
        the engine); a ready monitor is installed as-is; ``False``
        turns it off.  The monitor is pure observation — it watches every
        settled query and tallies per-tier SLA compliance and a bounded
        violation log (``server.report().sla``) — answers, charges, and
        attempt traces are byte-identical with it on or off.
    contract:
        Server-wide default :class:`Contract` for new sessions
        (default: none — sessions open unconstrained as before).  A
        tier name string (``"bronze"``/``"silver"``/``"gold"``)
        resolves through :meth:`Contract.preset`.  A session's own
        ``contract=`` always wins.
    """

    def __init__(
        self,
        engine: SciBorq,
        max_workers: Optional[int] = None,
        shared_scans: bool = True,
        batch_window: float = 0.0,
        memory_budget: Union[int, MemoryGovernor, None] = None,
        monitor: Union[ContractMonitor, bool] = True,
        contract: Union[Contract, str, None] = None,
    ) -> None:
        self.engine = engine
        # Resolve and validate every argument before touching the
        # engine: a bad argument must leave the engine exactly as found.
        if engine.server is not None:
            raise SessionError(
                f"engine is already served by {engine.server!r}; shut "
                f"that server down before starting another"
            )
        if max_workers is None:
            max_workers = max(1, min(8, os.cpu_count() or 1))
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.scheduler: Optional[SharedScanScheduler] = (
            SharedScanScheduler(window=batch_window) if shared_scans else None
        )
        self.memory_governor: Optional[MemoryGovernor] = (
            memory_budget
            if memory_budget is None or isinstance(memory_budget, MemoryGovernor)
            else MemoryGovernor(int(memory_budget))
        )
        if isinstance(monitor, bool):
            # default ON: monitoring is pure observation, so there is
            # no accuracy or byte-identity cost to paying for it
            monitor = ContractMonitor() if monitor else None
        self.monitor: Optional[ContractMonitor] = monitor
        #: Server-wide default contract applied by ``open_session``
        #: when the caller specifies nothing at all.
        self.default_contract: Optional[Contract] = (
            Contract.preset(contract) if isinstance(contract, str) else contract
        )
        engine.server = self
        try:
            self._install()
        except BaseException:
            # an install can still fail (a spill error while enforcing
            # the budget): no server exists to shut down, so undo it here
            self._release_engine()
            raise
        self._rwlock = ReadWriteLock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="sciborq"
        )
        self._sessions: Dict[int, Session] = {}
        self._admin_lock = threading.Lock()
        self._next_session_id = 0
        self._queries_served = 0
        self._queries_failed = 0
        #: driven handles not yet counted, with their session and query
        #: — what a timed shutdown must drain, cancel, or fail so no
        #: caller blocks forever.  Whoever takes a handle out (its
        #: worker, or the shutdown that fails it) runs its epilogue, so
        #: every query counts exactly once.
        self._active_handles: Dict[QueryHandle, Tuple[Session, Query]] = {}
        self._closed = False

    def _install(self) -> None:
        """Install the resolved collaborators into the engine."""
        engine = self.engine
        if self.memory_governor is not None:
            # first: enforcing the budget is the one install that can
            # fail, and nothing has been displaced yet
            engine.set_memory_governor(self.memory_governor)
            logging.getLogger("repro.memory").info(
                "memory budget: %d bytes", self.memory_governor.budget_bytes
            )
        if self.scheduler is not None:
            # shared_scans=False leaves any externally-installed
            # scheduler on the engine untouched
            engine.set_scan_scheduler(self.scheduler)
        if self.monitor is not None:
            engine.set_monitor(self.monitor)
            logging.getLogger("repro.monitor").info("contract monitoring: on")

    def _release_engine(self) -> None:
        """Give the engine up, carrying nothing this server installed
        (direct engine use runs plain solo scans again)."""
        engine = self.engine
        if self.scheduler is not None and engine.scan_scheduler is self.scheduler:
            engine.set_scan_scheduler(None)
        if (
            self.memory_governor is not None
            and engine.memory_governor is self.memory_governor
        ):
            engine.set_memory_governor(None)
        if self.monitor is not None and engine.monitor is self.monitor:
            engine.set_monitor(None)
        engine.server = None

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def open_session(
        self,
        name: Optional[str] = None,
        contract: Union[Contract, str, None] = None,
        shared_scans: bool = True,
    ) -> Session:
        """Open a new session with its own default contract.

        ``contract`` is the session's default :class:`Contract` — a
        value, or a tier name string (``"bronze"``/``"silver"``/
        ``"gold"``) resolved through :meth:`Contract.preset`.  When
        the caller gives none, the server's own ``contract=`` default
        (if any) applies.
        ``shared_scans=False`` keeps this user's scans out of the
        server's shared-scan convoys (answers and charges are
        identical either way; opting out only forgoes the wall-clock
        sharing).
        """
        self._require_open()
        if contract is None:
            contract = self.default_contract
        with self._admin_lock:
            session_id = self._next_session_id
            self._next_session_id += 1
            session = Session(
                self,
                session_id,
                name=name,
                contract=contract,
                shared_scans=shared_scans,
            )
            self._sessions[session_id] = session
        return session

    def _forget_session(self, session: Session) -> None:
        with self._admin_lock:
            self._sessions.pop(session.session_id, None)

    @property
    def sessions(self) -> List[Session]:
        """Currently open sessions."""
        with self._admin_lock:
            return list(self._sessions.values())

    # ------------------------------------------------------------------
    # query path (readers)
    # ------------------------------------------------------------------
    def _open(
        self,
        session: Session,
        query: Query,
        contract: Optional[Contract],
    ) -> QueryHandle:
        """The one prologue of every query: count, submit.

        Counts the query in the session's report and submits it to the
        engine.  The execution context — engine clock plus the session
        clock as observers, so the outcome's ``total_cost`` is exactly
        this query's own spending — opens at the first rung, inside the
        read lock the drain holds: wall-mode budgets bill execution
        time only.
        """
        self._require_open()
        session._require_open()
        contract = contract if contract is not None else session.defaults
        session._record_submission()
        try:
            return self.engine.submit(
                query,
                contract,
                context_factory=lambda: ExecutionContext(
                    clock=self.engine.clock,
                    limit=contract.time_budget,
                    observers=(session.clock,),
                    shared_scans=session.shared_scans,
                ),
                session_id=session.session_id,
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            self._note_failure(session, query, exc)
            raise

    def _finish(
        self, session: Session, query: Query, handle: QueryHandle
    ) -> None:
        """The one epilogue of every drained query.

        A failure (strict bound miss, bad predicate) stays on the
        handle for ``result()`` to re-raise — but it is *counted*
        here, per server and per session, so a background failure is
        observable without anyone ever calling ``result()``.  Then
        lets the governor run.
        """
        try:
            outcome = handle.result(timeout=0)
        except BaseException as exc:  # noqa: BLE001 - stays on the handle
            self._note_failure(session, query, exc)
            return
        session._record(outcome)
        with self._admin_lock:
            self._queries_served += 1
        self._govern_memory()

    def execute(
        self,
        session: Session,
        query: Query,
        contract: Optional[Contract] = None,
    ) -> BoundedResult:
        """Run one query for ``session``, blocking until done.

        The blocking drain: the calling thread runs the ladder under
        the shared read lock.
        """
        handle = self._open(session, query, contract)
        try:
            with self._rwlock.read_locked():
                return handle.result()
        finally:
            self._finish(session, query, handle)

    # ------------------------------------------------------------------
    # progressive execution (readers)
    # ------------------------------------------------------------------
    def submit(
        self,
        session: Session,
        query: Query,
        contract: Optional[Contract] = None,
    ) -> QueryHandle:
        """Submit one progressive query for ``session`` on the pool.

        Returns the :class:`~repro.core.handle.QueryHandle`
        immediately; a pool worker drains the ladder under the shared
        read lock, delivering ``on_progress`` callbacks from the
        worker thread.  ``cancel()`` on the returned handle stops the
        worker between rungs.  The handle's ``queue_seconds`` and every
        :class:`~repro.core.handle.ProgressUpdate` report the wait for
        a pool worker.
        """
        handle = self._open(session, query, contract)
        handle.mark_driven()
        handle.mark_queued()
        with self._admin_lock:
            self._active_handles[handle] = (session, query)
        try:
            self._pool.submit(self._drive_handle, handle)
        except RuntimeError:
            # pool shut down between _require_open and here: settle the
            # handle so its caller never blocks on a drain that will
            # never run
            self._force_fail(handle, SessionError("server is shut down"))
        return handle

    def _settle_driven(self, handle: QueryHandle) -> None:
        """Run a driven handle's epilogue, unless another thread
        already took the handle out and ran it."""
        with self._admin_lock:
            owner = self._active_handles.pop(handle, None)
        if owner is not None:
            session, query = owner
            self._finish(session, query, handle)

    def _force_fail(self, handle: QueryHandle, error: SessionError) -> None:
        """Fail a driven handle the shutdown overtook, and count it
        (first settle wins: a drain that settled first counts as it
        settled)."""
        handle._fail(error)
        self._settle_driven(handle)

    def _drive_handle(self, handle: QueryHandle) -> None:
        """Pool worker core: drain one handle under the shared read
        lock, then run the epilogue."""
        try:
            with self._rwlock.read_locked():
                handle.drain()
        except BaseException as exc:  # noqa: BLE001 - worker died
            # drain() records *query* failures on the handle and
            # returns; reaching here means the worker itself died
            # mid-drain.  Settle the handle (first-settle-wins) so
            # its caller never blocks on a drain nobody finishes.
            handle._fail(exc)
        self._settle_driven(handle)

    def _note_failure(
        self, session: Session, query: Query, exc: BaseException
    ) -> None:
        """Failure accounting: per server, per session, and logged."""
        session._record_failure()
        with self._admin_lock:
            self._queries_failed += 1
        logging.getLogger("repro.server").debug(
            "query failed: session %r, table %r: %s",
            session.name,
            query.table,
            exc,
        )

    # ------------------------------------------------------------------
    # data + maintenance path (writers)
    # ------------------------------------------------------------------
    def ingest(self, table: str, batch: Mapping[str, np.ndarray]) -> int:
        """Append a batch under the exclusive write lock."""
        self._require_open()
        with self._rwlock.write_locked():
            return self.engine.ingest(table, batch)

    def maintain(self) -> Dict[str, List[RefreshReport]]:
        """React to drift (engine-wide) under the write lock."""
        self._require_open()
        with self._rwlock.write_locked():
            return self.engine.maintain()

    def refresh(
        self, table: str, hierarchy: Optional[str] = None
    ) -> List[RefreshReport]:
        """Refresh a table's smaller layers under the write lock."""
        self._require_open()
        with self._rwlock.write_locked():
            return self.engine.refresh(table, hierarchy)

    def rebuild(
        self, table: str, hierarchy: Optional[str] = None
    ) -> List[RefreshReport]:
        """Rebuild a table's hierarchy from base under the write lock."""
        self._require_open()
        with self._rwlock.write_locked():
            return self.engine.rebuild(table, hierarchy)

    def _govern_memory(self) -> None:
        """Post-query governor pass: exclusive only when it must demote.

        The footprint is read beside other readers, under the read lock
        (an O(columns) sum); within budget the governor only promotes,
        which scans may race (:meth:`MemoryGovernor.enforce_within_budget
        <repro.core.governor.MemoryGovernor.enforce_within_budget>`).
        Over budget, demotion swaps a column from its contiguous buffer
        to per-block storage, so the pass takes the write lock — waiting
        for in-flight readers to drain — and the governor checks the
        footprint again once it holds it.  Skipped entirely without a
        governor.
        """
        governor = self.memory_governor
        if governor is None or self._closed:
            return
        with self._rwlock.read_locked():
            if governor.enforce_within_budget(self.engine):
                return
        with self._rwlock.write_locked():
            self.engine.enforce_memory()

    # ------------------------------------------------------------------
    # lifecycle + introspection
    # ------------------------------------------------------------------
    @property
    def queries_served(self) -> int:
        """Total queries completed across all sessions."""
        return self._queries_served

    @property
    def queries_failed(self) -> int:
        """Total queries that errored server-side (all sessions).

        Counts strict-bound misses and execution errors on both the
        blocking and the background path — a submit whose handle
        nobody ever calls ``result()`` on still lands here, and so
        does every query a shutdown fails.
        """
        return self._queries_failed

    def _require_open(self) -> None:
        if self._closed:
            raise SessionError("server is shut down")

    def shutdown(
        self, wait: bool = True, timeout: Optional[float] = None
    ) -> ShutdownReport:
        """Close every session and stop the pool (idempotent).

        With ``timeout`` (seconds, implies ``wait``), in-flight drains
        get that long to complete; whatever is still running at the
        deadline is cancelled between rungs (best-so-far kept) and
        wedged or never-started drains are failed outright and count in
        :attr:`queries_failed` — either way every handle settles, so no
        caller blocks forever.  The
        returned :class:`ShutdownReport` says how many drained and how
        many were cancelled.

        Also gives the engine up: the scan scheduler, memory governor
        and contract monitor this server installed are removed, and
        another server may then be started on the engine.
        """
        if self._closed:
            return ShutdownReport()
        self._closed = True
        for session in self.sessions:
            session.close()
        if timeout is not None:
            # stop feeding the pool before the snapshot: queued drains
            # are cancelled and failed below, and a submit racing this
            # shutdown is either in the snapshot or finds the pool shut
            # and settles its own handle
            self._pool.shutdown(wait=False, cancel_futures=True)
        with self._admin_lock:
            active = list(self._active_handles)
        forced: Set[QueryHandle] = set()
        cancelled = 0
        if timeout is not None:
            deadline = time.monotonic() + timeout
            for handle in active:
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    handle._done.wait(remaining)
                if not handle.done:
                    handle.request_cancel()
            # one grace period, shared, for the cancels to land at a
            # rung boundary: shutdown never outlasts timeout + 0.2 s
            deadline = time.monotonic() + 0.2
            for handle in active:
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    handle._done.wait(remaining)
                if not handle.done:
                    cancelled += 1
                    self._force_fail(handle, SessionError(
                        "server shut down before this query completed"
                    ))
                    forced.add(handle)
                elif handle.cancelled:
                    cancelled += 1
                    forced.add(handle)
        else:
            self._pool.shutdown(wait=wait)
            if wait:
                for handle in active:
                    if handle.done:
                        continue
                    # its worker task was cancelled or never dispatched
                    cancelled += 1
                    self._force_fail(handle, SessionError(
                        "server shut down before this query completed"
                    ))
                    forced.add(handle)
        drained = sum(
            1 for handle in active if handle.done and handle not in forced
        )
        self._release_engine()
        return ShutdownReport(drained=drained, cancelled=cancelled)

    def report(self) -> ServerReport:
        """Structured server state (:class:`ServerReport`).

        Every figure is a consistent snapshot — the scheduler,
        governor and monitor stats objects each snapshot under their
        own lock, so concurrent mutation never tears a field.  The
        fleet SLA aggregates (``report().sla``) are present whenever a
        contract monitor is installed (the default).
        """
        sessions = tuple(session.report() for session in self.sessions)
        with self._admin_lock:
            served = self._queries_served
            failed = self._queries_failed
        governor = self.memory_governor
        return ServerReport(
            open_sessions=sessions,
            queries_served=served,
            queries_failed=failed,
            pool_workers=self.max_workers,
            engine_clock=self.engine.clock.now,
            scheduler=(
                self.scheduler.stats if self.scheduler is not None else None
            ),
            memory=self.engine.memory_report(),
            governor_budget=(
                governor.budget_bytes if governor is not None else None
            ),
            governor=governor.stats if governor is not None else None,
            sla=self.monitor.report() if self.monitor is not None else None,
        )

    def __enter__(self) -> "SciBorqServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "shut down" if self._closed else "open"
        return (
            f"SciBorqServer({state}, sessions={len(self.sessions)}, "
            f"served={self._queries_served})"
        )
