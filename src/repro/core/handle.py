"""Query handles: progressive, cancellable bounded executions.

SciBORQ's promise is an *anytime* one — the best answer within the
bound — and the escalation ladder produces a statistically valid
answer at **every** rung.  A :class:`QueryHandle` exposes that ladder
as it climbs instead of only after it finishes:

>>> handle = engine.submit(query, Contract.within_error(0.02))
>>> for update in handle:                        # doctest: +SKIP
...     print(update.describe())
...     if update.achieved_error < 0.05:
...         handle.cancel()                      # keep best-so-far
>>> outcome = handle.result()                    # a BoundedResult

Each iteration yields a :class:`ProgressUpdate` — the current rung's
estimates with confidence intervals, the error achieved so far, and
the cost spent/remaining — produced for free from the per-rung answer
the processor computes anyway to decide whether to escalate (the
:class:`~repro.columnstore.aggstate.FoldState` threaded up the ladder
makes each snapshot an O(groups) finalise, never a re-scan; snapshot
finalisation charges nothing).

A handle is driven in one of two ways:

* **lazily** (``engine.submit``): rungs execute in whichever thread
  iterates the handle or calls :meth:`result` — nothing runs until
  someone asks;
* **on a worker pool** (``Session.submit`` / ``SciBorqServer.
  submit``): the server drains the handle on its thread pool,
  delivering :meth:`on_progress` callbacks off the worker threads,
  while iterators and :meth:`result` callers block on updates as they
  arrive.

Either way, :meth:`cancel` stops the climb *between* rungs: the
best-so-far answer is kept (``met_quality=False`` unless the bound
was already met) and no further rung is ever scanned.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Generator,
    Iterator,
    List,
    Optional,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.columnstore.query import Query
    from repro.core.bounded import BoundedResult, ExecutionAttempt
    from repro.core.contracts import Contract
    from repro.core.quality import EstimatedResult


@dataclass(frozen=True)
class ProgressUpdate:
    """One rung of the ladder, reported as it completes.

    ``result`` is that rung's full answer (estimates + confidence
    intervals) or ``None`` for a rung the sample could not answer
    (e.g. an AVG over a region the layer missed); ``partial`` is the
    :class:`~repro.core.bounded.BoundedResult` you would get by
    stopping right now (``None`` until some rung has answered).
    """

    #: 0-based position among executed rungs (== index into attempts).
    rung: int
    #: Name of the impression (or base table) that answered.
    source: str
    #: This rung's answer, or None if the rung was unanswerable.
    result: Optional["EstimatedResult"]
    #: This rung's worst relative error (inf if unanswerable).
    achieved_error: float
    #: Best error across all rungs so far.
    best_error: float
    #: Whether this rung met the contract's quality bound.
    satisfied: bool
    #: Cost this execution has spent so far (clock units).
    spent: float
    #: Budget left under the contract (None: unbounded).
    remaining: Optional[float]
    #: The ladder record for this rung.
    attempt: "ExecutionAttempt"
    #: Best-so-far outcome if execution stopped here.
    partial: Optional["BoundedResult"]
    #: Wall seconds this query waited for a pool worker before its
    #: drain started (None: not server-queued).
    #: ``spent`` bills execution only, so this is the other half of
    #: the latency a user actually observes under load.
    queue_seconds: Optional[float] = None
    #: Wall seconds of actual drain time when this update was
    #: produced (None: not server-queued).
    run_seconds: Optional[float] = None
    #: The contract this execution runs under — promise next to
    #: achievement, so a consumer can render "error 0.03 vs <=0.05
    #: (silver)" from the update alone, without a side lookup to the
    #: handle (None only on legacy streams that predate the field).
    contract: Optional["Contract"] = None

    def describe(self) -> str:
        """One-line trace used by examples and debugging."""
        left = "∞" if self.remaining is None else f"{self.remaining:g}"
        queued = (
            ""
            if self.queue_seconds is None
            else f" queued={self.queue_seconds:.3g}s"
        )
        return (
            f"[rung {self.rung}] {self.source}: "
            f"error={self.achieved_error:.4g} "
            f"(best {self.best_error:.4g}) "
            f"spent={self.spent:g} remaining={left}{queued} "
            f"{'✓' if self.satisfied else '✗'}"
        )


#: The generator protocol a handle drives: yields one ProgressUpdate
#: per executed rung and returns the final BoundedResult.
UpdateStream = Generator[ProgressUpdate, None, "BoundedResult"]


class QueryHandle:
    """A submitted bounded query: iterable, blockable, cancellable.

    Created by ``engine.submit`` / ``Session.submit`` — never
    directly.  Thread-safe: any thread may iterate, register
    callbacks, cancel, or wait on :meth:`result`.

    Parameters
    ----------
    query / contract:
        What was submitted; exposed for registries and debugging.
    stream:
        The per-rung update generator (``BoundedQueryProcessor.run``
        or the engine's exact-path equivalent).  Nothing executes
        until the handle is advanced.
    finalize:
        Optional hook applied to the final :class:`BoundedResult`
        (natural completion *and* cancellation) — the engine uses it
        to settle the outcome into its query log and monitor.
    """

    def __init__(
        self,
        query: "Query",
        contract: "Contract",
        stream: UpdateStream,
        finalize: Optional[
            Callable[["BoundedResult"], "BoundedResult"]
        ] = None,
    ) -> None:
        self.query = query
        self.contract = contract
        self._stream = stream
        self._finalize = finalize
        # _drive_lock serialises generator advancement (reentrant so a
        # progress callback may cancel the handle it is observing);
        # _state guards the shared history/flags and carries the
        # update broadcast.
        self._drive_lock = threading.RLock()
        self._state = threading.Condition()
        self._updates: List[ProgressUpdate] = []
        self._callbacks: List[Callable[[ProgressUpdate], None]] = []
        self._result: Optional["BoundedResult"] = None
        self._error: Optional[BaseException] = None
        self._done = threading.Event()
        self._cancel_requested = False
        self._driven = False  # True once a worker pool owns the drain
        self._drive_thread: Optional[threading.Thread] = None
        # queue-vs-run split (wall seconds): stamped by the server at
        # submission and by drain() at first execution; lazy handles
        # keep both None and their updates are byte-identical to before
        self._queued_at: Optional[float] = None
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether a final outcome (or failure) is available."""
        return self._done.is_set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was requested."""
        return self._cancel_requested

    @property
    def updates(self) -> List[ProgressUpdate]:
        """All progress updates produced so far (oldest first)."""
        with self._state:
            return list(self._updates)

    @property
    def queue_seconds(self) -> Optional[float]:
        """Wall seconds between submission and the start of the drain.

        The half of user-observed latency that execution budgets never
        bill: the wait for a pool worker.  ``None`` until
        the drain starts (or always, for lazy handles nobody queued).
        """
        if self._queued_at is None or self._started_at is None:
            return None
        return self._started_at - self._queued_at

    @property
    def run_seconds(self) -> Optional[float]:
        """Wall seconds of drain time so far (final once done)."""
        if self._started_at is None:
            return None
        end = self._finished_at
        return (end if end is not None else time.monotonic()) - self._started_at

    # ------------------------------------------------------------------
    # progress callbacks
    # ------------------------------------------------------------------
    def on_progress(
        self, callback: Callable[[ProgressUpdate], None]
    ) -> "QueryHandle":
        """Call ``callback`` with every update; replays history first.

        On pool-driven handles the callback runs on the worker thread
        that executes the rung.  Returns ``self`` for chaining.
        """
        with self._state:
            history = list(self._updates)
            self._callbacks.append(callback)
        for update in history:
            self._dispatch(callback, update)
        return self

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def _publish(self, update: ProgressUpdate) -> None:
        if self._queued_at is not None and self._started_at is not None:
            # queue-time vs run-time split: stamped only on handles the
            # server queued, so lazy handles' updates stay unchanged
            update = replace(
                update,
                queue_seconds=self._started_at - self._queued_at,
                run_seconds=time.monotonic() - self._started_at,
            )
        with self._state:
            self._updates.append(update)
            callbacks = list(self._callbacks)
            self._state.notify_all()
        for callback in callbacks:
            self._dispatch(callback, update)

    def _dispatch(
        self, callback: Callable[[ProgressUpdate], None], update: ProgressUpdate
    ) -> None:
        try:
            callback(update)
        except BaseException as exc:
            # a broken observer fails the handle loudly: the error is
            # recorded so result() re-raises it, instead of leaving a
            # driven handle unsettled forever (no-op if the handle
            # already settled — first settle wins)
            self._fail(exc)
            raise

    def _finish(self, result: Optional["BoundedResult"]) -> None:
        if self.done:
            return  # first settle wins
        if result is not None and self._finalize is not None:
            try:
                result = self._finalize(result)
            except BaseException as exc:
                # a settle hook that raises fails the handle with its
                # error, or a driven handle would never settle
                self._stream.close()
                self._fail(exc)
                raise
        with self._state:
            self._result = result
            if self._started_at is not None:
                self._finished_at = time.monotonic()
            self._done.set()
            self._state.notify_all()
        self._stream.close()

    def _fail(self, error: BaseException) -> None:
        if self.done:
            return  # first settle wins
        with self._state:
            self._error = error
            if self._started_at is not None:
                self._finished_at = time.monotonic()
            self._done.set()
            self._state.notify_all()

    def _step(self) -> Optional[ProgressUpdate]:
        """Advance one rung; None once finished.  Caller holds no locks.

        Raises what the stream raises (e.g. strict-bound failures at
        natural completion) after recording it, so lazy iterators see
        the error where it happens.
        """
        with self._drive_lock:
            if self.done:
                return None
            try:
                update = next(self._stream)
            except StopIteration as stop:
                self._finish(stop.value)
                return None
            except BaseException as exc:
                self._fail(exc)
                raise
            # published inside the drive lock so two threads driving
            # the same lazy handle cannot interleave rungs out of
            # order (publishing itself only takes _state; the RLock
            # keeps a callback's reentrant cancel() safe)
            self._publish(update)
        return update

    def _finish_cancelled(self) -> None:
        """Settle a cancel request: keep best-so-far, stop the climb.

        Runs rungs until *some* answer exists — cancelling before the
        first update still owes the caller the first rung's answer.
        """
        with self._drive_lock:
            if self.done:
                return
            while not self._updates or self._updates[-1].partial is None:
                try:
                    update = next(self._stream)
                except StopIteration as stop:
                    self._finish(stop.value)
                    return
                except BaseException as exc:
                    self._fail(exc)
                    raise
                # bypass _publish's lock-free callback path: we hold
                # the drive lock, but publishing takes only _state
                self._publish(update)
            self._finish(self._updates[-1].partial)

    def mark_driven(self) -> None:
        """Declare that a worker pool owns this handle's drain.

        The server calls this *before* dispatching the drain to its
        pool, so callers that immediately iterate or call
        :meth:`result` wait on the worker instead of racing it.
        """
        self._driven = True

    def mark_queued(self) -> None:
        """Stamp submission time; starts the queue-time measurement.

        Called by the server when it hands the query to its pool.  From
        here until :meth:`drain` starts counts as queue time in every
        :class:`ProgressUpdate` this handle publishes.
        """
        self._queued_at = time.monotonic()

    def drain(self) -> None:
        """Run to completion (or cancellation), swallowing nothing.

        The server's pool workers call this; exceptions are recorded
        for :meth:`result` to re-raise but not propagated into the
        pool (a strict-contract miss must not kill the worker).
        """
        self._driven = True
        if self._started_at is None:
            self._started_at = time.monotonic()
        self._drive_thread = threading.current_thread()
        try:
            while not self.done:
                if self._cancel_requested:
                    self._finish_cancelled()
                    return
                self._step()
        except BaseException:  # noqa: BLE001 - recorded by _step/_fail
            pass

    # ------------------------------------------------------------------
    # the public contract: iterate / result / cancel
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[ProgressUpdate]:
        """Yield every update, executing rungs on demand (lazy mode).

        On a pool-driven handle the iterator follows the worker,
        blocking until each next update (or the end) arrives.  Always
        replays from the first rung, so late iterators see the full
        ladder.
        """
        cursor = 0
        while True:
            update = None
            with self._state:
                if cursor < len(self._updates):
                    update = self._updates[cursor]
                    cursor += 1
                elif self.done or self._cancel_requested:
                    return
                elif self._driven:
                    self._state.wait(timeout=0.1)
                    continue
            if update is not None:
                # yielded outside the lock: the consumer may call
                # cancel()/result() from inside its loop body
                yield update
                continue
            # lazy mode: this thread executes the next rung itself
            if self._step() is None:
                return

    def result(self, timeout: Optional[float] = None) -> "BoundedResult":
        """Block until the final :class:`BoundedResult` is available.

        Lazy handles execute their remaining rungs here; pool-driven
        handles wait for the worker.  Re-raises the execution's
        failure (e.g. a strict bound miss); raises ``TimeoutError``
        if ``timeout`` elapses first (driven mode only — a lazy drain
        runs to completion regardless).
        """
        if not self._driven:
            try:
                while not self.done:
                    if self._cancel_requested:
                        self._finish_cancelled()
                        break
                    self._step()
            except BaseException:  # noqa: BLE001 - re-raised below
                pass
        elif not self._done.wait(timeout):
            raise TimeoutError(
                f"query handle not done within {timeout} seconds"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def request_cancel(self) -> None:
        """Ask the drain to stop between rungs, without waiting.

        The non-blocking half of :meth:`cancel`: sets the flag and
        returns immediately — no rung runs on the caller's thread and
        nothing blocks on the outcome.  The server's timed shutdown
        uses this on stragglers a wedged drain may never settle.
        """
        with self._state:
            self._cancel_requested = True
            self._state.notify_all()

    def cancel(self) -> "BoundedResult":
        """Stop between rungs; keep the best answer obtained so far.

        No further rung is scanned after the cancel takes effect.
        The returned outcome reports ``met_quality=False`` unless the
        bound was already met (and ``met_budget`` for the spend so
        far); a handle that already completed returns its result
        unchanged.  Idempotent.
        """
        self.request_cancel()
        if not self._driven:
            self._finish_cancelled()
        elif threading.current_thread() is self._drive_thread:
            # cancelled from inside the drain itself (a progress
            # callback cancelling the handle it observes): settle now
            # — waiting on the worker would deadlock the worker
            self._finish_cancelled()
        return self.result()

    def __repr__(self) -> str:
        if self.done:
            state = "failed" if self._error is not None else (
                "cancelled" if self._cancel_requested else "done"
            )
        else:
            state = "cancelling" if self._cancel_requested else "pending"
        return (
            f"QueryHandle({self.contract!r}, {state}, "
            f"rungs={len(self._updates)})"
        )
