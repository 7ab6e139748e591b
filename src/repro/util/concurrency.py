"""Concurrency primitives: the RW lock and the flat combiner.

The server (:mod:`repro.core.server`) serves many sessions over one
shared engine.  Queries only *read* the catalog, hierarchies, and
interest state, while ingest and maintenance rewrite them, so the
natural discipline is a readers-writer lock: any number of concurrent
queries, exclusive writers.  The lock is writer-preferring — once a
writer is waiting, new readers queue behind it — so a steady stream of
cheap queries cannot starve ingest indefinitely (LifeRaft's failure
mode when query throughput outpaces data arrival).

:class:`Combiner` is the second primitive: a flat-combining batch
queue.  Concurrent callers enqueue items; whichever caller finds the
queue idle becomes the *leader*, executes everybody's pending items in
one call, and hands each caller its own result.  The shared-scan
scheduler (:mod:`repro.core.scheduler`) builds its batching windows on
it — LifeRaft-style convoys form under queue pressure without any
caller ever stalling when it is alone.

Scans themselves start no thread: a selection evaluates its morsels in
the thread that asked (:func:`repro.columnstore.operators.select`), and
parallelism is the server's concurrent sessions.  :class:`MorselPool`
remains only as the fan-out arm ``benchmarks/bench_zone_maps.py``
measures that choice against.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Generic, Iterator, List, Optional, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


class ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Not reentrant: a thread must not acquire the write side while
    holding the read side (or vice versa).  The server keeps its
    critical sections flat, so reentrancy is never needed.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then enter."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        """Leave the read side, waking writers when the last one exits."""
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock is completely free, then enter exclusively."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Leave the write side, waking all waiters."""
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire")
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with lock.read_locked():`` — shared critical section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with lock.write_locked():`` — exclusive critical section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    @property
    def readers(self) -> int:
        """Readers currently inside (diagnostic)."""
        return self._active_readers


class MorselPool:
    """A lazily started thread pool that maps work in input order.

    No scan uses it: it is the fan-out arm of
    ``benchmarks/bench_zone_maps.py``, which fans a scan's morsels over
    it and compares indices and wall time with the caller-thread scan.
    Threads are only created on the first :meth:`map` call.  ``map``
    preserves input order, so fragments concatenate into the exact
    order a caller-thread scan produces.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def map(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> List[_R]:
        """Apply ``fn`` to every item on the pool, preserving order."""
        if len(items) <= 1 or self.max_workers == 1:
            return [fn(item) for item in items]
        # submit under the lock so a concurrent shutdown() cannot
        # close the executor between the existence check and the
        # submissions; results are gathered outside it.
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="morsel-scan",
                )
            futures = [self._executor.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent; pool restarts lazily)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None


class Combiner(Generic[_T, _R]):
    """A flat-combining batch queue: one leader serves all waiters.

    :meth:`run` enqueues an item.  If nobody is currently executing, the
    caller becomes the leader: it grabs *every* pending item (its own
    included), runs the supplied batch function once, and distributes
    the per-item results; callers whose items were grabbed simply wake
    up with their result.  Items that arrive while a leader is working
    queue up and form the next batch — convoys emerge under load, and a
    lone caller executes immediately with zero added latency.

    ``window`` adds an optional batching window: a leader that would
    otherwise run alone first waits up to ``window`` seconds for
    co-arrivals (any arrival wakes it early).  The default of ``0.0``
    never stalls anyone.

    The batch function receives the items in arrival order and must
    return one result per item, in the same order.  If it raises, every
    member of that batch sees the exception.
    """

    class _Slot:
        __slots__ = ("item", "result", "error", "pending")

        def __init__(self, item) -> None:
            self.item = item
            self.result = None
            self.error: Optional[BaseException] = None
            self.pending = True

    def __init__(self, window: float = 0.0) -> None:
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        self.window = window
        self._cond = threading.Condition()
        self._pending: List["Combiner._Slot"] = []
        self._busy = False

    def run(
        self, item: _T, execute: Callable[[List[_T]], Sequence[_R]]
    ) -> _R:
        """Submit ``item``; return its result once some batch ran it."""
        slot = Combiner._Slot(item)
        with self._cond:
            self._pending.append(slot)
            self._cond.notify_all()  # wake a leader waiting out its window
            while slot.pending and self._busy:
                self._cond.wait()
            if slot.pending:
                # nobody is leading: this caller takes the batch
                self._busy = True
                if self.window > 0 and len(self._pending) == 1:
                    self._cond.wait(self.window)
                batch = self._pending
                self._pending = []
        if not slot.pending:
            # a leader served this slot while we waited
            if slot.error is not None:
                raise slot.error
            return slot.result  # type: ignore[return-value]
        results: Optional[Sequence[_R]] = None
        error: Optional[BaseException] = None
        try:
            results = execute([s.item for s in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch function returned {len(results)} results "
                    f"for {len(batch)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - delivered to waiters
            error = exc
        with self._cond:
            if error is None:
                assert results is not None
                for member, result in zip(batch, results):
                    member.result = result
                    member.pending = False
            else:
                for member in batch:
                    member.error = error
                    member.pending = False
            self._busy = False
            self._cond.notify_all()
        if slot.error is not None:
            raise slot.error
        return slot.result  # type: ignore[return-value]

