"""Cost clocks and per-execution cost contexts.

SciBORQ promises an *upper limit on execution time* (paper §3.2).  The
original system reasons about wall-clock minutes on MonetDB; a Python
reproduction cannot promise the same milliseconds, so the default clock
counts an abstract, deterministic cost unit — tuples touched by
operators — which is exactly the quantity the impression hierarchy
controls (a query over a 10 000-tuple impression touches 60x fewer
tuples than one over a 600 000-tuple base table).  A wall-clock adapter
is provided for callers who want real seconds; the two share one
interface so the bounded executor does not care which is in use.

Bounds are per-*query* promises, so cost accounting is per-execution:
each query opens an :class:`ExecutionContext` — a private cost meter
plus budget and deadline — and operators charge the context, not a
shared clock.  Session- or engine-wide clocks participate only as
*observers*: every charge is forwarded to them, so they aggregate
total spend without ever being read for per-query budget arithmetic.
Two in-flight queries therefore cannot corrupt each other's bounds,
which is what makes the multi-session server layer
(:mod:`repro.core.server`) possible.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence, Tuple, Union


class CostClock:
    """A deterministic clock that advances only when told to.

    Operators charge the clock once per tuple (or per vectorised batch)
    they touch.  Tests and benchmarks read :attr:`now` to get exact,
    platform-independent cost figures.  Charges are serialised with a
    lock so the clock stays exact when it aggregates charges forwarded
    from concurrently running execution contexts.
    """

    def __init__(self) -> None:
        self._ticks = 0.0
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        """Total cost units charged so far."""
        return self._ticks

    def charge(self, units: float) -> None:
        """Advance the clock by ``units`` (must be non-negative)."""
        if units < 0:
            raise ValueError(f"cannot charge negative cost: {units}")
        with self._lock:
            self._ticks += units

    def reset(self) -> None:
        """Rewind to zero; used between benchmark repetitions."""
        with self._lock:
            self._ticks = 0.0


class WallClock:
    """Wall-clock adapter with the same read interface as CostClock.

    ``charge`` is a no-op because real time advances on its own.  Useful
    for the examples that demonstrate "give me the best answer within
    half a second" against the real interpreter.
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()

    @property
    def now(self) -> float:
        """Seconds elapsed since construction (or last reset)."""
        return time.perf_counter() - self._start

    def charge(self, units: float) -> None:
        """Accept and ignore explicit charges; time passes regardless."""

    def reset(self) -> None:
        """Restart the elapsed-time measurement."""
        self._start = time.perf_counter()


AnyClock = Union[CostClock, WallClock]


class ExecutionContext:
    """Per-execution cost meter + budget + deadline.

    One context is opened per query execution and passed down the
    whole operator path (executor, estimator, bounded processor), so
    ``spent`` is exactly this execution's own cost — never polluted by
    other in-flight queries.

    Parameters
    ----------
    clock:
        The clock that decides the accounting mode.  A
        :class:`WallClock` makes the context measure elapsed real
        seconds from its opening; a :class:`CostClock` (or ``None``)
        gives the context a private deterministic meter and enrolls
        the given clock as an observer.
    limit:
        Spending cap in the meter's units (cost units, or seconds for
        wall mode); ``None`` means unbounded.
    observers:
        Additional clocks to forward every charge to — e.g. a
        session's aggregate clock plus the engine's global clock.
        Observers are write-only from the context's point of view.
    shared_scans:
        Whether this execution's scans may enrol in a shared-scan
        convoy (:mod:`repro.core.scheduler`).  Per-execution because
        enrolment is a per-user choice (sessions opt out wholesale);
        sharing never changes results or charges, only wall-clock.
    """

    def __init__(
        self,
        clock: Optional[AnyClock] = None,
        limit: Optional[float] = None,
        observers: Sequence[AnyClock] = (),
        shared_scans: bool = True,
    ) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"context limit must be non-negative, got {limit}")
        self.limit = limit
        self.shared_scans = shared_scans
        self._wall = clock if isinstance(clock, WallClock) else None
        self._ticks = 0.0
        self._charged = 0.0
        self._shared = 0.0
        forwarded = []
        if clock is not None and self._wall is None:
            forwarded.append(clock)
        forwarded.extend(observers)
        self._observers: Tuple[AnyClock, ...] = tuple(forwarded)
        self._opened_at = self._wall.now if self._wall is not None else 0.0

    # ------------------------------------------------------------------
    @property
    def is_wall(self) -> bool:
        """Whether this context measures real seconds, not cost units."""
        return self._wall is not None

    @property
    def spent(self) -> float:
        """Cost charged to *this* execution (or seconds elapsed)."""
        if self._wall is not None:
            return self._wall.now - self._opened_at
        return self._ticks

    @property
    def charged_units(self) -> float:
        """Deterministic units (tuples touched) charged to this context.

        Identical to :attr:`spent` in cost mode; in wall mode it keeps
        counting the forwarded tuple charges even though the meter
        itself measures seconds — which is what lets wall-mode callers
        (e.g. throughput calibration) know the work actually done, not
        just the work predicted.
        """
        return self._charged

    @property
    def shared_units(self) -> float:
        """Charged units whose work another query's scan performed.

        A scan served by the executor's selection cache, or by an equal
        predicate's evaluation in a shared-scan convoy, is charged its
        full solo cost (accounting honesty) while spending almost no
        wall time on it.  Wall-mode throughput calibration
        must exclude these units — ``charged_units - shared_units`` is
        the work this execution actually performed — or one shared
        serve would record a near-infinite tuples/sec rate and break
        every later time-budget conversion.
        """
        return self._shared

    def note_shared(self, units: float) -> None:
        """Record that ``units`` of this context's charges were shared."""
        if units < 0:
            raise ValueError(f"cannot note negative shared units: {units}")
        self._shared += units

    @property
    def remaining(self) -> float:
        """Budget left; ``inf`` when the context is unbounded."""
        if self.limit is None:
            return float("inf")
        return max(0.0, self.limit - self.spent)

    @property
    def deadline(self) -> Optional[float]:
        """The meter reading at which the budget expires (None: never).

        For wall mode this is an absolute reading of the underlying
        wall clock; for cost mode it equals ``limit`` on the private
        meter.
        """
        if self.limit is None:
            return None
        return self._opened_at + self.limit

    def affords(self, units: float) -> bool:
        """Whether ``units`` more cost would still fit in the budget."""
        return units <= self.remaining

    def charge(self, units: float) -> None:
        """Charge this execution and forward to all observer clocks.

        In wall mode the private meter is real time (the charge does
        not move it), but the forwarded units still let deterministic
        observer clocks aggregate tuples-touched across executions.
        """
        if units < 0:
            raise ValueError(f"cannot charge negative cost: {units}")
        self._charged += units
        if self._wall is None:
            self._ticks += units
        for observer in self._observers:
            observer.charge(units)

    def __repr__(self) -> str:
        mode = "wall" if self.is_wall else "cost"
        cap = "∞" if self.limit is None else f"{self.limit:g}"
        return (
            f"ExecutionContext({mode}, spent={self.spent:g}, limit={cap}, "
            f"observers={len(self._observers)})"
        )
