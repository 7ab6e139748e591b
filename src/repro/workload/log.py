"""The query log.

SkyServer's "publicly accessible query logs provide a basis to derive
areas of interest" (paper §2.1).  Our log records every query the
engine executes together with a monotone sequence number, so interest
models and drift detectors can be (re)built over any window — "a query
workload ... is defined over a period of time or over a predefined
number of queries" (§4).

Entries are recorded at *submission* (the workload model sees intent)
and — for executions the engine settles — enriched at *completion*
with a :class:`QueryOutcome`: tuples charged, rungs climbed, achieved
error, wall seconds, session id — the one record of what each query
did.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from repro.columnstore.query import Query


@dataclass(frozen=True)
class QueryOutcome:
    """What one logged query's execution actually did, at settle time."""

    #: Cost units this execution charged (tuples touched / wall secs).
    tuples_charged: float
    #: Ladder rungs executed (1 = answered on the first attempt).
    rungs_climbed: int
    #: Worst relative error of the returned answer (inf: unanswered).
    achieved_error: float
    #: Wall-clock seconds from submission to settlement.
    wall_seconds: float
    #: Owning server session, when the server drove the execution.
    session_id: Optional[int] = None


@dataclass(frozen=True)
class QueryLogEntry:
    """One logged query with its position in the stream.

    ``outcome`` is ``None`` until (unless) the execution settles —
    the original two-field construction keeps working.
    """

    sequence: int
    query: Query
    outcome: Optional[QueryOutcome] = None

    @property
    def fingerprint(self) -> str:
        """The query's canonical identity string."""
        return self.query.fingerprint()

    @property
    def settled(self) -> bool:
        """Whether outcome metadata was recorded for this entry."""
        return self.outcome is not None


class QueryLog:
    """An append-only, optionally bounded record of executed queries.

    Parameters
    ----------
    max_entries:
        If given, only the most recent ``max_entries`` are retained
        (the log is a workload *window*, not an archive).
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: list[QueryLogEntry] = []
        self._next_sequence = 0
        # concurrent submits can log into one session's log from
        # several pool threads at once; sequence numbers must stay unique.
        self._lock = threading.Lock()

    def record(self, query: Query) -> QueryLogEntry:
        """Append a query; returns its log entry."""
        with self._lock:
            entry = QueryLogEntry(self._next_sequence, query)
            self._next_sequence += 1
            self._entries.append(entry)
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                del self._entries[: len(self._entries) - self.max_entries]
            return entry

    def settle(
        self, sequence: int, outcome: QueryOutcome
    ) -> Optional[QueryLogEntry]:
        """Attach outcome metadata to the entry with ``sequence``.

        Returns the settled entry, or ``None`` when the window already
        evicted it (a completion racing a busy bounded log is normal,
        not an error).  Settling twice keeps the first outcome — a
        cancelled handle and its drain both finalise exactly once, but
        the log defends itself anyway.
        """
        with self._lock:
            offset = sequence - (self._next_sequence - len(self._entries))
            if offset < 0 or offset >= len(self._entries):
                return None
            entry = self._entries[offset]
            if entry.sequence != sequence:  # pragma: no cover - invariant
                return None
            if entry.outcome is not None:
                return entry
            settled = replace(entry, outcome=outcome)
            self._entries[offset] = settled
            return settled

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QueryLogEntry]:
        return iter(self._entries)

    def snapshot(self) -> Sequence[QueryLogEntry]:
        """A consistent copy of the current window (lock-protected).

        Plain iteration reads the live list; concurrent readers must
        use this so a racing ``record``/``settle`` never tears the
        walk.
        """
        with self._lock:
            return tuple(self._entries)

    def most_common_fingerprints(self, count: int = 10) -> list[tuple[str, int]]:
        """The most repeated query shapes (workload hot spots)."""
        counter = Counter(entry.fingerprint for entry in self.snapshot())
        return counter.most_common(count)
