"""Intermediate-result recycler (Ivanova et al., SIGMOD 2009, ref [13]).

MonetDB's recycler caches operator intermediates and reuses them when a
later query contains the same sub-plan.  The paper leans on it twice:
it "already facilitates" keeping the tuples a workload touched
(paper §3.3), and its existence is why re-routing running queries
between impressions is practical (§3.2).

The reproduction caches *selection index vectors* keyed by
``(table name, table version, predicate fingerprint)``.  Keying on the
version makes invalidation free: an append bumps the version, and stale
entries simply stop matching (and age out by LRU).

Tiering does *not* bump the version, so each entry also remembers
whether its predicate was evaluated over quantised (warm) blocks
(:func:`reads_lossy_values`).  Such an entry keeps serving scans that
would read lossy values themselves, and is refused once the predicate's
columns are exact again — an exact answer never reuses a lossy
evaluation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.columnstore.expressions import Expression
from repro.columnstore.table import Table

_Key = Tuple[str, int, str]


def reads_lossy_values(table: Table, predicate: Expression) -> bool:
    """Whether evaluating ``predicate`` over ``table`` right now would
    read dequantised values (any of its columns holds a warm block or
    inherited a value-error bound from a lossy source)."""
    return any(
        table.column(name).max_value_error() > 0.0
        for name in predicate.columns()
        if table.has_column(name)
    )


@dataclass
class RecyclerStats:
    """Hit/miss counters, exposed for the recycler benchmark (E11)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stored: int = 0
    rejected: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Recycler:
    """An LRU cache of selection results with a byte budget.

    Parameters
    ----------
    capacity_bytes:
        Upper bound on the summed size of cached index vectors.  The
        default (16 MiB) holds thousands of cone-search selections.
    """

    def __init__(self, capacity_bytes: int = 16 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        #: key -> (indices, evaluated over lossy values?)
        self._entries: "OrderedDict[_Key, Tuple[np.ndarray, bool]]" = OrderedDict()
        self._bytes = 0
        self.stats = RecyclerStats()
        # One recycler is shared by every session of a server; lookups
        # mutate LRU order and stats, so all access is serialised.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _key(self, table: Table, predicate: Expression) -> _Key:
        return (table.name, table.version, predicate.fingerprint())

    def lookup(self, table: Table, predicate: Expression) -> Optional[np.ndarray]:
        """Return cached selection indices, or None on a miss.

        A hit refreshes the entry's LRU position.  An entry evaluated
        over lossy values is a miss once the predicate's columns are
        exact again (the store-back after the rescan replaces it).
        """
        key = self._key(table, predicate)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (
                entry[1] and not reads_lossy_values(table, predicate)
            ):
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def peek(self, table: Table, predicate: Expression) -> Optional[np.ndarray]:
        """Read a cached entry without touching stats or LRU order.

        Internal plumbing (e.g. feeding the ICICLES reservoir the rows
        a query just touched) uses this so bookkeeping reflects only
        real query traffic.
        """
        with self._lock:
            entry = self._entries.get(self._key(table, predicate))
            return None if entry is None else entry[0]

    def store(self, table: Table, predicate: Expression, indices: np.ndarray) -> None:
        """Cache selection indices, evicting LRU entries to fit."""
        indices = np.asarray(indices)
        if indices.nbytes > self.capacity_bytes:
            # Would evict everything and still not fit.  Count it:
            # a silently dropped entry looks identical to a stored one
            # from the caller's side, so capacity misconfiguration was
            # previously invisible in the stats.
            with self._lock:
                self.stats.rejected += 1
            return
        key = self._key(table, predicate)
        lossy = reads_lossy_values(table, predicate)
        with self._lock:
            if key in self._entries:
                self._bytes -= self._entries.pop(key)[0].nbytes
            while (
                self._bytes + indices.nbytes > self.capacity_bytes
                and self._entries
            ):
                _, (evicted, _) = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.stats.evictions += 1
            self._entries[key] = (indices, lossy)
            self._bytes += indices.nbytes
            self.stats.stored += 1

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes currently cached."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
