"""The selection cache: intermediate-result recycling (Ivanova et al.,
SIGMOD 2009, ref [13]).

MonetDB's recycler caches operator intermediates and reuses them when a
later query contains the same sub-plan.  The paper leans on it twice:
it "already facilitates" keeping the tuples a workload touched
(paper §3.3), and its existence is why re-routing running queries
between impressions is practical (§3.2).

The reproduction caches *selections*: the index vector and the solo
:class:`~repro.columnstore.operators.OperatorStats` of one scan, keyed
by ``(table object, table version, predicate fingerprint)``.  It is the
one cache of the scan path —
:meth:`~repro.columnstore.executor.Executor.select_indices` consults it
for every scan, of base tables and of impression, delta and complement
tables alike.

* **The live object is the key.**  Deltas and complements reuse names
  and versions across sampler generations, but each generation is a new
  object, so a stale entry can never match.  The entry holds a weak
  reference to its table, so a later object that happens to get the
  same ``id()`` never hits either.
* **The version invalidates.**  An append bumps it; stale entries stop
  matching.
* **Dead generations leave at once.**  Nothing can serve an entry whose
  table was collected or moved on to a new version, so such entries do
  not wait for LRU: they are swept at the next call after a table dies,
  and at the next store of a table whose version moved.
* **The lossy tag is taken before the scan.**  Tiering bumps no version,
  so each entry remembers which quantised (warm) values its scan read
  (:func:`lossy_reads`), and serves only a scan that would read the
  same: an exact scan never reuses a lossy evaluation, and no scan
  reuses one made before the governor moved a block it reads.  A *raw*
  scan — an exact contract's, which reads warm blocks' raw bytes from
  the spill — reads no quantised value, so its tag is ``()``.  The
  caller takes the tag before evaluating, because blocks are promoted
  while readers run: a tag taken after would pass a lossy evaluation
  off as exact.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.columnstore.expressions import Expression
from repro.columnstore.operators import OperatorStats
from repro.columnstore.table import Table


def lossy_reads(table: Table, predicate: Expression) -> tuple:
    """What evaluating ``predicate`` over ``table`` right now would read
    dequantised — from a warm block, or a column that inherited a value
    error from a lossy source: ``(column, Column.lossy_state())`` for
    each predicate column that has any, ``()`` (falsy) when every value
    read is exact.  Equal tags read equal values."""
    tag = []
    for name in predicate.columns():
        if table.has_column(name):
            state = table.column(name).lossy_state()
            if state:
                tag.append((name, state))
    return tuple(tag)


@dataclass
class RecyclerStats:
    """Hit/miss counters of the selection cache."""

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


class _Entry(NamedTuple):
    ref: "weakref.ref[Table]"
    indices: np.ndarray
    stats: OperatorStats
    lossy: tuple


class Recycler:
    """An LRU cache of selections with a byte budget.

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
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._bytes = 0
        #: ``id(table)`` → the version its entries were stored at
        self._versions: dict = {}
        #: entries' weak references whose table died (appended by their
        #: callbacks, from whichever thread the table dies in)
        self._dead: list = []
        self.stats = RecyclerStats()
        # One recycler is shared by every session of a server; lookups
        # mutate LRU order and stats, so all access is serialised.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @staticmethod
    def _key(table: Table, predicate: Expression) -> tuple:
        return (id(table), table.version, predicate.fingerprint())

    def _sweep(self) -> None:
        """Drop every entry whose table was collected or has moved on
        to a new version (under the lock)."""
        del self._dead[:]
        for key, entry in list(self._entries.items()):
            table = entry.ref()
            if table is None or table.version != key[1]:
                self._bytes -= self._entries.pop(key).indices.nbytes
        self._versions = {key[0]: key[1] for key in self._entries}

    def _serve(
        self, table: Table, predicate: Expression, lossy: tuple
    ) -> Optional[Tuple[np.ndarray, OperatorStats]]:
        """The selection serving this scan, LRU-refreshed (under the
        lock).  The entry must be this very table's: a dead table's
        ``id()``, reused, finds nothing."""
        if self._dead:
            self._sweep()
        key = self._key(table, predicate)
        entry = self._entries.get(key)
        if entry is None or entry.ref() is not table or entry.lossy != lossy:
            return None
        self._entries.move_to_end(key)
        return entry.indices, entry.stats

    def lookup(
        self, table: Table, predicate: Expression, lossy: tuple
    ) -> Optional[Tuple[np.ndarray, OperatorStats]]:
        """The cached ``(indices, stats)`` of this scan, or None on a miss.

        ``lossy`` is :func:`lossy_reads` of the scan asking: an entry
        whose tag differs is a miss (the store-back after the rescan
        replaces it).  A hit refreshes the entry's LRU position.
        """
        with self._lock:
            hit = self._serve(table, predicate, lossy)
            if hit is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return hit

    def recheck(
        self, table: Table, predicate: Expression, lossy: tuple
    ) -> Optional[Tuple[np.ndarray, OperatorStats]]:
        """A second look for a scan whose :meth:`lookup` missed.

        The shared-scan scheduler asks again when the scan leads its
        pass: a twin's pass may have stored the selection while it
        queued.  A hit turns the scan's miss into a hit, so every scan
        still counts once in :attr:`stats`; a miss counts nothing.
        """
        with self._lock:
            hit = self._serve(table, predicate, lossy)
            if hit is not None:
                self.stats.misses -= 1
                self.stats.hits += 1
            return hit

    def store(
        self,
        table: Table,
        predicate: Expression,
        indices: np.ndarray,
        stats: OperatorStats,
        lossy: tuple,
    ) -> None:
        """Cache one scan's selection, evicting LRU entries to fit.

        ``lossy`` is the :func:`lossy_reads` tag the caller took
        *before* the scan ran.
        """
        if indices.nbytes > self.capacity_bytes:
            # would evict everything and still not fit: count it, or
            # capacity misconfiguration is invisible in the stats
            with self._lock:
                self.stats.rejected += 1
            return
        key = self._key(table, predicate)
        with self._lock:
            moved = self._versions.get(id(table), table.version) != table.version
            if moved or self._dead:
                self._sweep()
            self._versions[id(table)] = table.version
            if key in self._entries:
                self._bytes -= self._entries.pop(key).indices.nbytes
            while self._bytes + indices.nbytes > self.capacity_bytes:
                self._bytes -= self._entries.popitem(last=False)[1].indices.nbytes
                self.stats.evictions += 1
            ref = weakref.ref(table, self._dead.append)
            self._entries[key] = _Entry(ref, indices, stats, lossy)
            self._bytes += indices.nbytes
            self.stats.stored += 1

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes currently cached."""
        with self._lock:
            if self._dead:
                self._sweep()
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            if self._dead:
                self._sweep()
            return len(self._entries)

