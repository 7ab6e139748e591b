"""Impressions: the paper's central artefact.

"Impressions are of different size, ranging from a few kilobytes to
many gigabytes.  Depending on their size, an impression fits either in
the CPU cache, or the main memory of a workstation, or resides on the
disk of a laptop or even a cluster" (paper §3).  An
:class:`Impression` wraps a sampler (which owns the statistical
behaviour) with identity, layer position, optional column subset
(paper §3.1 "Correlations"), and cached materialisation as a
queryable :class:`~repro.columnstore.table.Table`.

The materialised table always carries a hidden ``_pi`` column holding
each row's inclusion probability so that downstream operators (joins,
selections) transport the estimation metadata for free, and
:mod:`repro.core.quality` can compute Horvitz–Thompson estimates from
any operator output.

Invalidation costs what the next query reads
--------------------------------------------
Every ingest moves the base table's version and the samplers' progress,
so every cached table here goes stale several times a second under
load.  Two rules keep that cheap (paper §3.3: impressions stay current
"with little overhead during the load phase"):

* **Column-lazy tables.**  :meth:`Impression.materialise`,
  :meth:`~Impression.materialise_delta` and
  :meth:`~Impression.materialise_complement` all return a
  :class:`~repro.columnstore.table.DerivedTable` over ``(base, row
  ids)``: building one gathers nothing but ``_pi``, and a scan gathers
  the columns it reads on first touch.  **Accounting never gathers** —
  :meth:`Impression.memory_bytes`, ``engine.memory_report()`` and the
  memory governor see resident columns only.
* **Incremental row-id bookkeeping.**  An ingest replaces a few percent
  of a reservoir's slots, so the sorted row-id index is *patched* with
  the slots that changed (:func:`_patched_sort`) instead of re-sorted,
  and deltas and complements are read off the sorted ids with a mask.
"""

from __future__ import annotations

import threading
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.columnstore.column import Column
from repro.columnstore.query import Query
from repro.columnstore.table import DerivedTable, Table
from repro.errors import ImpressionError

#: Name of the hidden inclusion-probability column.
PI_COLUMN = "_pi"


class SamplerProtocol(Protocol):
    """What an impression needs from its sampler."""

    capacity: int

    @property
    def row_ids(self) -> np.ndarray: ...

    @property
    def seen(self) -> int: ...

    @property
    def size(self) -> int: ...

    def inclusion_probabilities(self) -> np.ndarray: ...


class Impression:
    """A named sample of one base table, at one layer of a hierarchy.

    Parameters
    ----------
    name:
        Unique name, e.g. ``"PhotoObjAll/biased/L2"``.
    base_table:
        Name of the table this impression samples.
    sampler:
        Any sampler satisfying :class:`SamplerProtocol`.
    layer:
        Position in its hierarchy; 0 is the most detailed (largest).
    columns:
        Optional column subset to materialise ("may contain a subset
        of the attributes of a table", §3.1).  ``None`` keeps all.
    """

    def __init__(
        self,
        name: str,
        base_table: str,
        sampler: SamplerProtocol,
        layer: int = 0,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        if not name:
            raise ImpressionError("impression name must be non-empty")
        if layer < 0:
            raise ImpressionError(f"layer must be non-negative, got {layer}")
        self.name = name
        self.base_table = base_table
        self.sampler = sampler
        self.layer = layer
        self.columns = tuple(columns) if columns is not None else None
        self._cached: Optional[Table] = None
        self._cache_key: Optional[tuple] = None
        self._pi_override: Optional[np.ndarray] = None
        # Concurrent readers (server sessions) may race to materialise;
        # the lock makes the cache fill exactly once per version.
        self._materialise_lock = threading.Lock()
        # Delta-escalation caches: sorted row-id index, per-predecessor
        # delta row ids/materialisations, and the base-complement rows.
        # All keys embed the samplers' progress so reservoir churn
        # invalidates them for free, and a generation that
        # ``_invalidate`` moves: a refresh re-arms the sampler and can
        # land on the same (seen, size) with other rows, which the
        # caches *other* impressions key on this one must notice too.
        # The sorted index is ``(key, row_ids, sorted_ids, order)``; a
        # stale one is kept as the starting point of the next patch.
        self._generation = 0
        self._sorted_ids: Optional[tuple] = None
        self._delta_ids: dict = {}
        self._delta_tables: dict = {}
        self._complement: Optional[tuple] = None

    # ------------------------------------------------------------------
    # statistical metadata
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """n — the impression's slot count."""
        return self.sampler.capacity

    @property
    def size(self) -> int:
        """Tuples currently held (< capacity only during first fill)."""
        return self.sampler.size

    @property
    def row_ids(self) -> np.ndarray:
        """Base-table row ids of the current contents."""
        return self.sampler.row_ids

    def inclusion_probabilities(self) -> np.ndarray:
        """π per held tuple, relative to the *base* table.

        When the impression was refreshed from a larger impression
        (see :mod:`repro.core.maintenance`), the stored override
        already composes both sampling stages.
        """
        if self._pi_override is not None:
            return self._pi_override.copy()
        return self.sampler.inclusion_probabilities()

    def set_inclusion_override(self, pis: Optional[np.ndarray]) -> None:
        """Install composed πs after a refresh-from-below (or clear)."""
        if pis is not None:
            pis = np.asarray(pis, dtype=float)
            if pis.shape[0] != self.size:
                raise ImpressionError(
                    f"override length {pis.shape[0]} does not match "
                    f"impression size {self.size}"
                )
        self._pi_override = pis
        self._invalidate()

    def add_columns(self, names: Sequence[str]) -> None:
        """Widen a column-subset impression ("If the need rises, more
        columns can be added", paper §3.1).

        No-op for full-column impressions and for already-present
        names; the cached materialisation is invalidated so the next
        query sees the wider table.
        """
        if self.columns is None:
            return
        additions = [n for n in names if n not in self.columns]
        if not additions:
            return
        self.columns = tuple(self.columns) + tuple(additions)
        self._invalidate()

    # ------------------------------------------------------------------
    # query support
    # ------------------------------------------------------------------
    def covers(self, query: Query, base: Table) -> bool:
        """Whether this impression holds every column the query reads.

        A full-column impression covers everything its base table
        does; a column-subset impression only covers queries confined
        to that subset.
        """
        if query.table != self.base_table:
            return False
        available = (
            set(self.columns) if self.columns is not None else set(base.column_names)
        )
        return query.columns_read() <= available

    def _derived(
        self,
        base: Table,
        name: str,
        row_ids: np.ndarray,
        pis: Optional[np.ndarray] = None,
    ) -> DerivedTable:
        """``row_ids`` of ``base`` restricted to this impression's
        column subset, carrying ``pis`` as the hidden ``_pi`` column."""
        names = list(self.columns) if self.columns is not None else base.column_names
        resident = [] if pis is None else [Column(PI_COLUMN, np.float64, pis)]
        return DerivedTable(name, base, row_ids, names, resident)

    def materialise(self, base: Table) -> Table:
        """The impression as a queryable table (cached, column-lazy).

        One table per cache key, which covers both the base table's
        version (appends shift nothing — row ids are stable — but a
        regrown column's buffers may move) and the sampler's progress.
        Only ``_pi`` is built here; see the module docstring.
        """
        with self._materialise_lock:
            key = (base.version, self._progress_key())
            if self._cached is not None and self._cache_key == key:
                return self._cached
            row_ids = self.row_ids
            if row_ids.size and row_ids.max() >= base.num_rows:
                raise ImpressionError(
                    f"impression {self.name!r} references row "
                    f"{int(row_ids.max())} beyond base table "
                    f"{base.name!r} ({base.num_rows} rows)"
                )
            self._cached = self._derived(
                base,
                f"{base.name}§{self.name}",
                row_ids,
                self.inclusion_probabilities(),
            )
            self._cache_key = key
            return self._cached

    def _invalidate(self) -> None:
        self._generation += 1
        self._cached = None
        self._cache_key = None
        self._delta_ids = {}
        self._delta_tables = {}
        self._complement = None

    # ------------------------------------------------------------------
    # delta escalation ("each less detailed impression is derived from
    # a previous more detailed one", paper §3.1)
    # ------------------------------------------------------------------
    #: Entries kept per delta cache — ladders are short, but a rung may
    #: be asked to delta against different predecessors when budgets
    #: skip intermediate layers, so a single slot would thrash.
    _DELTA_CACHE_ENTRIES = 8

    def _progress_key(self) -> tuple:
        """Cache-key component tracking this impression's contents."""
        return (self._generation, self.sampler.seen, self.size)

    @classmethod
    def _cache_put(cls, cache: dict, key, value) -> None:
        """Insert with FIFO eviction at the per-cache entry bound.

        Callers hold ``_materialise_lock``; the defensive pop keeps a
        racing eviction (should the lock discipline ever slip) from
        escalating a cache miss into a query-killing KeyError.
        """
        while len(cache) >= cls._DELTA_CACHE_ENTRIES:
            try:
                cache.pop(next(iter(cache)), None)
            except (RuntimeError, StopIteration):
                break
        cache[key] = value

    def _sorted_row_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_ids, argsort)`` of the current contents, cached.

        Reads the cache slot exactly once, so a concurrent writer costs
        at worst a redundant recompute.  A stale entry is patched, not
        thrown away — see :func:`_patched_sort`.
        """
        key = self._progress_key()
        cached = self._sorted_ids
        if cached is None or cached[0] != key:
            row_ids = self.row_ids
            previous = None if cached is None else cached[1:]
            cached = (key, row_ids) + _patched_sort(row_ids, previous)
            self._sorted_ids = cached
        return cached[2], cached[3]

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Positions (reservoir slots) of the given base row ids.

        Every id must be held by this impression; use
        :meth:`delta_row_ids` to establish containment first.
        """
        sorted_ids, order = self._sorted_row_ids()
        row_ids = np.asarray(row_ids, dtype=np.int64)
        slots = np.searchsorted(sorted_ids, row_ids)
        if row_ids.size and (
            slots.max(initial=0) >= sorted_ids.size
            or not np.array_equal(sorted_ids[slots], row_ids)
        ):
            raise ImpressionError(
                f"impression {self.name!r} does not hold all requested rows"
            )
        return order[slots]

    def delta_row_ids(self, prev: "Impression") -> Optional[np.ndarray]:
        """Rows this impression adds over ``prev``, sorted ascending.

        Returns ``None`` when ``prev`` is **not nested** inside this
        impression (independent reservoirs, partial overlap) — the
        caller must then fall back to a from-scratch scan.  Cached per
        predecessor until either sampler makes progress.
        """
        key = (self._progress_key(), prev.name, prev._progress_key())
        cache = self._delta_ids
        with self._materialise_lock:
            if key in cache:
                return cache[key]
        mine, _ = self._sorted_row_ids()
        theirs, _ = prev._sorted_row_ids()
        slots = np.searchsorted(mine, theirs)
        nested = bool(
            theirs.size == 0
            or (
                slots.max(initial=0) < mine.size
                and np.array_equal(mine[slots], theirs)
            )
        )
        delta = None
        if nested:
            added = np.ones(mine.shape[0], dtype=bool)
            added[slots] = False
            delta = mine[added]
        with self._materialise_lock:
            self._cache_put(cache, key, delta)
        return delta

    def materialise_delta(
        self, base: Table, prev: "Impression"
    ) -> Optional[tuple[np.ndarray, Table]]:
        """The rows this impression adds over ``prev``, as a table.

        Returns ``(delta_row_ids, table)`` — one atomic pair, so a
        caller can never mix ids from one sampler state with a table
        built from another.  The table is shaped exactly like
        :meth:`materialise` (same columns, hidden ``_pi`` carrying
        *this* impression's inclusion probabilities) but holds only
        the delta rows, so a scan of it charges the escalation ladder
        for nothing it already paid.  ``None`` when the two
        impressions are not nested.
        """
        key = (
            base.version,
            self._progress_key(),
            prev.name,
            prev._progress_key(),
        )
        cache = self._delta_tables
        with self._materialise_lock:
            cached = cache.get(key)
        if cached is not None:
            return cached
        delta = self.delta_row_ids(prev)
        if delta is None:
            return None
        pis = self.inclusion_probabilities()[self.positions_of(delta)]
        table = self._derived(
            base, f"{base.name}§{self.name}Δ{prev.name}", delta, pis
        )
        pair = (delta, table)
        with self._materialise_lock:
            self._cache_put(cache, key, pair)
        return pair

    def complement_row_ids(self, base: Table) -> np.ndarray:
        """Base rows this impression has *not* sampled, ascending.

        This is the final rung of a delta ladder: the exact base-table
        answer only needs "base minus the largest impression already
        consumed".
        """
        key = (base.version, base.num_rows, self._progress_key())
        cached = self._complement
        if cached is None or cached[0] != key:
            mine, _ = self._sorted_row_ids()
            unsampled = np.ones(base.num_rows, dtype=bool)
            unsampled[mine] = False
            ids = np.flatnonzero(unsampled)
            cached = (key, ids, None)
            self._complement = cached
        return cached[1]

    def materialise_complement(self, base: Table) -> tuple[np.ndarray, Table]:
        """The unsampled base rows as ``(row_ids, table)`` (no ``_pi``).

        Returned as one atomic pair like :meth:`materialise_delta`,
        and restricted to this impression's column subset — any query
        whose ladder consumed this impression is confined to those
        columns anyway.  Built lazily: cost *prediction* for the base
        rung never calls this (it only needs the complement's
        cardinality), so considering an unaffordable exact rung
        materialises nothing.
        """
        key = (base.version, base.num_rows, self._progress_key())
        with self._materialise_lock:
            cached = self._complement
        if cached is not None and cached[0] == key and cached[2] is not None:
            return cached[1], cached[2]
        ids = self.complement_row_ids(base)
        table = self._derived(base, f"{base.name}∖{self.name}", ids)
        with self._materialise_lock:
            self._complement = (key, ids, table)
        return ids, table

    # ------------------------------------------------------------------
    def cached_table(self) -> Optional[Table]:
        """The currently-materialised payload table, or ``None``.

        The memory governor demotes impression payload blocks through
        this handle exactly like catalog-table blocks; a ``None``
        (nothing materialised) costs nothing and governs nothing.
        """
        return self._cached

    def memory_bytes(self, base: Table) -> int:
        """RAM footprint of the materialised impression.

        The resident columns of the live table — ``_pi`` plus whatever
        scans have gathered so far — tier-aware: demoted blocks report
        their compressed (warm) or zero (cold) RAM cost.  With no live
        table it is the ``_pi`` column a fresh one would start with.
        Either way nothing is gathered: sizing decisions never force a
        column (``base`` is part of the signature, not of the answer).
        """
        cached = self._cached
        if cached is not None:
            return int(cached.nbytes())
        return int(np.dtype(np.float64).itemsize * self.size)

    def __repr__(self) -> str:
        return (
            f"Impression({self.name!r}, base={self.base_table!r}, "
            f"layer={self.layer}, size={self.size}/{self.capacity})"
        )


def _patched_sort(
    row_ids: np.ndarray, previous: Optional[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """``(row_ids[order], order)`` for ``order = argsort(row_ids,
    kind="stable")``, patched from ``previous`` where that is cheaper.

    ``previous`` is ``(row_ids, sorted_ids, order)`` of an earlier
    state of the same reservoir (or ``None``).  Sampler churn replaces
    a few slots in place, so the slots whose id changed are found by
    comparison, dropped from the previous index, sorted among
    themselves and merged back in — O(n + k log k) against the
    argsort's O(n log n).  Falls back to the full sort when the size
    changed or more than a quarter of the slots moved.  Row ids are
    distinct (a reservoir holds a base row at most once), so a merge by
    id is the stable order.
    """

    def full() -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(row_ids, kind="stable")
        return row_ids[order], order

    if previous is None:
        return full()
    old_ids, old_sorted, old_order = previous
    size = row_ids.shape[0]
    if old_ids.shape[0] != size:
        return full()
    changed = np.flatnonzero(row_ids != old_ids)
    if changed.size == 0:
        return old_sorted, old_order
    if changed.size * 4 > size:
        return full()
    moved = np.zeros(size, dtype=bool)
    moved[changed] = True
    kept = ~moved[old_order]
    kept_ids, kept_order = old_sorted[kept], old_order[kept]
    by_id = np.argsort(row_ids[changed], kind="stable")
    new_ids, new_slots = row_ids[changed][by_id], changed[by_id]
    at = np.searchsorted(kept_ids, new_ids)
    return np.insert(kept_ids, at, new_ids), np.insert(kept_order, at, new_slots)
