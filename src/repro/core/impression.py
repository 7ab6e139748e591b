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
  of a reservoir's slots, so the ordered row index is *patched* with
  the slots that changed (:func:`_index`) instead of re-sorted, and so
  is the base complement (:func:`_complement_patch`); a patched table
  carries the columns its predecessor gathered, reading only the new
  rows from the base.

Rows laid out by interest cell
------------------------------
The paper focuses impressions on the workload's interest attributes
(§4); a scan can only exploit that if the rows of a focal region sit
together.  Every table built here — rung, delta and complement — holds
its rows in (cell, row id) order, where the cell is a Morton code over
the interest attributes (:class:`CellKeys`, keyed once per base row by
the builder from the raw batch), and each
:class:`~repro.columnstore.table.DerivedTable` has a zone grid scaled
to its own size.  A cone then touches the few zones of its cells, and
the zone maps prune the rest of every rung.  The order is a property of
the layout only — estimates depend on it no more than floating-point
summation order does — and callers take a table's row ids from the
table itself, never from a second read of the sampler.
"""

from __future__ import annotations

import threading
from typing import Mapping, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.columnstore.column import Column
from repro.columnstore.query import Query
from repro.columnstore.table import DerivedTable, RowPatch, Table
from repro.errors import ImpressionError

#: Name of the hidden inclusion-probability column.
PI_COLUMN = "_pi"


#: Bits of a composite sort key left for the row id; the cell sits above.
_ID_BITS = 48
_ID_MASK = (1 << _ID_BITS) - 1


class CellKeys:
    """The interest cell of every base row of one table.

    A cell is a uint8 Morton code over the engine's interest attributes
    (paper §4: impressions focus on the attributes the workload asks
    about): each attribute's domain is cut into ``2**bits`` equal
    slices, ``bits = 8 // k`` for ``k`` attributes — 16 × 16 for (ra,
    dec) — and the slice numbers' bits are interleaved, so nearby cells
    get nearby codes.  A value outside its domain falls in the edge
    slice, a NaN in slice 0.

    Keys are computed once per base row, from the raw batch, when the
    impression builder sees the load or ingest (:meth:`observe`); a row
    the builder never saw (loaded before it registered, or appended
    behind the loader's back) has cell 0.  A table none of whose
    columns is an interest attribute — or an impression no builder
    feeds — therefore has one constant cell: the same code, in row-id
    order.  Never reads the base table.
    """

    def __init__(self, domains: Mapping[str, Tuple[float, float]] | None = None):
        self._domains = dict(domains or {})
        self._buffer = np.zeros(0, dtype=np.uint8)
        #: the published keys: a view of the buffer, swapped in whole
        self._known = self._buffer[:0]
        self._lock = threading.Lock()

    @property
    def attributes(self) -> frozenset[str]:
        """The interest attributes the cells are keyed on."""
        return frozenset(self._domains)

    def observe(self, start_row: int, batch: Mapping[str, np.ndarray]) -> None:
        """Key the rows ``start_row...`` of an appended batch."""
        attributes = [a for a in self._domains if a in batch][:8]
        count = (
            np.asarray(next(iter(batch.values()))).shape[0] if batch else 0
        )
        keys = np.zeros(count, dtype=np.uint8)
        if attributes:
            bits = 8 // len(attributes)
            slices = 1 << bits
            for axis, name in enumerate(attributes):
                lo, hi = self._domains[name]
                scaled = (np.asarray(batch[name], dtype=np.float64) - lo) / (hi - lo)
                slot = np.nan_to_num(np.floor(scaled * slices), nan=0.0)
                slot = np.clip(slot, 0, slices - 1).astype(np.uint8)
                for bit in range(bits):
                    keys |= ((slot >> bit) & 1) << (bit * len(attributes) + axis)
        with self._lock:
            known = self._known.shape[0]
            stop = start_row + count
            if stop <= known:
                return  # a row's cell, once keyed, never changes
            if stop > self._buffer.shape[0]:
                grown = np.zeros(max(stop, 2 * self._buffer.shape[0]), np.uint8)
                grown[:known] = self._known
                self._buffer = grown
            # rows between ``known`` and ``start_row`` keep cell 0
            first = max(start_row, known)
            self._buffer[first:stop] = keys[first - start_row :]
            self._known = self._buffer[:stop]

    def of(self, row_ids: np.ndarray) -> np.ndarray:
        """The cells of ``row_ids`` (0 for rows never observed)."""
        known = self._known
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size and row_ids.max() >= known.shape[0]:
            cells = np.zeros(row_ids.shape[0], dtype=np.uint8)
            seen = row_ids < known.shape[0]
            cells[seen] = known[row_ids[seen]]
            return cells
        return known[row_ids]

    def sort_keys(self, row_ids: np.ndarray) -> np.ndarray:
        """Composite int64 keys whose ascending order is (cell, row id)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return (self.of(row_ids).astype(np.int64) << _ID_BITS) | row_ids


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
        # The ordered index is ``(key,) + _Index`` (see :meth:`_ordered`);
        # the last materialised table and its index outlive invalidation
        # as the starting point of the next patch, and so does the
        # complement (its key says whether it is current).
        self._generation = 0
        self._ordered_index: Optional[tuple] = None
        self._previous: Optional[tuple[_Index, DerivedTable]] = None
        self._cells = CellKeys()
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
        """Base-table row ids of the current contents, in sampler slot
        order (a materialised table holds them in (cell, row id) order)."""
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

    @property
    def cells(self) -> CellKeys:
        """The interest cells of the base rows, which lay out every table
        this impression builds (set by the builder that feeds it)."""
        return self._cells

    @cells.setter
    def cells(self, cells: CellKeys) -> None:
        self._cells = cells
        self._ordered_index = self._previous = self._complement = None
        self._invalidate()

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
        resident = None if pis is None else {PI_COLUMN: pis}
        return DerivedTable(name, base, row_ids, names, resident)

    def materialise(self, base: Table) -> Table:
        """The impression as a queryable table (cached, column-lazy).

        One table per cache key, which covers both the base table's
        version (appends shift nothing — row ids are stable — but a
        regrown column's buffers may move) and the sampler's progress.
        Rows are in (cell, row id) order — see :meth:`_ordered` — and
        only ``_pi`` is built here; see the module docstring.  The new
        table is a patch of the previous one: the columns that one had
        gathered carry over (:meth:`DerivedTable.carry_from`), so after
        an ingest only the admitted rows are read from the base.
        """
        with self._materialise_lock:
            progress = self._progress_key()
            key = (base.version, progress)
            if self._cached is not None and self._cache_key == key:
                return self._cached
            previous_index, previous_table = self._previous or (None, None)
            index, patch = _index(self._cells, self.row_ids, previous_index)
            self._ordered_index = (progress,) + index
            row_ids = index.sorted_keys & _ID_MASK
            if row_ids.size and row_ids.max() >= base.num_rows:
                raise ImpressionError(
                    f"impression {self.name!r} references row "
                    f"{int(row_ids.max())} beyond base table "
                    f"{base.name!r} ({base.num_rows} rows)"
                )
            table = self._derived(
                base,
                f"{base.name}§{self.name}",
                row_ids,
                self.inclusion_probabilities()[index.order],
            )
            if patch is not None and previous_table._base is base:
                table.carry_from(previous_table, patch)
            self._cached, self._cache_key = table, key
            self._previous = (index, table)
            return table

    def _invalidate(self) -> None:
        self._generation += 1
        self._cached = None
        self._cache_key = None
        self._delta_ids = {}
        self._delta_tables = {}

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

    def _ordered(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_keys, order)`` of the current contents, cached.

        ``sorted_keys`` are the held rows' (cell, row id) keys
        (:meth:`CellKeys.sort_keys`) ascending — the row order of every
        table this impression builds — and ``order`` the reservoir slot
        of each.  Reads the cache slot exactly once, so a concurrent
        writer costs at worst a redundant recompute.  A stale entry is
        patched, not thrown away — see :func:`_index`.
        """
        key = self._progress_key()
        cached = self._ordered_index
        if cached is None or cached[0] != key:
            previous = None if cached is None else _Index(*cached[1:])
            index, _ = _index(self._cells, self.row_ids, previous)
            cached = (key,) + index
            self._ordered_index = cached
        return cached[3], cached[4]

    def _sort_keys_of(self, other: "Impression") -> np.ndarray:
        """``other``'s rows as ascending keys in *this* impression's order."""
        if other._cells is self._cells:
            return other._ordered()[0]
        return np.sort(self._cells.sort_keys(other.row_ids))

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Positions of the given base row ids in this impression's table
        order (the rows of :meth:`materialise`).

        Every id must be held by this impression; use
        :meth:`delta_row_ids` to establish containment first.
        """
        sorted_keys, _ = self._ordered()
        keys = self._cells.sort_keys(row_ids)
        positions = np.searchsorted(sorted_keys, keys)
        if keys.size and (
            positions.max(initial=0) >= sorted_keys.size
            or not np.array_equal(sorted_keys[positions], keys)
        ):
            raise ImpressionError(
                f"impression {self.name!r} does not hold all requested rows"
            )
        return positions

    def _delta(self, prev: "Impression") -> Optional[tuple[np.ndarray, np.ndarray]]:
        """``(row_ids, slots)`` of the rows this impression adds over
        ``prev``, in table order, or ``None`` when not nested; cached per
        predecessor until either sampler makes progress."""
        key = (self._progress_key(), prev.name, prev._progress_key())
        cache = self._delta_ids
        with self._materialise_lock:
            if key in cache:
                return cache[key]
        mine, order = self._ordered()
        theirs = self._sort_keys_of(prev)
        at = np.searchsorted(mine, theirs)
        nested = bool(
            theirs.size == 0
            or (at.max(initial=0) < mine.size and np.array_equal(mine[at], theirs))
        )
        delta = None
        if nested:
            added = np.ones(mine.shape[0], dtype=bool)
            added[at] = False
            delta = (mine[added] & _ID_MASK, order[added])
        with self._materialise_lock:
            self._cache_put(cache, key, delta)
        return delta

    def delta_row_ids(self, prev: "Impression") -> Optional[np.ndarray]:
        """Rows this impression adds over ``prev``, in table order.

        Returns ``None`` when ``prev`` is **not nested** inside this
        impression (independent reservoirs, partial overlap) — the
        caller must then fall back to a from-scratch scan.  Cached per
        predecessor until either sampler makes progress.
        """
        delta = self._delta(prev)
        return None if delta is None else delta[0]

    def materialise_delta(self, base: Table, prev: "Impression") -> Optional[Table]:
        """The rows this impression adds over ``prev``, as a table.

        Shaped exactly like :meth:`materialise` (same columns, same row
        order, hidden ``_pi`` carrying *this* impression's inclusion
        probabilities) but holding only the delta rows, so a scan of it
        charges the escalation ladder for nothing it already paid.
        Callers take the rows' ids from the table (``row_ids``), never
        from a second read of the samplers.  ``None`` when the two
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
        delta = self._delta(prev)
        if delta is None:
            return None
        row_ids, slots = delta
        table = self._derived(
            base,
            f"{base.name}§{self.name}Δ{prev.name}",
            row_ids,
            self.inclusion_probabilities()[slots],
        )
        with self._materialise_lock:
            self._cache_put(cache, key, table)
        return table

    def materialise_complement(self, base: Table) -> Table:
        """The unsampled base rows as a table (no ``_pi``).

        This is the final rung of a delta ladder: the exact base-table
        answer only needs "base minus the largest impression already
        consumed".  Restricted to this impression's column subset — any
        query whose ladder consumed this impression is confined to those
        columns anyway.  Built lazily: cost *prediction* for the base
        rung never calls this (it only needs the complement's
        cardinality), so considering an unaffordable exact rung
        materialises nothing.

        Patched like :meth:`materialise`: between two complements the
        base only grows and the sampler only swaps slots, so the new
        complement is the old one minus the rows the sampler admitted
        from it, plus the rows it evicted and the new base rows it did
        not admit — found by comparing slots, inserted by key, and the
        gathered columns carry over.  A first build, or one after most
        slots changed, sorts the keys of every unsampled row.
        """
        with self._materialise_lock:
            key = (base.version, base.num_rows, self._progress_key())
            cached = self._complement
            if cached is not None and cached[0] == key:
                return cached[-1]
            slot_ids, num_rows = self.row_ids, base.num_rows
            patch = None
            if cached is not None and cached[-1]._base is base:
                patch = _complement_patch(self._cells, cached, slot_ids, num_rows)
            if patch is None:
                unsampled = np.ones(num_rows, dtype=bool)
                unsampled[slot_ids] = False
                keys = np.sort(self._cells.sort_keys(np.flatnonzero(unsampled)))
                # int32 where it fits: the complement is most of the base
                ids = (keys & _ID_MASK).astype(
                    np.int32 if num_rows < 2**31 else np.int64
                )
                starts = _cell_starts(keys >> _ID_BITS)
            else:
                ids, starts, patch = patch
            table = self._derived(base, f"{base.name}∖{self.name}", ids)
            if patch is not None:
                table.carry_from(cached[-1], patch)
            self._complement = (key, slot_ids, num_rows, starts, table)
            return table

    def cover(self, base: Table) -> Optional[Tuple[DerivedTable, DerivedTable]]:
        """``(table, complement)``: every row of ``base`` exactly once.

        :meth:`materialise` and :meth:`materialise_complement` of one
        sampler state and one base length, each in (cell, row id) order
        on its own zone grid — a partition of the base a scan can prune
        by interest cell.  ``None`` when the two do not fit together (a
        live offer or append landed between the two builds).
        """
        table = self.materialise(base)
        complement = self.materialise_complement(base)
        with self._materialise_lock:
            cached = self._complement
            same_state = (
                self._cached is table
                and cached is not None
                and cached[-1] is complement
                and self._cache_key == (cached[0][0], cached[0][2])
            )
        if not same_state or table.num_rows + complement.num_rows != base.num_rows:
            return None
        return table, complement

    # ------------------------------------------------------------------
    def cached_table(self) -> Optional[Table]:
        """The currently-materialised payload table, or ``None`` —
        for inspecting what is resident without materialising."""
        return self._cached

    def memory_bytes(self, base: Table) -> int:
        """RAM footprint of the materialised impression.

        The resident columns of the live table — ``_pi`` plus whatever
        scans have gathered so far.  With no live table it is the
        ``_pi`` column a fresh one would start with.  Either way nothing
        is gathered: sizing decisions never force a column (``base`` is
        part of the signature, not of the answer).
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


class _Index(NamedTuple):
    """One impression state laid out in (cell, row id) order."""

    #: the sampler's row id per slot
    slot_ids: np.ndarray
    #: :meth:`CellKeys.sort_keys` per slot
    slot_keys: np.ndarray
    #: the slot keys ascending: the table's rows
    sorted_keys: np.ndarray
    #: the slot of each sorted key
    order: np.ndarray


def _index(
    cells: CellKeys, slot_ids: np.ndarray, previous: Optional[_Index]
) -> tuple[_Index, Optional[RowPatch]]:
    """The index of slots ``slot_ids``, patched from ``previous`` where
    that is cheaper, and how its sorted rows patch the previous ones
    (``None`` when sorted from scratch).

    Sampler churn replaces a few slots in place, so the slots whose id
    changed are found by comparison: only their keys are computed, the
    evicted rows are dropped from the previous index, the admitted ones
    sorted among themselves and merged in — O(n + k log k) against the
    argsort's O(n log n).  Falls back to the full sort when the size
    changed or more than a quarter of the slots moved.  Keys are
    distinct (a reservoir holds a base row at most once, and the row id
    is part of the key), so any sort gives the one order, the default
    (unstable) one fastest, and a merge by key is that order too.
    """
    size = slot_ids.shape[0]
    if previous is None or previous.slot_ids.shape[0] != size:
        changed = None
    else:
        changed = np.flatnonzero(slot_ids != previous.slot_ids)
    if changed is None or changed.size * 4 > size:
        slot_keys = cells.sort_keys(slot_ids)
        order = np.argsort(slot_keys)
        return _Index(slot_ids, slot_keys, slot_keys[order], order), None
    slot_keys = previous.slot_keys.copy()
    slot_keys[changed] = cells.sort_keys(slot_ids[changed])
    moved = np.zeros(size, dtype=bool)
    moved[changed] = True
    by_key = np.argsort(slot_keys[changed])
    added_keys, added_slots = slot_keys[changed][by_key], changed[by_key]
    patch = RowPatch.plan(
        size,
        np.flatnonzero(moved[previous.order]),
        np.searchsorted(previous.sorted_keys, added_keys),
    )
    index = _Index(
        slot_ids,
        slot_keys,
        patch.merge(previous.sorted_keys, added_keys),
        patch.merge(previous.order, added_slots),
    )
    return index, patch


def _cell_starts(cells: np.ndarray) -> np.ndarray:
    """Where each of the 256 cells' runs starts in rows ordered by cell
    (ascending ``cells``), and where the last one ends."""
    return np.concatenate(
        [[0], np.cumsum(np.bincount(cells, minlength=256))]
    ).astype(np.int64)


def _cell_positions(
    ids: np.ndarray, starts: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """``np.searchsorted`` positions of ascending sort ``keys`` among
    rows ``ids`` in (cell, row id) order whose cell runs begin at
    ``starts`` — a search within each cell's run, so the rows need no
    key array of their own."""
    cells, query = keys >> _ID_BITS, keys & _ID_MASK
    bounds = np.searchsorted(cells, np.arange(257))
    positions = np.empty(keys.shape[0], dtype=np.int64)
    for cell in np.flatnonzero(bounds[1:] > bounds[:-1]):
        lo, hi = bounds[cell], bounds[cell + 1]
        run = ids[starts[cell] : starts[cell + 1]]
        positions[lo:hi] = starts[cell] + np.searchsorted(run, query[lo:hi])
    return positions


def _complement_patch(
    cells: CellKeys, previous: tuple, slot_ids: np.ndarray, num_rows: int
) -> Optional[tuple[np.ndarray, np.ndarray, RowPatch]]:
    """``(ids, starts, patch)``: the complement of ``slot_ids`` among
    ``num_rows`` base rows in (cell, row id) order, where its cell runs
    start, and how it patches the previous complement — patched from
    ``previous``, a complement cache entry ``(key, slot_ids, num_rows,
    starts, table)`` — or ``None`` when a from-scratch build is cheaper
    (size change, most slots moved).
    """
    _, old_slots, old_rows, old_starts, old_table = previous
    if old_slots.shape[0] != slot_ids.shape[0] or not old_table.num_rows:
        return None
    changed = np.flatnonzero(slot_ids != old_slots)
    if changed.size * 4 > slot_ids.shape[0]:
        return None
    before, after = old_slots[changed], slot_ids[changed]
    # a row can change slot (a refresh re-streams): count only real moves
    evicted = before[~np.isin(before, after, assume_unique=True)]
    admitted = after[~np.isin(after, before, assume_unique=True)]
    fresh = np.ones(num_rows - old_rows, dtype=bool)
    fresh[admitted[admitted >= old_rows] - old_rows] = False
    new_keys = np.sort(
        cells.sort_keys(np.concatenate([evicted, old_rows + np.flatnonzero(fresh)]))
    )
    left_keys = np.sort(cells.sort_keys(admitted[admitted < old_rows]))
    old_ids = old_table._row_ids
    patch = RowPatch.plan(
        old_ids.shape[0],
        _cell_positions(old_ids, old_starts, left_keys),
        _cell_positions(old_ids, old_starts, new_keys),
    )
    starts = (
        old_starts
        - _cell_starts(left_keys >> _ID_BITS)
        + _cell_starts(new_keys >> _ID_BITS)
    )
    return patch.merge(old_ids, new_keys & _ID_MASK), starts, patch
