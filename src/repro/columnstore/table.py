"""Tables: ordered collections of equal-length columns.

A :class:`Table` is both a base relation and an operator intermediate —
MonetDB's defining trait of full materialisation (paper §3.2) is what
lets SciBORQ re-route parts of a running query to a different
impression, so the reproduction keeps every intermediate as a concrete
Table.  Concrete does not mean table-wide: a selection is a vector of
row indices, and :meth:`Table.take` materialises just the columns the
rest of the plan reads (paper §3.2: a column store pays for the
attributes a query touches).  Tables also carry a monotone ``version``
(bumped on every append) that the recycler and impression maintenance
use to detect staleness.

The column-lazy rule
--------------------
A :class:`DerivedTable` is "rows ``row_ids`` of ``base``" — what an
impression, a rung delta and a base complement are.  It knows its
schema from the base table, its row count and zone grid from its own
row ids, and gathers a column on the first ``column(name)``, once,
under a lock; a scan that reads two of thirteen columns pays for two
gathers (paper §3.1: an
impression "may contain a subset of the attributes of a table … if the
need rises, more columns can be added").  **Accounting never gathers**:
:meth:`Table.nbytes`, :meth:`Table.nbytes_by_tier`,
:meth:`Table.is_fully_hot`, :meth:`Table.max_value_error`,
:meth:`Table.promote_all` and :meth:`Table.resident_columns` walk the
columns that are in RAM — every column of a plain table, the gathered
ones of a derived table — so sizing, reporting and the memory governor
never force a column into existence.  A whole-row ``take`` (no column
list) goes through ``column()`` and gathers what it reads.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.columnstore.column import Column, Zones
from repro.errors import LoadError, SchemaError, UnknownColumnError


class Table:
    """A named relation stored column-wise.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"PhotoObjAll"``.
    columns:
        Mapping of column name to dtype specifier, or ready
        :class:`Column` objects (all the same length).
    """

    def __init__(
        self,
        name: str,
        columns: Mapping[str, object] | Sequence[Column],
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        #: the columns in RAM: all of them for a plain table, the ones
        #: gathered so far for a :class:`DerivedTable`
        self._columns: Dict[str, Column] = {}
        self._block_sizes: set[int] = set()
        self._version = 0
        if isinstance(columns, Mapping):
            for col_name, spec in columns.items():
                if isinstance(spec, Column):
                    self._adopt(spec)
                else:
                    self._adopt(Column(col_name, spec))
        else:
            for col in columns:
                self._adopt(col)
        self._check_rectangular()

    def _adopt(self, column: Column) -> None:
        if column.name in self._columns:
            raise SchemaError(
                f"duplicate column {column.name!r} in table {self.name!r}"
            )
        self._columns[column.name] = column
        self._block_sizes.add(column.block_size)

    def _check_rectangular(self) -> None:
        lengths = {len(c) for c in self._columns.values()}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {self.name!r} has ragged columns: lengths {sorted(lengths)}"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of tuples in the relation."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __len__(self) -> int:
        return self.num_rows

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return list(self._columns)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every append batch."""
        return self._version

    # ------------------------------------------------------------------
    # blocks and zone maps
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int | None:
        """Common storage block size, or None when columns disagree.

        Pruned scans need one block grid shared by every column; a
        table assembled from columns with mismatched block sizes (only
        possible by constructing Columns by hand) reports None, which
        disables pruning rather than mis-aligning zones.  A column's
        block size never changes, so the set is kept as columns are
        adopted rather than rebuilt on every scan.
        """
        if len(self._block_sizes) != 1:
            return None
        (size,) = self._block_sizes
        return size

    @property
    def num_blocks(self) -> int:
        """Number of (full or partial) storage blocks."""
        block_size = self.block_size
        if block_size is None or self.num_rows == 0:
            return 0
        return -(-self.num_rows // block_size)

    def zones(self, names: Iterable[str]) -> Dict[str, Zones]:
        """Every block's zone maps for the named columns, as arrays.

        Columns that keep no zones (non-numeric) are simply absent
        from the result — predicates treat a missing zone as
        unprunable.
        """
        zones: Dict[str, Zones] = {}
        for name in names:
            column_zones = self.column(name).zones()
            if column_zones is not None:
                zones[name] = column_zones
        return zones

    def has_column(self, name: str) -> bool:
        """Whether the table declares a column called ``name``."""
        return name in self._columns

    def column(self, name: str) -> Column:
        """The :class:`Column` called ``name`` (raises if absent)."""
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def __getitem__(self, name: str) -> np.ndarray:
        """Shorthand for ``table.column(name).values``."""
        return self.column(name).values

    def resident_columns(self) -> List[Column]:
        """The columns held in RAM — what accounting and the memory
        governor walk (see "The column-lazy rule" above)."""
        return list(self._columns.values())

    def nbytes(self) -> int:
        """RAM-resident payload size of the resident columns in bytes.

        Tier-aware: warm blocks count their quantised codes, cold
        blocks count nothing (their raw bytes live in the spill).
        """
        return sum(col.nbytes() for col in self._columns.values())

    def nbytes_by_tier(self) -> Dict[str, int]:
        """Payload bytes per residency tier, summed over resident columns."""
        report = {"hot": 0, "warm": 0, "cold": 0}
        for col in self._columns.values():
            for tier, size in col.nbytes_by_tier().items():
                report[tier] += size
        return report

    @property
    def is_fully_hot(self) -> bool:
        """Whether every block of every resident column is a raw hot ndarray."""
        return all(col.is_fully_hot for col in self._columns.values())

    def max_value_error(self) -> float:
        """Max pointwise value-error bound across the resident columns."""
        if not self._columns:
            return 0.0
        return max(col.max_value_error() for col in self._columns.values())

    def promote_all(self) -> int:
        """Promote every demoted block of the resident columns to hot;
        returns blocks promoted."""
        return sum(col.promote_all() for col in self._columns.values())

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, columns={self.column_names}, "
            f"rows={self.num_rows})"
        )

    # ------------------------------------------------------------------
    # mutation (the load path)
    # ------------------------------------------------------------------
    def append_batch(self, batch: Mapping[str, np.ndarray | Sequence]) -> int:
        """Append a column-wise batch of tuples; returns rows appended.

        The batch must cover *exactly* the table's columns, and all
        arrays must be the same length.  Partial or ragged batches are
        rejected before any column is touched, so a failed append never
        leaves the table in a ragged state.
        """
        missing = set(self._columns) - set(batch)
        extra = set(batch) - set(self._columns)
        if missing or extra:
            raise LoadError(
                f"batch for table {self.name!r} mismatch: "
                f"missing={sorted(missing)}, unexpected={sorted(extra)}"
            )
        arrays = {name: np.asarray(values) for name, values in batch.items()}
        lengths = {arr.shape[0] if arr.ndim else 1 for arr in arrays.values()}
        if len(lengths) != 1:
            raise LoadError(
                f"ragged batch for table {self.name!r}: lengths {sorted(lengths)}"
            )
        (count,) = lengths
        for name, arr in arrays.items():
            self._columns[name].extend(arr)
        self._version += 1
        return int(count)

    # ------------------------------------------------------------------
    # derivation (materialised intermediates)
    # ------------------------------------------------------------------
    def empty_like(self, name: str | None = None) -> "Table":
        """A new empty table with this table's schema."""
        return Table(
            name or f"{self.name}#empty",
            {n: self.column(n).dtype for n in self.column_names},
        )

    def take(
        self,
        indices: np.ndarray,
        name: str | None = None,
        columns: Iterable[str] | None = None,
        raw: bool = False,
    ) -> "Table":
        """Materialise the rows at ``indices`` into a new table.

        ``columns`` names the columns to gather, in the order given
        (default: all) — a column the rest of a plan never reads need
        not be gathered, nor its demoted blocks decompressed.  With
        ``raw`` warm blocks are read as their raw bytes
        (:meth:`Column.take`).
        """
        indices = np.asarray(indices)
        names = self.column_names if columns is None else columns
        return Table(
            name or f"{self.name}#take",
            [self.column(n).take(indices, raw) for n in names],
        )



class RowPatch(NamedTuple):
    """How an ordered row set changes: drop some rows, insert others.

    The patched rows are the old rows where ``kept`` holds (``None``:
    all of them), in order, with new rows at the positions ``added`` of
    the result; ``is_old`` marks the result's other positions.  Every
    array aligned with the old rows patches by :meth:`merge` — one pass
    through two boolean masks, where ``np.delete`` plus ``np.insert``
    would copy twice and a position gather would read out of order.
    """

    kept: Optional[np.ndarray]
    is_old: np.ndarray
    added: np.ndarray

    @classmethod
    def plan(cls, size: int, removed: np.ndarray, at: np.ndarray) -> "RowPatch":
        """Drop the rows at positions ``removed`` of ``size`` ordered rows
        and insert new ones before the positions ``at`` (both ascending;
        ``np.searchsorted`` positions among the old rows)."""
        added = at - np.searchsorted(removed, at) + np.arange(at.shape[0])
        kept = None
        if removed.shape[0]:
            kept = np.ones(size, dtype=bool)
            kept[removed] = False
        is_old = np.ones(size - removed.shape[0] + at.shape[0], dtype=bool)
        is_old[added] = False
        return cls(kept, is_old, added)

    def merge(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """``old`` patched: its kept values, ``new`` at the added rows."""
        out = np.empty(self.is_old.shape[0], dtype=old.dtype)
        out[self.is_old] = old if self.kept is None else old[self.kept]
        out[self.added] = new
        return out


#: Base rows a derived table's zone spans: a table holding a share
#: ``f`` of the base gets about ``f`` times this many rows per zone ...
DERIVED_ZONE_BASE_ROWS = 1024
#: ... but never fewer than this many.
MIN_DERIVED_ZONE_ROWS = 64


def derived_zone_rows(num_rows: int, base_rows: int) -> int:
    """Rows per zone of a derived table of ``num_rows`` rows out of a
    ``base_rows``-row base: the largest power of two at most
    ``ceil(1024 * num_rows / base_rows)``, and at least 64.

    Sized by the share of the base the table holds, not by a zone
    count, so every derived table's zones span about the same slice of
    cell space: on a 1 M-row base the 250 k rung gets 256-row zones and
    the 750 k complement 512-row ones, so a cone reads about as far
    past its edge in either.  Powers of two nest: each zone lies inside
    one zone of any coarser power-of-two grid over the same rows, and
    its min/max inside that zone's, so a finer grid never keeps a row a
    coarser one pruned.
    """
    share = -(-DERIVED_ZONE_BASE_ROWS * int(num_rows) // max(int(base_rows), 1))
    return max(MIN_DERIVED_ZONE_ROWS, 1 << (max(share, 1).bit_length() - 1))


class DerivedTable(Table):
    """Rows ``row_ids`` of ``base``, one column gathered per first touch.

    The one type behind :meth:`Impression.materialise
    <repro.core.impression.Impression.materialise>`, ``materialise_delta``
    and ``materialise_complement``.  ``names`` are the base columns it
    exposes (in order); ``resident`` maps names to ready arrays it
    carries beside them (an impression's hidden ``_pi``).
    ``column_names`` comes from the base table's schema and
    ``num_rows`` from the row ids, so planning a scan gathers nothing;
    ``column(name)``
    gathers ``base.column(name)`` at ``row_ids`` once — concurrent first
    touches serialise on a lock and all see the same :class:`Column`.
    **A derived table is an exact copy of base rows**: the gather
    (:meth:`Column.gather`) reads raw values at every tier, warm and
    cold base blocks from the spill, so a column gathered after the
    governor demoted those blocks equals one gathered before, byte for
    byte, and declares no value error.  Read-only: the rows are fixed
    at construction.

    The table has its own zone grid, :func:`derived_zone_rows` rows per
    zone for every column, not the base table's: a rung a twentieth of
    the base would otherwise be a single block, and the order its owner
    lays its rows out in (interest cells, for an impression) could not
    prune anything.  A zone holds the table's share of 1 024 base rows,
    so a small rung and the complement prune a cone alike.
    """

    def __init__(
        self,
        name: str,
        base: Table,
        row_ids: np.ndarray,
        names: Sequence[str],
        resident: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        self._zone_rows = derived_zone_rows(row_ids.shape[0], base.num_rows)
        super().__init__(
            name,
            [
                Column.from_external(n, values.dtype, values, self._zone_rows)
                for n, values in (resident or {}).items()
            ],
        )
        self._base = base
        self._row_ids = row_ids
        self._names = tuple(names) + tuple(self._columns)
        if len(set(self._names)) != len(self._names):
            raise SchemaError(f"duplicate column in table {name!r}: {self._names}")
        if any(len(c) != row_ids.shape[0] for c in self._columns.values()):
            raise SchemaError(
                f"table {name!r}: resident columns do not hold "
                f"{row_ids.shape[0]} rows"
            )
        self._block_sizes = {self._zone_rows}
        self._gather_lock = threading.Lock()
        self._resident = frozenset(self._columns)
        #: columns of the table this one patches, not yet carried over
        self._previous: Dict[str, Column] = {}
        self._patch: Optional[RowPatch] = None

    @property
    def num_rows(self) -> int:
        return int(self._row_ids.shape[0])

    @property
    def row_ids(self) -> np.ndarray:
        """The base rows this table holds, in its row order (read-only):
        the ids that belong to exactly these rows, whatever the sampler
        that chose them has done since."""
        view = self._row_ids.view()
        view.flags.writeable = False
        return view

    @property
    def column_names(self) -> list[str]:
        return list(self._names)

    def has_column(self, name: str) -> bool:
        return name in self._names

    def column(self, name: str) -> Column:
        column = self._columns.get(name)
        if column is not None:
            return column
        if name not in self._names:
            raise UnknownColumnError(self.name, name)
        with self._gather_lock:
            column = self._columns.get(name)
            if column is None:
                column = self._gather(name)
                # published as a new dict: accounting iterates the old
                # one undisturbed
                self._columns = {**self._columns, name: column}
        return column

    def _gather(self, name: str) -> Column:
        """Column ``name`` of these rows: carried forward from the
        previous table when that one had it (see :meth:`carry_from`),
        read from the base otherwise."""
        source = self._base.column(name)
        previous = self._previous.pop(name, None)
        if previous is None:
            values = source.gather(self._row_ids)
        else:
            new = source.gather(self._row_ids[self._patch.added])
            values = self._patch.merge(previous.values, new)
            if not self._previous:
                self._patch = None  # every carried column is built
        return Column.from_external(name, source.dtype, values, self._zone_rows)

    def drop(self, name: str) -> int:
        """Forget gathered column ``name``; returns the bytes freed.

        A gathered column is a copy of base rows, so dropping it loses
        nothing: the next ``column(name)`` gathers it again.  The memory
        governor frees RAM this way instead of demoting a derived
        table's blocks.  Columns the table was built with (``_pi``) are
        not copies and are never dropped.
        """
        with self._gather_lock:
            column = self._columns.get(name)
            if column is None or name in self._resident:
                return 0
            self._columns = {n: c for n, c in self._columns.items() if n != name}
        return column.nbytes()

    def carry_from(self, previous: "DerivedTable", patch: RowPatch) -> None:
        """Let the columns ``previous`` gathered carry over to this table.

        This table's rows must be ``previous``'s rows patched by
        ``patch`` — what an impression's table becomes after sampler
        churn.  A column ``previous`` had gathered is then built on first
        touch from its kept values plus the new rows alone — raw base
        values both, so the result equals a fresh gather byte for byte
        at a fraction of its cost: a fresh gather of a table laid out by
        interest cell reads the base in one interleaved pass per cell, a
        few times slower than the patch.  Columns are still
        built only when read, so accounting and the next query's gathers
        are as if the table were fresh.  A column nothing read since it
        was gathered does not carry over.  Call before the table is
        published.
        """
        self._previous = {
            name: column
            for name, column in previous._columns.items()
            if name in self._names and name not in self._columns and column.last_read
        }
        self._patch = patch

    def append_batch(self, batch: Mapping[str, np.ndarray | Sequence]) -> int:
        raise SchemaError(f"derived table {self.name!r} is read-only")
