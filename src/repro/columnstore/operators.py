"""Vectorised relational operators with per-operator statistics.

Every operator reports how many tuples it touched; all but the selection
materialise their output (MonetDB-style).  A selection returns **row
indices**: the executor then gathers, for the matching rows, only the
columns the rest of the plan reads
(:meth:`~repro.columnstore.executor.Executor.working_set`), so the
working set the later operators materialise is plan-wide, not
table-wide; a row answer orders and limits the index vector itself
(:func:`~repro.columnstore.executor.order_and_limit`).  The tuple
counts are the library's cost model: SciBORQ's runtime bounds are
enforced by choosing which impression an operator tree runs over, and
the benefit is visible precisely in these counts (paper §3.2).

Selection is zone-map aware: storage blocks whose per-column min/max
summaries cannot satisfy the predicate are skipped entirely and —
crucially for the cost model — *not charged*.  Surviving blocks are
scanned in morsels of :data:`MORSEL_ROWS` rows, one after another in
the calling thread — the temporaries of a 64 K-row unit stay in cache,
which beats evaluating a whole run at once.  Fragments merge in block
order, so the result is bit-identical to a full scan.  Parallelism is
the server's concurrent sessions (:mod:`repro.core.server`), not a
second layer of threads under each scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnstore.column import Column
from repro.columnstore.expressions import Expression
from repro.columnstore.query import AggregateSpec
from repro.columnstore.table import Table
from repro.errors import QueryError

#: Rows per morsel: the unit a pruned scan evaluates at a time, small
#: enough that a unit's temporaries stay in cache.
MORSEL_ROWS = 65_536


@dataclass(frozen=True)
class OperatorStats:
    """Cost record of one operator invocation."""

    operator: str
    tuples_in: int
    tuples_out: int
    #: Zone-map bookkeeping (selection only; zero elsewhere).
    blocks_scanned: int = 0
    blocks_pruned: int = 0

    @property
    def cost(self) -> int:
        """Cost units charged for this operator (tuples read)."""
        return self.tuples_in


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
class _BlockView:
    """A row-range view of a table, for per-morsel evaluation.

    Implements exactly the surface predicates read during
    :meth:`~repro.columnstore.expressions.Expression.evaluate`:
    ``view[column]`` and ``view.num_rows``.  Reads go through
    :meth:`~repro.columnstore.column.Column.read_range`, so hot data
    stays zero-copy while warm/cold blocks decompress per-block into
    the column's reused per-thread scratch buffer — never the whole
    column, and never a block the scan plan pruned.  A ``raw`` view
    reads warm blocks' raw bytes from the spill instead of their codes.
    """

    __slots__ = ("_table", "_start", "_stop", "_raw")

    def __init__(
        self, table: Table, start: int, stop: int, raw: bool = False
    ) -> None:
        self._table = table
        self._start = start
        self._stop = stop
        self._raw = raw

    @property
    def num_rows(self) -> int:
        return self._stop - self._start

    def __getitem__(self, name: str) -> np.ndarray:
        return self._table.column(name).read_range(self._start, self._stop, self._raw)


def scan_plan(
    table: Table,
    predicate: Expression,
) -> Tuple[List[Tuple[int, int]], int, int, int]:
    """Decide which row ranges a pruned scan must actually read.

    Returns ``(runs, rows_to_scan, blocks_scanned, blocks_pruned)``
    where ``runs`` are maximal contiguous ``(start, stop)`` row ranges
    of surviving blocks, in order.  The predicate's keep-mask over the
    zone arrays becomes runs where it changes value (a ``diff``), so
    planning costs the same few vector operations at 64 zones as at
    one.  Tables without a common block grid (or predicates reading no
    columns) degenerate to one full run.
    """
    num_rows = table.num_rows
    if num_rows == 0:
        return [], 0, 0, 0
    block_size = table.block_size
    num_blocks = table.num_blocks
    needed = predicate.columns()
    if num_blocks <= 1 or not needed:
        return [(0, num_rows)], num_rows, max(num_blocks, 1), 0
    keep = predicate.keep_blocks(table.zones(needed), num_blocks)
    if keep.all():
        return [(0, num_rows)], num_rows, num_blocks, 0
    # a run starts and stops where the padded mask changes value
    padded = np.zeros(num_blocks + 2, dtype=bool)
    padded[1:-1] = keep
    edges = np.flatnonzero(padded[1:] != padded[:-1]) * block_size
    starts, stops = edges[::2], np.minimum(edges[1::2], num_rows)
    scanned = int(np.count_nonzero(keep))
    return (
        list(zip(starts.tolist(), stops.tolist())),
        int((stops - starts).sum()),
        scanned,
        num_blocks - scanned,
    )


#: A morsel: the row ranges one work unit evaluates, in order.
Morsel = List[Tuple[int, int]]


def _morsels(runs: Sequence[Tuple[int, int]]) -> List[Morsel]:
    """Group surviving runs into work units of :data:`MORSEL_ROWS`
    rows (the last may be short), preserving order.

    A unit is sized by rows, not zones: a rung table's zones are a few
    thousand rows, and one unit per surviving zone would pay numpy's
    per-call overhead on work too small to amortise it.  Runs longer
    than a unit are split; short ones share a unit.
    """
    morsels: List[Morsel] = []
    current: Morsel = []
    filled = 0
    for start, stop in runs:
        while start < stop:
            take = min(stop - start, MORSEL_ROWS - filled)
            current.append((start, start + take))
            filled += take
            start += take
            if filled == MORSEL_ROWS:
                morsels.append(current)
                current, filled = [], 0
    if current:
        morsels.append(current)
    return morsels


def _scan_morsel(
    table: Table, predicate: Expression, morsel: Morsel, raw: bool
) -> np.ndarray:
    """The indices of ``morsel``'s rows that match ``predicate``."""
    parts = [
        np.flatnonzero(predicate.evaluate(_BlockView(table, start, stop, raw)))
        + start
        for start, stop in morsel
    ]
    indices = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return indices.astype(np.int64, copy=False)


def select(
    table: Table,
    predicate: Expression,
    raw: bool = False,
) -> Tuple[np.ndarray, OperatorStats]:
    """Evaluate ``predicate`` over ``table``; return row indices + stats.

    Returns indices rather than a materialised table so the recycler can
    cache the (small) index vector and later callers can re-materialise
    against the same table version.

    Blocks the predicate's zone maps rule out are skipped and not
    charged: ``stats.tuples_in`` (the cost) counts only rows actually
    scanned.  The surviving rows are evaluated morsel by morsel, in
    order, in the calling thread, so the indices are identical to an
    unpruned full scan's.  With ``raw`` warm blocks are evaluated on
    their raw bytes, read from the spill
    (:meth:`~repro.columnstore.column.Column.read_range`).
    """
    return _select(table, predicate, raw)


def _select(
    table: Table, predicate: Expression, raw: bool
) -> Tuple[np.ndarray, OperatorStats]:
    """:func:`select`'s scan, which :func:`select_shared` runs per
    consumer (not through ``select``, so a wrapper of the public
    function sees each shared pass once)."""
    runs, rows_to_scan, blocks_scanned, blocks_pruned = scan_plan(table, predicate)
    fragments = [_scan_morsel(table, predicate, m, raw) for m in _morsels(runs)]
    if not fragments:
        indices = np.empty(0, dtype=np.int64)
    elif len(fragments) == 1:
        indices = fragments[0]
    else:
        indices = np.concatenate(fragments)
    stats = OperatorStats(
        "select",
        rows_to_scan,
        int(indices.shape[0]),
        blocks_scanned=blocks_scanned,
        blocks_pruned=blocks_pruned,
    )
    return indices, stats


def select_shared(
    table: Table,
    predicates: Sequence[Expression],
    raw: Optional[Sequence[bool]] = None,
) -> List[Tuple[np.ndarray, OperatorStats] | Exception]:
    """Evaluate several predicates over ``table`` in one shared pass.

    The multi-consumer counterpart of :func:`select`, used by the
    shared-scan scheduler (:mod:`repro.core.scheduler`): each block
    run survives zone-map pruning *per predicate* — so every consumer
    is charged exactly what its solo scan would have been — and the
    pass, in the calling thread, evaluates each consumer's predicate
    over its own morsels.  ``raw`` flags, per predicate, the consumers
    whose scan reads warm blocks' raw bytes (``select(..., raw=True)``);
    each predicate is evaluated over its own consumer's reads.

    Returns one entry per predicate, in order: ``(indices, stats)``
    byte-identical to what ``select(table, predicate)`` would have
    produced, or the exception that predicate's own solo scan would
    have raised (a bad predicate fails only its own consumer, never the
    whole batch).
    """
    raw = [False] * len(predicates) if raw is None else list(raw)
    outcomes: List[Tuple[np.ndarray, OperatorStats] | Exception] = []
    for predicate, reads_raw in zip(predicates, raw):
        try:
            outcomes.append(_select(table, predicate, reads_raw))
        except Exception as exc:  # noqa: BLE001 - per-consumer isolation
            outcomes.append(exc)
    return outcomes


# ----------------------------------------------------------------------
# join
# ----------------------------------------------------------------------
def equi_join(
    left: Table,
    right: Table,
    left_on: str,
    right_on: str,
) -> Tuple[np.ndarray, np.ndarray, OperatorStats]:
    """Sort-based equi-join; returns matching (left, right) row indices.

    Handles duplicate keys on either side (many-to-many).  For the
    FK-lookup joins of the SkyServer workload the right side is a
    dimension table with unique keys, making this a plain lookup.
    """
    left_keys = left[left_on]
    right_keys = right[right_on]
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(left.num_rows), counts)
    if total:
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ranges = np.arange(total) - np.repeat(offsets, counts)
        right_idx = order[np.repeat(lo, counts) + ranges]
    else:
        right_idx = np.empty(0, dtype=np.int64)
    stats = OperatorStats("join", left.num_rows + right.num_rows, total)
    return left_idx, right_idx, stats


def materialise_join(
    left: Table,
    right: Table,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    right_projection: Sequence[str],
    name: str = "join",
) -> Table:
    """Build the joined table: all left columns + projected right columns.

    Right-side columns that collide with a left name are prefixed with
    the right table's name, mirroring SQL's qualified-name behaviour.
    """
    columns = [left.column(n).take(left_idx) for n in left.column_names]
    taken_names = set(left.column_names)
    projection = right_projection or [
        n for n in right.column_names if n not in taken_names
    ]
    for n in projection:
        source = right.column(n)
        out_name = n if n not in taken_names else f"{right.name}.{n}"
        taken_names.add(out_name)
        columns.append(Column(out_name, source.dtype, source.values[right_idx]))
    return Table(name, columns)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _float_coercible(dtype: np.dtype) -> bool:
    """Whether values of ``dtype`` coerce losslessly into aggregates."""
    return bool(np.issubdtype(dtype, np.number)) or dtype == np.bool_


def _aggregate_array(fn: str, values: Optional[np.ndarray], count: int) -> float:
    """Compute one ungrouped aggregate over ``values``."""
    if fn == "count":
        return float(count)
    assert values is not None
    if values.shape[0] == 0:
        return float("nan")
    if fn == "sum":
        return float(values.sum())
    if fn == "avg":
        return float(values.mean())
    if fn == "min":
        return float(values.min())
    if fn == "max":
        return float(values.max())
    if fn == "var":
        return float(values.var(ddof=1)) if values.shape[0] > 1 else 0.0
    if fn == "std":
        return float(values.std(ddof=1)) if values.shape[0] > 1 else 0.0
    raise QueryError(f"unknown aggregate {fn!r}")


def aggregate(
    table: Table, specs: Sequence[AggregateSpec]
) -> Tuple[Dict[str, float], OperatorStats]:
    """Ungrouped aggregates over a (materialised) input table."""
    results: Dict[str, float] = {}
    for spec in specs:
        values = table[spec.column] if spec.column is not None else None
        if values is not None and not _float_coercible(values.dtype):
            # only COUNT is well-defined on non-coercible (string)
            # columns; MIN and MAX used to slip past this gate and
            # crash on the float() coercion inside the aggregate
            # kernel.  Booleans coerce fine and stay allowed.
            if spec.fn != "count":
                raise QueryError(
                    f"aggregate {spec.fn!r} needs a numeric column, "
                    f"got {values.dtype} for {spec.column!r}"
                )
        results[spec.output_name] = _aggregate_array(
            spec.fn, values, table.num_rows
        )
    stats = OperatorStats("aggregate", table.num_rows, 1)
    return results, stats


def factorise_keys(
    key_arrays: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factorise row-aligned key columns into dense groups.

    The grouping core of :func:`group_aggregate`.  Returns
    ``(first_index, order, boundaries, counts)``: the first input row
    of each group (groups ordered by combined key code, i.e.
    lexicographically by key tuple), a stable permutation clustering
    rows by group, each group's start offset within that permutation,
    and per-group row counts.
    """
    n = key_arrays[0].shape[0] if key_arrays else 0
    codes = np.zeros(n, dtype=np.int64)
    for arr in key_arrays:
        uniq, inverse = np.unique(arr, return_inverse=True)
        codes = codes * max(uniq.shape[0], 1) + inverse
    _, first_index, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    n_groups = first_index.shape[0]
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(n_groups))
    counts = np.bincount(inverse, minlength=n_groups)
    return first_index, order, boundaries, counts


def group_aggregate(
    table: Table,
    group_by: Sequence[str],
    specs: Sequence[AggregateSpec],
    name: str = "groupby",
) -> Tuple[Table, OperatorStats]:
    """GROUP BY over one or more key columns, all aggregates in one pass.

    Keys are factorised with ``np.unique``; aggregates are computed per
    group with sort + ``reduceat``, so the whole operator is vectorised.
    """
    if not group_by:
        raise QueryError("group_aggregate requires at least one key column")
    key_arrays = [table[k] for k in group_by]
    first_index, order, boundaries, counts = factorise_keys(key_arrays)
    n_groups = first_index.shape[0]

    columns: list[Column] = []
    for key_name, key_arr in zip(group_by, key_arrays):
        columns.append(Column(key_name, key_arr.dtype, key_arr[first_index]))
    for spec in specs:
        if spec.fn == "count":
            # counts come from the factorisation; gathering the value
            # column (a full permutation of the input) would be pure
            # waste — but a named column must still exist.
            if spec.column is not None:
                table.column(spec.column)
            out = counts.astype(np.float64)
        else:
            values = table[spec.column][order]
            if not _float_coercible(values.dtype):
                raise QueryError(
                    f"aggregate {spec.fn!r} needs a numeric column, "
                    f"got {values.dtype} for {spec.column!r}"
                )
            if values.dtype == np.bool_:
                # bool ufunc.reduceat would OR instead of summing
                values = values.astype(np.float64)
            if spec.fn == "sum":
                out = np.add.reduceat(values, boundaries)
            elif spec.fn == "avg":
                out = np.add.reduceat(values, boundaries) / counts
            elif spec.fn == "min":
                out = np.minimum.reduceat(values, boundaries)
            elif spec.fn == "max":
                out = np.maximum.reduceat(values, boundaries)
            elif spec.fn in ("var", "std"):
                # two-pass (centred) variance: the raw-moment form
                # Σv² − n·mean² cancels catastrophically for large
                # means and silently clamps to 0.0
                sums = np.add.reduceat(values, boundaries)
                means = sums / counts
                centred = values - np.repeat(means, counts)
                m2 = np.add.reduceat(centred * centred, boundaries)
                var = m2 / np.maximum(counts - 1, 1)
                var = np.where(counts > 1, np.maximum(var, 0.0), 0.0)
                out = np.sqrt(var) if spec.fn == "std" else var
            else:
                raise QueryError(f"unknown aggregate {spec.fn!r}")
            out = np.asarray(out, dtype=np.float64)
        columns.append(Column(spec.output_name, np.float64, out))
    result = Table(name, columns)
    stats = OperatorStats("groupby", table.num_rows, n_groups)
    return result, stats


# ----------------------------------------------------------------------
# ordering and limiting
# ----------------------------------------------------------------------
def stable_order(values: np.ndarray, descending: bool = False) -> np.ndarray:
    """The stable sorting permutation of ``values``, either direction.

    Rows with equal keys keep their input order both ways.  (Reversing
    an ascending stable order would reverse the tie runs too, so the
    descending order sorts the *reversed* input ascending and flips
    that — ties land back in input order.)
    """
    if descending:
        reversed_order = np.argsort(values[::-1], kind="stable")
        return (values.shape[0] - 1 - reversed_order)[::-1]
    return np.argsort(values, kind="stable")


def sort(
    table: Table, by: str, descending: bool = False, name: str = "sort"
) -> Tuple[Table, OperatorStats]:
    """Full sort of a materialised table by one column, stable in both
    directions (:func:`stable_order`).  Row answers order their index
    vector with the same helper instead
    (:func:`~repro.columnstore.executor.order_and_limit`)."""
    order = stable_order(table[by], descending)
    stats = OperatorStats("sort", table.num_rows, table.num_rows)
    return table.take(order, name), stats


def limit(table: Table, n: int, name: str = "limit") -> Tuple[Table, OperatorStats]:
    """Keep the first ``n`` rows.

    On base data this reproduces exactly the behaviour the paper
    criticises — "the lucky N first tuples" (§3.2); the representative
    alternative is running the same query over an impression.
    """
    if n < 0:
        raise QueryError(f"limit must be non-negative, got {n}")
    kept = min(n, table.num_rows)
    indices = np.arange(kept)
    stats = OperatorStats("limit", table.num_rows, kept)
    return table.take(indices, name), stats
