"""The query executor: runs a Query against a table and accounts cost.

The executor is deliberately retarget-able: ``execute`` takes an
optional ``fact_table`` override, so the *same* Query object can run
against the base table or against any impression of it.  That is the
hook SciBORQ's bounded query processor uses to escalate between layers
mid-session (paper §3.2).

Cost accounting is per-execution: every ``execute`` call runs under an
:class:`~repro.util.clock.ExecutionContext` (opening a fresh one when
the caller did not supply one), and all operator charges go to that
context.  The executor's own clock is only an *observer* — it
aggregates total spend across executions but is never consulted for
budget decisions, so concurrent queries cannot corrupt each other's
accounting.

Every scan runs in the thread that asked for it — solo, or leading a
convoy of the shared-scan scheduler — so a query's work is done by its
own session thread and the executor starts no thread of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.columnstore import operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.operators import OperatorStats
from repro.columnstore.query import Query
from repro.columnstore.recycler import Recycler, lossy_reads
from repro.columnstore.table import DerivedTable, Table
from repro.errors import QueryError, UnknownColumnError
from repro.util.clock import CostClock, ExecutionContext, WallClock

if TYPE_CHECKING:  # pragma: no cover - layering guard (core imports us)
    from repro.core.scheduler import SharedScanScheduler


@dataclass
class ExecutionStats:
    """Cost breakdown of one query execution."""

    source: str
    source_rows: int
    operators: List[OperatorStats] = field(default_factory=list)
    #: What this execution's context metered during the call: tuple
    #: units under a CostClock, elapsed seconds under a WallClock.
    charged: float = 0.0

    @property
    def total_cost(self) -> int:
        """Total tuples touched across all operators."""
        return sum(op.cost for op in self.operators)

    def add(self, op: OperatorStats) -> None:
        """Record one operator invocation."""
        self.operators.append(op)

    def describe(self) -> str:
        """One line per operator, for EXPLAIN ANALYZE style output."""
        lines = [
            f"source={self.source} rows={self.source_rows} "
            f"cost={self.total_cost}"
        ]
        lines.extend(
            f"  {op.operator}: in={op.tuples_in} out={op.tuples_out}"
            for op in self.operators
        )
        return "\n".join(lines)


class BaseCover(NamedTuple):
    """Tables that together hold every row of a base table exactly once.

    Each part's ``row_ids`` name the base rows it holds, and each is
    laid out on its own zone grid — an impression hierarchy's largest
    table and that table's complement
    (:meth:`repro.core.hierarchy.ImpressionHierarchy.base_cover` decides
    when a base scan reads them).
    """

    parts: Tuple[DerivedTable, ...]
    #: rows the parts' zone plans scan together: the select step's cost
    scan_rows: int

    def merge(self, found: List[np.ndarray]) -> np.ndarray:
        """The base indices of the parts' selections ``found``, sorted:
        exactly the index vector a scan of the base returns."""
        return np.sort(
            np.concatenate(
                [part.row_ids[hits] for part, hits in zip(self.parts, found)]
            ).astype(np.int64, copy=False)
        )


@dataclass
class QueryResult:
    """The answer to a query plus its execution statistics.

    ``rows`` is populated for row-returning queries and for grouped
    aggregates; ``scalars`` for ungrouped aggregates.  Aggregates
    computed over an impression are *raw sample statistics* — scaling
    to population estimates with error bounds is the job of
    :mod:`repro.core.quality`, which needs the impression's metadata.
    """

    query: Query
    stats: ExecutionStats
    rows: Optional[Table] = None
    scalars: Optional[Dict[str, float]] = None

    def scalar(self, name: str) -> float:
        """Look up one ungrouped aggregate by output name."""
        if self.scalars is None:
            raise QueryError("query did not produce scalar aggregates")
        try:
            return self.scalars[name]
        except KeyError:
            raise QueryError(
                f"no aggregate named {name!r}; have {sorted(self.scalars)}"
            ) from None


class Executor:
    """Executes queries against a catalog, charging per-execution contexts.

    **Ownership.**  An engine (:class:`~repro.core.engine.SciBorq`)
    builds exactly one executor and hands it by reference to every
    bounded processor and impression estimator it creates, so its
    :attr:`recycler` and a scheduler assigned here are seen by the
    exact path and every ladder rung at their next scan; built
    stand-alone, processors and estimators create a private one.

    Parameters
    ----------
    catalog:
        Where fact and dimension tables are resolved.
    clock:
        Aggregate observer clock: every execution context opened by
        this executor forwards its charges here.  Defaults to a
        private :class:`CostClock`.
    recycler:
        Optional selection cache, consulted for every scan
        (:meth:`select_indices`).
    scheduler:
        Optional :class:`~repro.core.scheduler.SharedScanScheduler`:
        selections enrol in its convoys so concurrent queries scanning
        the same table share one pass, with per-query indices, stats,
        and charges byte-identical to solo scans.  Installed by
        :meth:`repro.core.engine.SciBorq.set_scan_scheduler`.
    """

    def __init__(
        self,
        catalog: Catalog,
        clock: Optional[CostClock | WallClock] = None,
        recycler: Optional[Recycler] = None,
        scheduler: Optional["SharedScanScheduler"] = None,
    ) -> None:
        self.catalog = catalog
        self.clock = clock if clock is not None else CostClock()
        self.recycler = recycler
        self.scheduler = scheduler

    def new_context(self, limit: Optional[float] = None) -> ExecutionContext:
        """Open a fresh per-execution context observed by our clock."""
        return ExecutionContext(clock=self.clock, limit=limit)

    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        fact_table: Optional[Table] = None,
        context: Optional[ExecutionContext] = None,
        cover: Optional[BaseCover] = None,
        raw: bool = False,
    ) -> QueryResult:
        """Run ``query``; ``fact_table`` overrides catalog resolution.

        The override is how ladder rungs are queried: the query still
        *names* the base table, but the rows come from the given table
        (an impression, or the base itself as a ladder's last rung).
        ``context`` carries this execution's cost meter; when absent a
        fresh unbounded context is opened (its charges still aggregate
        to :attr:`clock`).  ``cover`` is a partition of the source the
        selection reads instead of it (see :meth:`select_indices`).
        With ``raw`` every read of the source — the selection and the
        gathers after it — takes warm blocks' raw bytes from the spill,
        as an exact contract needs, and changes no tier.
        Aggregates finish a gathered :meth:`working_set`; a row query
        orders and limits its selection's index vector and gathers the
        kept rows once (:meth:`row_set`, :func:`order_and_limit`,
        :func:`gather_rows`), charged as a materialised sort and limit.
        """
        query = expand_view(self.catalog, query)
        if context is None:
            context = self.new_context()
        source = fact_table if fact_table is not None else self.catalog.table(query.table)
        spent_before = context.spent
        if query.is_aggregate:
            working, stats = self.working_set(query, source, context, cover, raw)
            result = self.finish_aggregate(query, working, stats, context)
        else:
            result = self._finish_rows(query, source, context, cover, raw)
        result.stats.charged = context.spent - spent_before
        return result

    def working_set(
        self,
        query: Query,
        source: Table,
        context: Optional[ExecutionContext] = None,
        cover: Optional[BaseCover] = None,
        raw: bool = False,
    ) -> tuple[Table, ExecutionStats]:
        """Select and join: the rows of ``source`` the rest of the plan
        reads, gathered (``raw``: see :meth:`execute`).

        Late-materialising: the selection yields row indices, and only
        the columns ``query`` still reads (:meth:`Query.columns_carried`
        plus the table's hidden ``_``-prefixed columns, such as an
        impression's ``_pi``) are gathered for the matching rows.
        Aggregates read it whole:
        :class:`~repro.core.quality.ImpressionEstimator` builds its
        sample working set here; :meth:`execute` goes on to finish it.
        A row query without joins keeps its selection as an index vector
        instead (:meth:`row_set`) and gathers only the rows it returns.
        """
        if context is None:
            context = self.new_context()
        spent_before = context.spent
        stats = ExecutionStats(source=source.name, source_rows=source.num_rows)
        indices, op = self.select_indices(
            source, query.predicate, context, cover=cover, raw=raw
        )
        stats.add(op)
        name = f"{source.name}#sel"
        carried = query.columns_carried()
        if carried is not None:
            carried = [
                n for n in source.column_names if n in carried or n.startswith("_")
            ]
        if carried == []:
            # COUNT(*) alone reads no column: the row ids carry the count
            rids = np.asarray(indices, dtype=np.int64)
            working = Table(name, [Column.from_external("_rid", np.int64, rids)])
        else:
            working = source.take(indices, name, carried, raw)
        working = self._apply_joins(query, working, stats, context)
        stats.charged = context.spent - spent_before
        return working, stats

    def row_set(
        self,
        query: Query,
        source: Table,
        context: Optional[ExecutionContext] = None,
        cover: Optional[BaseCover] = None,
        raw: bool = False,
    ) -> "RowSet":
        """A row query's working set, nothing gathered: the selection's
        index vector into ``source``, or with joins every row of the
        joined :meth:`working_set`.  :func:`order_and_limit` and
        :func:`gather_rows` finish it, here and in
        :class:`~repro.core.quality.ImpressionEstimator`."""
        if query.joins:
            return RowSet.whole(*self.working_set(query, source, context, cover, raw))
        if context is None:
            context = self.new_context()
        spent_before = context.spent
        stats = ExecutionStats(source=source.name, source_rows=source.num_rows)
        indices, op = self.select_indices(
            source, query.predicate, context, cover=cover, raw=raw
        )
        stats.add(op)
        stats.charged = context.spent - spent_before
        return RowSet(source, indices, f"{source.name}#sel", stats)

    # ------------------------------------------------------------------
    def select_indices(
        self,
        source: Table,
        predicate,
        context: ExecutionContext,
        cover: Optional[BaseCover] = None,
        raw: bool = False,
    ) -> tuple[np.ndarray, OperatorStats]:
        """Selection indices over ``source``: the one scan path.

        Every selection — exact base scans and all rung scans of the
        bounded ladder: impressions, deltas, complements and the base —
        runs through here in one fixed order: one :attr:`recycler`
        lookup, on a miss the shared-scan scheduler or a solo
        :func:`~repro.columnstore.operators.select`, then one
        store-back.  Returns the solo scan's ``(indices, stats)`` and
        charges its cost, whoever served it; a cache hit is also noted
        as shared (:meth:`ExecutionContext.note_shared`), since no
        block was read for it.

        With a ``cover`` of ``source`` each part is scanned instead,
        down the same path and charged its own solo cost; every match
        maps through its part's ``row_ids`` and the union, sorted, is
        exactly the index vector a scan of ``source`` returns.  The
        parts' stats add up to one ``select``.

        A ``raw`` scan evaluates the predicate over warm blocks' raw
        bytes (an exact contract's scan): its cache tag is ``()``, so it
        is served only a selection evaluated over exact values, and the
        scheduler never evaluates it in a dequantised pass.

        Contexts that opted out (``shared_scans=False``) skip the
        :attr:`scheduler`, not the cache.
        """
        if cover is None:
            return self._scan(source, predicate, context, raw)
        scans = [self._scan(part, predicate, context, raw) for part in cover.parts]
        indices = cover.merge([found for found, _ in scans])
        op = OperatorStats(
            "select",
            sum(part_op.tuples_in for _, part_op in scans),
            int(indices.shape[0]),
            blocks_scanned=sum(part_op.blocks_scanned for _, part_op in scans),
            blocks_pruned=sum(part_op.blocks_pruned for _, part_op in scans),
        )
        return indices, op

    def _scan(
        self, table: Table, predicate, context: ExecutionContext, raw: bool
    ) -> tuple[np.ndarray, OperatorStats]:
        """One scan of ``table``: from the cache, the scheduler or solo,
        charged the solo cost."""
        recycler = self.recycler
        if recycler is not None:
            # tagged before the scan: a block promoted while it runs
            # must not let a lossy evaluation pass for an exact one
            lossy = () if raw else lossy_reads(table, predicate)
            hit = recycler.lookup(table, predicate, lossy)
            if hit is not None:
                context.charge(hit[1].cost)
                context.note_shared(hit[1].cost)
                return hit
        if self.scheduler is not None and context.shared_scans:
            # the scheduler charges the context itself (noting which
            # units another query's scan performed) and fills the cache
            # inside its pass, where a scan queued behind it looks
            return self.scheduler.scan(table, predicate, context, recycler, raw)
        indices, op = operators.select(table, predicate, raw=raw)
        context.charge(op.cost)
        if recycler is not None:
            recycler.store(table, predicate, indices, op, lossy)
        return indices, op

    def _apply_joins(
        self,
        query: Query,
        working: Table,
        stats: ExecutionStats,
        context: ExecutionContext,
    ) -> Table:
        for join in query.joins:
            right = self.catalog.table(join.right_table)
            left_idx, right_idx, op = operators.equi_join(
                working, right, join.left_on, join.right_on
            )
            context.charge(op.cost)
            stats.add(op)
            working = operators.materialise_join(
                working,
                right,
                left_idx,
                right_idx,
                join.projection,
                name=f"{working.name}⨝{right.name}",
            )
        return working

    def finish_aggregate(
        self,
        query: Query,
        working: Table,
        stats: ExecutionStats,
        context: ExecutionContext,
    ) -> QueryResult:
        """Aggregate (then sort and limit groups of) a selected working
        set; the delta-escalation ladder finishes its base rung here."""
        if query.group_by:
            result, op = operators.group_aggregate(
                working, query.group_by, query.aggregates
            )
            context.charge(op.cost)
            stats.add(op)
            if query.order_by:
                result, op = operators.sort(
                    result, query.order_by, query.descending
                )
                context.charge(op.cost)
                stats.add(op)
            if query.limit is not None:
                result, op = operators.limit(result, query.limit)
                context.charge(op.cost)
                stats.add(op)
            return QueryResult(query=query, stats=stats, rows=result)
        scalars, op = operators.aggregate(working, query.aggregates)
        context.charge(op.cost)
        stats.add(op)
        return QueryResult(query=query, stats=stats, scalars=scalars)

    def _finish_rows(
        self,
        query: Query,
        source: Table,
        context: ExecutionContext,
        cover: Optional[BaseCover],
        raw: bool,
    ) -> QueryResult:
        rows = self.row_set(query, source, context, cover, raw)
        kept, ops, name = order_and_limit(
            query, rows.table, rows.indices, rows.name, raw
        )
        for op in ops:
            context.charge(op.cost)
            rows.stats.add(op)
        names = rows.table.column_names
        if query.select:
            missing = [n for n in query.select if not rows.table.has_column(n)]
            if missing:
                raise QueryError(
                    f"projection references missing columns {missing} "
                    f"(available: {self._whole_row_names(query, source)})"
                )
            names, name = query.select, f"{name}#proj"
        return QueryResult(
            query=query,
            stats=rows.stats,
            rows=gather_rows(
                rows.table, kept, rows.indices, names, name, query.order_by, raw
            ),
        )

    def _whole_row_names(self, query: Query, source: Table) -> List[str]:
        """Column names of ``query``'s working set had it carried whole
        rows — what a failed projection lists as available."""
        none = np.empty(0, dtype=np.int64)
        rows = source.empty_like()
        for join in query.joins:
            right = self.catalog.table(join.right_table)
            rows = operators.materialise_join(
                rows, right, none, none, join.projection
            )
        return rows.column_names


class RowSet(NamedTuple):
    """Rows ``indices`` of ``table``: a row query's working set, called
    ``name`` (in error messages) and selected as ``stats`` record."""

    table: Table
    indices: np.ndarray
    name: str
    stats: ExecutionStats

    @classmethod
    def whole(cls, table: Table, stats: ExecutionStats) -> "RowSet":
        """Every row of a materialised working set."""
        return cls(table, np.arange(table.num_rows), table.name, stats)


def order_and_limit(
    query: Query, table: Table, indices: np.ndarray, name: str, raw: bool = False
) -> Tuple[np.ndarray, List[OperatorStats], str]:
    """ORDER BY and LIMIT of a row answer, on its index vector.

    ORDER BY gathers its key column alone (``raw``: warm blocks' raw
    bytes) and orders the indices stably (:func:`~repro.columnstore.operators.stable_order`); LIMIT
    truncates them.  Returns the kept indices, the ``sort`` / ``limit``
    records a materialised sort and limit of the ``name``d working set
    would have charged, and the name the rows then go by.
    """
    ops: List[OperatorStats] = []
    matched = int(indices.shape[0])
    if query.order_by:
        if not table.has_column(query.order_by):
            raise UnknownColumnError(name, query.order_by)
        keys, _ = table.column(query.order_by).gather_with_error(indices, raw)
        indices = indices[operators.stable_order(keys, query.descending)]
        ops.append(OperatorStats("sort", matched, matched))
        name = "sort"
    if query.limit is not None:
        indices = indices[: query.limit]
        ops.append(OperatorStats("limit", matched, int(indices.shape[0])))
        name = "limit"
    return indices, ops, name


def gather_rows(
    table: Table,
    kept: np.ndarray,
    matched: np.ndarray,
    names: Sequence[str],
    name: str,
    order_by: Optional[str],
    raw: bool = False,
) -> Table:
    """The returned rows: one :meth:`Table.take` of the ``kept`` indices.

    Each returned column declares the value-error bound of every
    ``matched`` row's block (:meth:`Column.value_error_at`) — which rows
    a LIMIT keeps must not narrow it; a ``raw`` gather reads warm blocks'
    raw bytes and declares none of theirs — and the blocks of the returned
    columns and the ``order_by`` key are marked read in the table's
    column order, as a gather of the whole match would have marked them.
    """
    rows = table.take(kept, name, names, raw)
    read = set(names) | {order_by}
    for column in table.column_names:
        if column in read:
            bound = table.column(column).value_error_at(matched, raw)
            if column in names:
                rows.column(column).declare_value_error(bound)
    return rows


def expand_view(catalog: Catalog, query: Query) -> Query:
    """Rewrite a query over a view into one over the view's base table.

    The single view-expansion point of the query path: idempotent
    (queries over plain tables pass through untouched), called once at
    each entry — :meth:`Executor.execute` for direct execution,
    :meth:`repro.core.engine.SciBorq.execute` for the bounded path
    (which needs the base table name to pick a hierarchy before any
    executor runs).

    The view's predicate is AND-ed with the query's own, and the view's
    joins are prepended — enough to model SkyServer's ``Galaxy`` view
    (a predicate plus FK joins over ``PhotoObjAll``, paper §2.1).
    """
    if not catalog.has_view(query.table):
        return query
    from repro.columnstore.expressions import And, TruePredicate

    view_query = catalog.view(query.table)
    predicate = query.predicate
    if not isinstance(view_query.predicate, TruePredicate):
        predicate = And([view_query.predicate, predicate])
    return Query(
        table=view_query.table,
        predicate=predicate,
        select=query.select,
        aggregates=query.aggregates,
        group_by=query.group_by,
        joins=tuple(view_query.joins) + tuple(query.joins),
        order_by=query.order_by,
        descending=query.descending,
        limit=query.limit,
    )
