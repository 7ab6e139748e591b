"""Declarative query descriptions.

A :class:`Query` is the unit the whole system passes around: the
executor runs it against a base table *or* against any impression of
that table, the workload log records it, and the interest model mines
its predicates.  Keeping queries declarative (rather than strings or
plans) is what lets the bounded processor re-target the same query at
different layers without re-parsing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.columnstore.expressions import Expression, TruePredicate
from repro.errors import QueryError

#: Aggregate functions the executor implements.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max", "var", "std")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: ``fn(column) AS alias``.

    ``count`` may use ``column=None`` for ``COUNT(*)``.
    """

    fn: str
    column: Optional[str] = None
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fn not in AGGREGATE_FUNCTIONS:
            raise QueryError(
                f"unknown aggregate {self.fn!r}; expected one of "
                f"{AGGREGATE_FUNCTIONS}"
            )
        if self.fn != "count" and self.column is None:
            raise QueryError(f"aggregate {self.fn!r} requires a column")

    @property
    def output_name(self) -> str:
        """Column name of this aggregate in the result."""
        if self.alias:
            return self.alias
        target = self.column if self.column is not None else "*"
        return f"{self.fn}({target})"


@dataclass(frozen=True)
class JoinSpec:
    """An equi-join with another catalog table.

    ``right_table`` is joined on ``left_on == right_on``; the join is a
    foreign-key lookup in the SkyServer workload (fact table joining its
    dimension tables, paper Figure 1).
    """

    right_table: str
    left_on: str
    right_on: str
    #: columns of the right table to carry into the result
    projection: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.right_table:
            raise QueryError("join requires a right table name")


@dataclass(frozen=True)
class Query:
    """A select-project-join-aggregate query over one fact table.

    Parameters mirror the clauses of the SkyServer queries the paper
    shows in Figure 1: a fact table, a WHERE predicate (often a cone
    search), foreign-key joins to dimension tables, optional grouping
    and aggregation, and an optional LIMIT.

    Frozen and hashable: the recycler, the query log, and the
    progressive-execution handle registry all key on queries, so a
    query must never change identity after construction.  The
    sequence clauses are normalised to tuples on the way in
    (predicates hash by object identity, as before).
    """

    table: str
    predicate: Expression = field(default_factory=TruePredicate)
    select: Optional[Sequence[str]] = None
    aggregates: Sequence[AggregateSpec] = ()
    group_by: Sequence[str] = ()
    joins: Sequence[JoinSpec] = ()
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.table:
            raise QueryError("query requires a table name")
        if self.limit is not None and self.limit < 0:
            raise QueryError(f"limit must be non-negative, got {self.limit}")
        if self.group_by and not self.aggregates:
            raise QueryError("group_by requires at least one aggregate")
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        object.__setattr__(self, "group_by", tuple(self.group_by))
        object.__setattr__(self, "joins", tuple(self.joins))
        if self.select is not None:
            object.__setattr__(self, "select", tuple(self.select))

    # ------------------------------------------------------------------
    @property
    def is_aggregate(self) -> bool:
        """Whether the query produces aggregate values (vs raw rows)."""
        return bool(self.aggregates)

    def requested_values(self) -> dict[str, List[float]]:
        """Per-attribute values this query requests (predicate set)."""
        return self.predicate.requested_values()

    def columns_read(self) -> set[str]:
        """All fact-table columns this query touches.

        Used by the column-subset feature of impressions (paper §3.1,
        "Correlations": an impression may contain a subset of the
        attributes of a table).
        """
        read = set(self.predicate.columns())
        if self.select:
            read.update(self.select)
        for agg in self.aggregates:
            if agg.column is not None:
                read.add(agg.column)
        read.update(self.group_by)
        for join in self.joins:
            read.add(join.left_on)
        if self.order_by:
            read.add(self.order_by)
        return read

    def columns_carried(self) -> Optional[set[str]]:
        """Columns the plan still reads once the selection has run.

        A selection yields row indices; only these columns of the
        matching rows are ever gathered (late materialisation).  An
        aggregate reads its inputs and group-by keys — its ``order_by``
        names an *output* column, and a ``COUNT(*)`` reads nothing; a
        row query reads its select list and ``order_by``; either reads
        its join keys.  ``None`` means whole rows: a row query without
        a select list.  Names are as the query spells them — some may
        belong to a joined table or to no table at all, so callers
        intersect with the table at hand (and add its hidden columns).
        """
        if not self.is_aggregate and not self.select:
            return None
        names = {join.left_on for join in self.joins}
        if self.is_aggregate:
            names.update(a.column for a in self.aggregates if a.column is not None)
            names.update(self.group_by)
        else:
            names.update(self.select)
            if self.order_by:
                names.add(self.order_by)
        for join in self.joins:
            # "Right.n" only exists because the fact table's own "n" is
            # in the way (see ``materialise_join``): "n" travels too
            qualifier = f"{join.right_table}."
            names.update(
                n[len(qualifier):] for n in tuple(names) if n.startswith(qualifier)
            )
        return names

    def fingerprint(self) -> str:
        """Canonical identity string (recycler key, log dedup)."""
        parts = [f"from={self.table}", f"where={self.predicate.fingerprint()}"]
        if self.select:
            parts.append("select=" + ",".join(self.select))
        if self.aggregates:
            parts.append(
                "agg=" + ",".join(a.output_name for a in self.aggregates)
            )
        if self.group_by:
            parts.append("group=" + ",".join(self.group_by))
        for join in self.joins:
            parts.append(
                f"join={join.right_table}[{join.left_on}={join.right_on}]"
            )
        if self.order_by:
            parts.append(f"order={self.order_by}{'-' if self.descending else '+'}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return " ".join(parts)
