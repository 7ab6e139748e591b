"""The catalog: named tables, foreign keys, and views.

The catalog is the single registry the executor, loader, recycler and
SciBORQ engine share.  Foreign-key metadata is declared here because
join synopses (paper §3.3, refs [3, 4]) need to know the join paths at
sampling time, long before any query runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.columnstore.query import Query
from repro.columnstore.table import Table
from repro.errors import SchemaError, UnknownTableError


@dataclass(frozen=True)
class ForeignKey:
    """A declared FK edge: ``fact.fact_column -> dimension.dim_column``."""

    fact_table: str
    fact_column: str
    dimension_table: str
    dimension_column: str

    def __str__(self) -> str:
        return (
            f"{self.fact_table}.{self.fact_column} -> "
            f"{self.dimension_table}.{self.dimension_column}"
        )


class Catalog:
    """Registry of base tables, views, and foreign-key relationships."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, Query] = {}
        self._foreign_keys: list[ForeignKey] = []

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> Table:
        """Register a base table; names must be unique."""
        if table.name in self._tables or table.name in self._views:
            raise SchemaError(f"catalog already has an object named {table.name!r}")
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a base table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    @property
    def table_names(self) -> list[str]:
        """Names of all registered base tables."""
        return list(self._tables)

    # ------------------------------------------------------------------
    # views (named queries, e.g. SkyServer's Galaxy view)
    # ------------------------------------------------------------------
    def add_view(self, name: str, query: Query) -> None:
        """Register a named query as a view."""
        if name in self._tables or name in self._views:
            raise SchemaError(f"catalog already has an object named {name!r}")
        if query.table not in self._tables:
            raise UnknownTableError(query.table)
        self._views[name] = query

    def view(self, name: str) -> Query:
        """Look up a view's defining query."""
        try:
            return self._views[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_view(self, name: str) -> bool:
        """Whether a view called ``name`` exists."""
        return name in self._views

    # ------------------------------------------------------------------
    # foreign keys
    # ------------------------------------------------------------------
    def add_foreign_key(self, fk: ForeignKey) -> None:
        """Declare an FK edge; both endpoints must exist."""
        for table_name, column in (
            (fk.fact_table, fk.fact_column),
            (fk.dimension_table, fk.dimension_column),
        ):
            table = self.table(table_name)
            if not table.has_column(column):
                raise SchemaError(
                    f"foreign key references missing column "
                    f"{table_name}.{column}"
                )
        self._foreign_keys.append(fk)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable inventory, used by examples."""
        lines = ["catalog:"]
        for name, table in self._tables.items():
            lines.append(
                f"  table {name}: {table.num_rows} rows, "
                f"{len(table.column_names)} columns"
            )
        for name in self._views:
            lines.append(f"  view {name}")
        for fk in self._foreign_keys:
            lines.append(f"  fk {fk}")
        return "\n".join(lines)
