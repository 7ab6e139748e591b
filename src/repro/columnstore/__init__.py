"""A minimal vectorised column store — the MonetDB stand-in (S1–S3).

SciBORQ is designed on top of MonetDB, a read-optimised column store
that materialises intermediate results and exposes per-operator hooks
(paper §2, §3.2).  This subpackage reproduces the properties SciBORQ
actually relies on:

* columnar storage with cheap per-column scans (numpy-backed),
* full materialisation of operator intermediates,
* per-operator statistics so cost (tuples touched) is observable,
* an intermediate-result recycler (Ivanova et al. [13]) for workload
  capture and reuse,
* a load pipeline with observer hooks, because impressions are built
  *during* loads (paper §3.3).

It is not a SQL system; queries are declarative :class:`Query` objects,
which keeps the executor small while still supporting the
select-project-join-aggregate shape of the SkyServer workload.
"""

from repro.columnstore.column import Column
from repro.columnstore.table import DerivedTable, Table
from repro.columnstore.catalog import Catalog, ForeignKey
from repro.columnstore.expressions import (
    Expression,
    TruePredicate,
    Comparison,
    Between,
    RadialPredicate,
    And,
    Or,
    Not,
    col_eq,
)
from repro.columnstore.query import Query, AggregateSpec, JoinSpec
from repro.columnstore.aggstate import FoldState
from repro.columnstore.executor import Executor, QueryResult, ExecutionStats
from repro.columnstore.recycler import Recycler
from repro.columnstore.loader import Loader, LoadObserver
from repro.columnstore.plan import estimate_cost

__all__ = [
    "Column",
    "Table",
    "DerivedTable",
    "Catalog",
    "ForeignKey",
    "Expression",
    "TruePredicate",
    "Comparison",
    "Between",
    "RadialPredicate",
    "And",
    "Or",
    "Not",
    "col_eq",
    "Query",
    "AggregateSpec",
    "JoinSpec",
    "FoldState",
    "Executor",
    "QueryResult",
    "ExecutionStats",
    "Recycler",
    "Loader",
    "LoadObserver",
    "estimate_cost",
]
