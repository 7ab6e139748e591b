"""Cost prediction: what a bounded rung will charge, before it runs.

The bounded query processor (``repro.core.bounded``) needs an *a
priori* cost per candidate impression to decide which layer a
time-bounded query can afford before running anything.  The model is
the same unit the executor charges — tuples touched — so predictions
and actuals are directly comparable (tests assert the prediction is an
upper bound that is tight on selection-only queries).
"""

from __future__ import annotations

from typing import Optional

from repro.columnstore.catalog import Catalog
from repro.columnstore.operators import scan_plan
from repro.columnstore.query import Query
from repro.columnstore.table import Table


def estimate_cost(
    query: Query,
    catalog: Catalog,
    fact_table: Optional[Table] = None,
    selectivity: float = 1.0,
    scan_rows: Optional[float] = None,
) -> float:
    """Predicted tuples touched by ``query`` over ``fact_table`` (or the base).

    ``selectivity`` is the assumed fraction of fact rows surviving the
    WHERE clause; 1.0 gives a safe upper bound.  Joins charge the
    surviving fact rows plus the full dimension table (the sort-based
    join reads both sides); aggregation and sorting charge the rows
    that reach them, and a limit at most its row count.

    The select is **zone-map aware**: it charges only the rows of
    blocks the predicate's :meth:`~repro.columnstore.expressions.
    Expression.keep_blocks` cannot rule out — the same plan
    (:func:`~repro.columnstore.operators.scan_plan`) the pruned scan
    itself follows — so the prediction the bounded processor's
    escalation decisions see matches the post-pruning charge exactly.

    ``scan_rows`` prices a select that reads other tables than
    ``fact_table``: a rung that only scans the rows it adds over the
    previous one (a nested impression's delta, or "base minus the
    largest impression consumed"), or a base scan that reads the
    hierarchy's cover of the base.  Pass that cardinality and the
    select is charged for it alone, while the downstream operators
    (joins, aggregation, sort) still see the full ``fact_table``
    cardinality — they process the cumulative matching rows, not just
    the delta's.
    """
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
    source = fact_table if fact_table is not None else catalog.table(query.table)
    if scan_rows is not None:
        if scan_rows < 0:
            raise ValueError(f"scan_rows must be non-negative, got {scan_rows}")
        cost = float(scan_rows)
    else:
        cost = float(scan_plan(source, query.predicate)[1])
    surviving = float(source.num_rows) * selectivity
    for join in query.joins:
        cost += surviving + catalog.table(join.right_table).num_rows
    if query.is_aggregate:
        cost += surviving
    if query.order_by:
        cost += surviving
    if query.limit is not None:
        cost += min(surviving, float(query.limit))
    return cost
