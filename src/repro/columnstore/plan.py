"""Plan inspection: cost estimation and EXPLAIN-style rendering.

The bounded query processor (``repro.core.bounded``) needs an *a
priori* cost estimate per candidate impression to decide which layer a
time-bounded query can afford before running anything.  The model is
the same unit the executor charges — tuples touched — so estimates and
actuals are directly comparable (tests assert the estimate is an upper
bound that is tight on selection-only queries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.columnstore.catalog import Catalog
from repro.columnstore.operators import scan_plan
from repro.columnstore.query import Query
from repro.columnstore.table import Table

if TYPE_CHECKING:  # statistics imports plan's sibling modules
    from repro.columnstore.statistics import TableStatistics


@dataclass(frozen=True)
class PlanStep:
    """One step of an estimated plan."""

    operator: str
    estimated_cost: float
    detail: str = ""


@dataclass(frozen=True)
class PlanEstimate:
    """A whole-plan cost estimate."""

    steps: List[PlanStep]

    @property
    def total_cost(self) -> float:
        """Total estimated tuples touched."""
        return sum(step.estimated_cost for step in self.steps)

    def describe(self) -> str:
        """Multi-line EXPLAIN text."""
        lines = [f"estimated cost: {self.total_cost:g}"]
        lines.extend(
            f"  {step.operator}: {step.estimated_cost:g} {step.detail}".rstrip()
            for step in self.steps
        )
        return "\n".join(lines)


def estimate_cost(
    query: Query,
    catalog: Catalog,
    fact_table: Optional[Table] = None,
    selectivity: float = 1.0,
    statistics: Optional["TableStatistics"] = None,
    scan_rows: Optional[float] = None,
) -> PlanEstimate:
    """Estimate the cost of ``query`` over ``fact_table`` (or the base).

    ``selectivity`` is the assumed fraction of fact rows surviving the
    WHERE clause; 1.0 gives a safe upper bound.  Passing a
    :class:`~repro.columnstore.statistics.TableStatistics` derives the
    selectivity from the source table's histograms instead (refs
    [18]/[23]-style estimation), tightening the downstream steps.
    Joins charge the surviving fact rows plus the full dimension table
    (the sort-based join reads both sides); aggregation and sorting
    charge the rows that reach them.

    The select step is **zone-map aware**: it charges only the rows of
    blocks the predicate's :meth:`~repro.columnstore.expressions.
    Expression.keep_blocks` cannot rule out — the same plan
    (:func:`~repro.columnstore.operators.scan_plan`) the pruned scan
    itself follows — so the estimate the bounded processor's escalation
    decisions see matches the cheaper post-pruning reality exactly.

    ``scan_rows`` prices a select that reads other tables than
    ``fact_table``: a rung that only scans the rows it adds over the
    previous one (a nested impression's delta, or "base minus the
    largest impression consumed"), or a base scan that reads the
    hierarchy's cover of the base.  Pass that cardinality and the
    select step is charged for it alone, while the downstream steps
    (joins, aggregation, sort) still see the full ``fact_table``
    cardinality — they process the cumulative matching rows, not just
    the delta's.
    """
    if statistics is not None:
        selectivity = float(
            np.clip(statistics.selectivity(query.predicate), 0.0, 1.0)
        )
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
    source = fact_table if fact_table is not None else catalog.table(query.table)
    steps: list[PlanStep] = []
    rows = float(source.num_rows)
    if scan_rows is not None:
        if scan_rows < 0:
            raise ValueError(f"scan_rows must be non-negative, got {scan_rows}")
        steps.append(
            PlanStep("select", float(scan_rows), f"scan {source.name} (delta or cover)")
        )
    else:
        _, rows_to_scan, _, blocks_pruned = scan_plan(source, query.predicate)
        detail = f"scan {source.name}"
        if blocks_pruned:
            detail += f" ({blocks_pruned} blocks pruned)"
        value_error = source.max_value_error()
        if value_error > 0.0:
            # the scan may read dequantised warm blocks: surface the
            # pointwise bound the estimates will absorb
            detail += f" (value error ≤ {value_error:g})"
        steps.append(PlanStep("select", float(rows_to_scan), detail))
    surviving = rows * selectivity
    for join in query.joins:
        dimension = catalog.table(join.right_table)
        steps.append(
            PlanStep(
                "join",
                surviving + dimension.num_rows,
                f"⨝ {join.right_table} on {join.left_on}={join.right_on}",
            )
        )
    if query.is_aggregate:
        steps.append(PlanStep("aggregate", surviving, ""))
    if query.order_by:
        steps.append(PlanStep("sort", surviving, f"by {query.order_by}"))
    if query.limit is not None:
        steps.append(PlanStep("limit", min(surviving, float(query.limit)), ""))
    return PlanEstimate(steps=steps)
