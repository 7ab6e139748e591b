"""The row-level fold state of incremental (delta) escalation.

SciBORQ's impression hierarchies are *nested*: "each less detailed
impression is derived from a previous more detailed one" (paper §3.1),
so when the bounded query processor escalates from rung k to rung k+1
it has already scanned every row the two rungs share.
:class:`FoldState` is what lets escalation pay only for the rows each
rung adds: the predicate-matching rows seen so far (stable base row
ids plus the value columns the query's aggregates and grouping read),
threaded up the ladder and re-aggregated through the same operators as
a from-scratch scan.  Keeping row ids is what makes the fold
*re-weightable*: a biased rung's Horvitz–Thompson estimates need each
matching row's inclusion probability *under the current rung's
design*, and those πs change from rung to rung even though the values
do not.  Folds merge disjoint scans (a previous rung plus the new
rung's delta) and keep the sorted-by-row-id invariant so exact
base-table answers are reconstructed in precisely the order a
from-scratch scan would have produced them — byte-identical results,
a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.errors import QueryError


@dataclass(frozen=True)
class FoldState:
    """The matching rows accumulated while climbing a nested ladder.

    ``row_ids`` are *base-table* row ids, sorted ascending and unique;
    ``columns`` carries the row-aligned values of every column the
    query's aggregates and grouping read.  ``scanned_rows`` records the
    cumulative candidate rows the ladder has actually scanned (the
    quantity escalation is charged for).  ``value_error`` is the max
    pointwise drift bound of the accumulated values: 0.0 when every
    scan read hot (or cold, i.e. exact) blocks, the quantisation bound
    when any rung's scan read dequantised warm blocks.
    """

    row_ids: np.ndarray
    columns: Dict[str, np.ndarray]
    scanned_rows: int = 0
    value_error: float = 0.0

    @classmethod
    def from_scan(
        cls,
        row_ids: np.ndarray,
        columns: Mapping[str, np.ndarray],
        scanned_rows: int,
        value_error: float = 0.0,
    ) -> "FoldState":
        """The fold of one scan, normalised to ascending row-id order."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        order = np.argsort(row_ids, kind="stable")
        return cls(
            row_ids=row_ids[order],
            columns={
                name: np.asarray(values)[order]
                for name, values in columns.items()
            },
            scanned_rows=int(scanned_rows),
            value_error=float(value_error),
        )

    @property
    def matched(self) -> int:
        """Number of predicate-matching rows accumulated so far."""
        return int(self.row_ids.shape[0])

    def fold(self, delta: "FoldState") -> "FoldState":
        """Merge a disjoint delta scan into this state.

        The two row-id sets must be disjoint (a rung's delta never
        re-scans rows a previous rung already consumed); the merged
        state keeps the sorted invariant.
        """
        if set(self.columns) != set(delta.columns):
            raise QueryError(
                f"cannot fold mismatched column sets: "
                f"{sorted(self.columns)} vs {sorted(delta.columns)}"
            )
        ids = np.concatenate([self.row_ids, delta.row_ids])
        order = np.argsort(ids, kind="stable")
        return FoldState(
            row_ids=ids[order],
            columns={
                name: np.concatenate([values, delta.columns[name]])[order]
                for name, values in self.columns.items()
            },
            scanned_rows=self.scanned_rows + delta.scanned_rows,
            value_error=max(self.value_error, delta.value_error),
        )
