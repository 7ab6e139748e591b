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
do not.

A fold fresh from one scan keeps the scan's order and each match's
slot in the scanned table, so the rung that was scanned answers from
it as it stands — no sort, no lookup.  Only a merge needs an order
both sides agree on: :meth:`FoldState.fold` (a nested delta, or the
base complement) and the exact answer sort by row id, so exact
base-table answers are reconstructed in precisely the order a
from-scratch scan would have produced them — byte-identical results,
a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import QueryError


@dataclass(frozen=True)
class FoldState:
    """The matching rows accumulated while climbing a ladder.

    ``row_ids`` are *base-table* row ids, unique; ``columns`` carries
    the row-aligned values of every column the query's aggregates and
    grouping read.  A state made by :meth:`from_scan` keeps the rows in
    the order the scan produced them, with ``slots`` — each row's
    position in the scanned table.  ``slots is None`` marks a state in
    ascending row-id order: what :meth:`sorted` and :meth:`fold`
    return, and the only order in which two states can be merged.
    ``scanned_rows`` records the cumulative candidate rows the ladder
    has actually scanned (the quantity escalation is charged for).
    ``value_error`` is the max pointwise drift bound of the accumulated
    values: 0.0 when every scan read hot (or cold, i.e. exact) blocks,
    the quantisation bound when any rung's scan read dequantised warm
    blocks.
    """

    row_ids: np.ndarray
    columns: Dict[str, np.ndarray]
    scanned_rows: int = 0
    value_error: float = 0.0
    slots: Optional[np.ndarray] = None

    @classmethod
    def from_scan(
        cls,
        row_ids: np.ndarray,
        columns: Mapping[str, np.ndarray],
        scanned_rows: int,
        value_error: float = 0.0,
        slots: Optional[np.ndarray] = None,
    ) -> "FoldState":
        """The fold of one scan, in the scan's order.

        ``slots`` are the matches' positions in the scanned table;
        they default to the row ids themselves (a scan of the base
        table, whose positions *are* its row ids).
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return cls(
            row_ids=row_ids,
            columns={name: np.asarray(values) for name, values in columns.items()},
            scanned_rows=int(scanned_rows),
            value_error=float(value_error),
            slots=row_ids if slots is None else np.asarray(slots, dtype=np.int64),
        )

    @property
    def matched(self) -> int:
        """Number of predicate-matching rows accumulated so far."""
        return int(self.row_ids.shape[0])

    def sorted(self) -> "FoldState":
        """This state in ascending row-id order (itself if it already is)."""
        if self.slots is None:
            return self
        return _by_row_id(
            self.row_ids, self.columns, self.scanned_rows, self.value_error
        )

    def fold(self, delta: "FoldState") -> "FoldState":
        """Merge a disjoint delta scan into this state.

        The two row-id sets must be disjoint (a rung's delta never
        re-scans rows a previous rung already consumed); the merged
        state is in ascending row-id order whatever order either side
        was in, since distinct ids have one sorted order.
        """
        if set(self.columns) != set(delta.columns):
            raise QueryError(
                f"cannot fold mismatched column sets: "
                f"{sorted(self.columns)} vs {sorted(delta.columns)}"
            )
        return _by_row_id(
            np.concatenate([self.row_ids, delta.row_ids]),
            {
                name: np.concatenate([values, delta.columns[name]])
                for name, values in self.columns.items()
            },
            self.scanned_rows + delta.scanned_rows,
            max(self.value_error, delta.value_error),
        )


def _by_row_id(
    row_ids: np.ndarray,
    columns: Mapping[str, np.ndarray],
    scanned_rows: int,
    value_error: float,
) -> FoldState:
    """The one sort of the fold: rows reordered by ascending row id."""
    order = np.argsort(row_ids, kind="stable")
    return FoldState(
        row_ids=row_ids[order],
        columns={name: values[order] for name, values in columns.items()},
        scanned_rows=scanned_rows,
        value_error=value_error,
    )
