"""Ground truth and answer checks, computed by the benchmark itself.

Truth comes from the columns the benchmark generated
(:class:`workloads.RecordingGenerator`), evaluated with plain numpy;
none of the engine's scan, pruning or storage code is involved.  A
sorted copy of the three columns the predicates range over narrows
each evaluation to candidate rows, which keeps the untimed pass to a
second or two for a thousand queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro import And, Between, RadialPredicate

#: ``avg`` over the same rows in another order differs in the last bits.
EXACT_RTOL = 1e-9


class Truth:
    """The generated base columns, queryable by predicate."""

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self.columns = columns
        self._sorted: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._cache: Dict[Tuple[str, int], np.ndarray] = {}

    def _range(self, column: str, lo: float, hi: float) -> np.ndarray:
        """Row ids with ``lo <= column <= hi``."""
        if column not in self._sorted:
            order = np.argsort(self.columns[column], kind="stable")
            self._sorted[column] = (order, self.columns[column][order])
        order, values = self._sorted[column]
        return order[
            np.searchsorted(values, lo, "left") : np.searchsorted(values, hi, "right")
        ]

    def _candidates(self, predicate) -> np.ndarray:
        if isinstance(predicate, RadialPredicate):
            return self._range(
                predicate.x_column,
                predicate.cx - predicate.radius,
                predicate.cx + predicate.radius,
            )
        if isinstance(predicate, Between):
            return self._range(predicate.column, predicate.lo, predicate.hi)
        if isinstance(predicate, And):
            return self._candidates(predicate.operands[0])
        raise TypeError(f"no ground truth for predicate {predicate!r}")

    def _holds(self, predicate, rows: np.ndarray) -> np.ndarray:
        if isinstance(predicate, RadialPredicate):
            dx = self.columns[predicate.x_column][rows] - predicate.cx
            dy = self.columns[predicate.y_column][rows] - predicate.cy
            return dx * dx + dy * dy <= predicate.radius * predicate.radius
        if isinstance(predicate, Between):
            values = self.columns[predicate.column][rows]
            return (values >= predicate.lo) & (values <= predicate.hi)
        if isinstance(predicate, And):
            mask = np.ones(rows.shape[0], dtype=bool)
            for operand in predicate.operands:
                mask &= self._holds(operand, rows)
            return mask
        raise TypeError(f"no ground truth for predicate {predicate!r}")

    def matching(self, predicate, visible_rows: int) -> np.ndarray:
        """Ids of the first ``visible_rows`` rows that satisfy ``predicate``."""
        key = (predicate.fingerprint(), visible_rows)
        rows = self._cache.get(key)
        if rows is None:
            rows = self._candidates(predicate)
            rows = rows[rows < visible_rows]
            rows = rows[self._holds(predicate, rows)]
            self._cache[key] = rows
        return rows

    def aggregate(self, spec, rows: np.ndarray) -> float:
        if spec.fn == "count":
            return float(rows.shape[0])
        if spec.fn == "avg":
            if rows.shape[0] == 0:
                return math.nan
            return float(self.columns[spec.column][rows].mean())
        raise TypeError(f"no ground truth for aggregate {spec.fn!r}")


@dataclass
class Checks:
    """What the untimed pass found, over every answer of one timed phase."""

    failures: List[str] = field(default_factory=list)
    #: one entry per bounded aggregate estimate
    covered: List[bool] = field(default_factory=list)
    relative_errors: List[float] = field(default_factory=list)
    exact_checked: int = 0


def check_answer(truth: Truth, record, checks: Checks) -> None:
    """Check one answered query; failures are described, never raised."""
    outcome, query = record.outcome, record.op.query
    contract = outcome.contract
    label = f"{query.fingerprint()} under {contract!r}"
    if outcome.total_cost != sum(a.cost for a in outcome.attempts):
        checks.failures.append(f"total_cost is not the sum of its attempts: {label}")
    rows = truth.matching(query.predicate, record.visible_rows)
    exact = contract is not None and contract.is_exact
    if exact:
        checks.exact_checked += 1
    if query.is_aggregate:
        estimates = outcome.result.estimates or {}
        for spec in query.aggregates:
            estimate = estimates.get(spec.output_name)
            if estimate is None:
                checks.failures.append(f"no estimate {spec.output_name}: {label}")
                continue
            expected = truth.aggregate(spec, rows)
            if math.isnan(expected):
                continue  # avg over no rows
            # a ladder that ends on the base table reports a zero-width
            # interval, so the last bits of a sum must not count as a miss
            close = math.isclose(estimate.value, expected, rel_tol=EXACT_RTOL)
            if exact:
                if not (estimate.value == expected if spec.fn == "count" else close):
                    checks.failures.append(
                        f"exact {spec.output_name} = {estimate.value!r}, "
                        f"truth {expected!r}: {label}"
                    )
            else:
                checks.covered.append(close or bool(estimate.contains(expected)))
                if expected != 0.0:
                    checks.relative_errors.append(
                        abs(estimate.value - expected) / abs(expected)
                    )
    elif exact:
        returned = outcome.result.rows
        expected_rows = rows.shape[0]
        if query.limit is not None:
            expected_rows = min(expected_rows, query.limit)
        if returned is None or returned.num_rows != expected_rows:
            got = None if returned is None else returned.num_rows
            checks.failures.append(f"exact rows {got}, truth {expected_rows}: {label}")
        elif not np.isin(returned["objID"], rows).all():
            # objID is the load position, so it is the row id
            checks.failures.append(f"exact rows outside the predicate: {label}")
