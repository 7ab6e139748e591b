"""Quality assessment: population estimates from impression answers.

"An important feature of the SciBORQ design is the quality guarantees
given for the query results" (paper §3.2).  Running a query's
operators over an impression yields *sample* statistics; this module
converts them into *population* estimates with confidence intervals,
using the design-appropriate estimator:

* uniform impressions (Algorithm R) → classical SRS estimators with
  finite-population correction;
* any other design (biased, last-seen) → Horvitz–Thompson / Hájek
  estimators driven by the per-row inclusion probabilities that every
  materialised impression carries in its hidden ``_pi`` column.

The reported ``relative_error`` per aggregate is what the bounded
query processor compares against the user's bound to decide whether
to escalate to a more detailed layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.columnstore import operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.executor import (
    ExecutionStats,
    Executor,
    RowSet,
    gather_rows,
    order_and_limit,
)
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.table import Table
from repro.core.impression import PI_COLUMN, Impression
from repro.errors import EstimationError, QueryError, UnknownColumnError
from repro.sampling.reservoir import ReservoirR
from repro.stats.estimators import (
    Estimate,
    hajek_mean,
    ht_count,
    ht_sum,
    propagated_value_error,
    srs_count,
    srs_mean,
    srs_sum,
)
from repro.util.clock import CostClock, ExecutionContext, WallClock


@dataclass
class EstimatedResult:
    """A bounded-quality answer computed from one impression.

    Exactly one of (``estimates``, ``groups``, ``rows``) is the main
    payload depending on the query shape; ``support`` (the estimated
    number of matching base rows) accompanies row queries.
    """

    query: Query
    source: str
    stats: ExecutionStats
    estimates: Optional[Dict[str, Estimate]] = None
    groups: Optional[Table] = None
    group_estimates: Optional[Dict[str, List[Estimate]]] = None
    rows: Optional[Table] = None
    support: Optional[Estimate] = None
    exact: bool = False

    @property
    def worst_relative_error(self) -> float:
        """The largest relative error across all reported estimates.

        This is the quantity a quality contract bounds.  Exact
        (base-data) results report 0.0.
        """
        if self.exact:
            return 0.0
        worst = 0.0
        if self.estimates:
            worst = max(
                (e.relative_error for e in self.estimates.values()), default=0.0
            )
        if self.group_estimates:
            for estimate_list in self.group_estimates.values():
                for estimate in estimate_list:
                    worst = max(worst, estimate.relative_error)
        if self.support is not None:
            worst = max(worst, self.support.relative_error)
        return worst

    def intervals(self) -> Dict[str, tuple]:
        """Per-estimate (low, high) confidence intervals.

        The progressive-execution surface streams one of these per
        ladder rung — a UI draws the interval tightening as the climb
        proceeds.  Scalar aggregates only; grouped and row answers
        carry their uncertainty in ``group_estimates`` / ``support``.
        """
        if not self.estimates:
            return {}
        return {name: est.ci for name, est in self.estimates.items()}

    def describe(self) -> str:
        """Human-readable summary used by the examples."""
        lines = [f"answer from {self.source} (exact={self.exact})"]
        if self.estimates:
            lines.extend(f"  {name} = {est}" for name, est in self.estimates.items())
        if self.groups is not None:
            lines.append(f"  {self.groups.num_rows} groups")
        if self.rows is not None:
            lines.append(f"  {self.rows.num_rows} rows returned")
        if self.support is not None:
            lines.append(f"  estimated matching rows: {self.support}")
        lines.append(f"  worst relative error: {self.worst_relative_error:.4g}")
        return "\n".join(lines)


class ImpressionEstimator:
    """Runs queries over impressions and attaches error bounds.

    Parameters
    ----------
    catalog:
        Resolves the base table (for population size) and dimension
        tables (for joins — dimensions are kept in full, following the
        join-synopsis design, so FK joins over an impression are
        lossless).
    clock:
        Aggregate observer clock shared with the rest of the system;
        per-query accounting happens in the execution context passed
        to :meth:`estimate`.
    confidence:
        Default confidence level for all intervals.
    executor:
        The :class:`~repro.columnstore.executor.Executor` impression
        scans run through.  The estimator never owns a shared one: an
        engine passes its single executor (via the bounded processor),
        so a scheduler installed there serves impression scans too;
        stand-alone, a private executor is created.  Its selection
        cache serves repeated impression scans (see
        :meth:`Executor.select_indices
        <repro.columnstore.executor.Executor.select_indices>`).
    """

    def __init__(
        self,
        catalog: Catalog,
        clock: Optional[CostClock | WallClock] = None,
        confidence: float = 0.95,
        executor: Optional[Executor] = None,
    ) -> None:
        self.catalog = catalog
        self.clock = clock if clock is not None else CostClock()
        self.confidence = confidence
        self.executor = (
            executor if executor is not None else Executor(catalog, clock=self.clock)
        )

    # ------------------------------------------------------------------
    def estimate(
        self,
        query: Query,
        impression: Impression,
        confidence: Optional[float] = None,
        context: Optional[ExecutionContext] = None,
    ) -> EstimatedResult:
        """Answer ``query`` from ``impression`` with error bounds.

        ``context`` is the per-execution cost meter; all operator
        charges of the sample scan go there.
        """
        base = self.catalog.table(query.table)
        imp_table = impression.materialise(base)
        if not query.is_aggregate:
            rows = self.executor.row_set(query, imp_table, context)
            rows.stats.source = impression.name
            return self._rows(query, impression, rows, confidence)
        # the sample's matching rows, carrying ``_pi`` and only the
        # columns the estimators below read
        working, stats = self.executor.working_set(query, imp_table, context)
        stats.source = impression.name
        return self.estimate_from_working(
            query, impression, working, stats, confidence
        )

    def estimate_from_working(
        self,
        query: Query,
        impression: Impression,
        working: Table,
        stats: ExecutionStats,
        confidence: Optional[float] = None,
    ) -> EstimatedResult:
        """Attach error bounds to an already-scanned working set.

        ``working`` holds the predicate-matching sampled rows (with
        their ``_pi`` column) in the impression's scan order.  This is
        the entry point of the delta-escalation path, which assembles
        the working set incrementally — re-weighting rows carried over
        from previous rungs with *this* impression's inclusion
        probabilities — instead of re-scanning the whole impression.
        """
        if not query.is_aggregate:
            return self._rows(
                query, impression, RowSet.whole(working, stats), confidence
            )
        confidence = confidence if confidence is not None else self.confidence
        population = self.catalog.table(query.table).num_rows
        uniform = isinstance(impression.sampler, ReservoirR)
        if query.group_by:
            return self._grouped(
                query, impression, working, stats, population, uniform, confidence
            )
        return self._scalar(
            query, impression, working, stats, population, uniform, confidence
        )

    # ------------------------------------------------------------------
    # scalar aggregates
    # ------------------------------------------------------------------
    def _one_estimate(
        self,
        spec: AggregateSpec,
        values: Optional[np.ndarray],
        pis: np.ndarray,
        sample_size: int,
        population: int,
        uniform: bool,
        confidence: float,
        value_error: float = 0.0,
    ) -> Estimate:
        """Dispatch one aggregate to the design-appropriate estimator.

        ``value_error`` is the max pointwise drift bound of the scanned
        values (non-zero when the scan read dequantised warm blocks);
        it is propagated through the aggregate into the estimate's
        ``value_error`` so the reported CI absorbs it.
        """
        estimate = self._dispatch_estimate(
            spec, values, pis, sample_size, population, uniform, confidence
        )
        if value_error <= 0.0:
            return estimate
        if spec.fn == "sum":
            if uniform:
                matched_weight = (
                    population * pis.shape[0] / sample_size if sample_size else 0.0
                )
            else:
                matched_weight = float((1.0 / pis).sum()) if pis.shape[0] else 0.0
        else:
            matched_weight = 0.0
        return replace(
            estimate,
            value_error=propagated_value_error(
                spec.fn, value_error, matched_weight, estimate.value
            ),
        )

    def _dispatch_estimate(
        self,
        spec: AggregateSpec,
        values: Optional[np.ndarray],
        pis: np.ndarray,
        sample_size: int,
        population: int,
        uniform: bool,
        confidence: float,
    ) -> Estimate:
        if spec.fn == "count":
            if uniform:
                return srs_count(
                    int(pis.shape[0]), sample_size, population, confidence
                )
            return ht_count(pis, confidence, population)
        assert values is not None
        if spec.fn == "sum":
            if uniform:
                return srs_sum(values, sample_size, population, confidence)
            return ht_sum(values, pis, confidence, population)
        if spec.fn == "avg":
            if values.shape[0] == 0:
                raise EstimationError(
                    "no matching sampled tuples to average over"
                )
            if uniform:
                return srs_mean(values, sample_size, population, confidence)
            return hajek_mean(values, pis, confidence, population)
        if spec.fn in ("min", "max"):
            # No unbiased sample estimator exists for extremes: report
            # the sample extreme with an unbounded error so quality
            # contracts force escalation.
            point = (
                float(values.min() if spec.fn == "min" else values.max())
                if values.shape[0]
                else float("nan")
            )
            return Estimate(
                value=point,
                se=math.inf,
                confidence=confidence,
                method=f"sample-{spec.fn}",
                sample_size=sample_size,
                population_size=population,
            )
        if spec.fn in ("var", "std"):
            # Weighted plug-in estimate with a normal-theory rough SE.
            if values.shape[0] < 2:
                raise EstimationError(
                    f"{spec.fn} needs at least two matching sampled tuples"
                )
            mean = hajek_mean(values, pis, confidence).value
            weights = 1.0 / pis
            var = float(
                (weights * (values - mean) ** 2).sum() / weights.sum()
            )
            point = math.sqrt(var) if spec.fn == "std" else var
            rough_se = point * math.sqrt(2.0 / (values.shape[0] - 1))
            return Estimate(
                value=point,
                se=rough_se,
                confidence=confidence,
                method=f"plugin-{spec.fn}",
                sample_size=sample_size,
                population_size=population,
            )
        raise QueryError(f"unknown aggregate {spec.fn!r}")

    def _scalar(
        self,
        query: Query,
        impression: Impression,
        working: Table,
        stats: ExecutionStats,
        population: int,
        uniform: bool,
        confidence: float,
    ) -> EstimatedResult:
        pis = working[PI_COLUMN]
        estimates: Dict[str, Estimate] = {}
        for spec in query.aggregates:
            values = working[spec.column] if spec.column is not None else None
            delta = (
                working.column(spec.column).max_value_error()
                if spec.column is not None
                else 0.0
            )
            estimates[spec.output_name] = self._one_estimate(
                spec,
                np.asarray(values, dtype=float) if values is not None else None,
                np.asarray(pis, dtype=float),
                impression.size,
                population,
                uniform,
                confidence,
                value_error=delta,
            )
        return EstimatedResult(
            query=query,
            source=impression.name,
            stats=stats,
            estimates=estimates,
        )

    # ------------------------------------------------------------------
    # grouped aggregates
    # ------------------------------------------------------------------
    def _grouped(
        self,
        query: Query,
        impression: Impression,
        working: Table,
        stats: ExecutionStats,
        population: int,
        uniform: bool,
        confidence: float,
    ) -> EstimatedResult:
        pis = np.asarray(working[PI_COLUMN], dtype=float)
        codes, first_index = _group_codes(working, query.group_by)
        n_groups = int(codes.max()) + 1 if codes.shape[0] else 0
        group_estimates: Dict[str, List[Estimate]] = {}
        for spec in query.aggregates:
            values = (
                np.asarray(working[spec.column], dtype=float)
                if spec.column is not None
                else None
            )
            delta = (
                working.column(spec.column).max_value_error()
                if spec.column is not None
                else 0.0
            )
            per_group: List[Estimate] = []
            for g in range(n_groups):
                mask = codes == g
                per_group.append(
                    self._one_estimate(
                        spec,
                        values[mask] if values is not None else None,
                        pis[mask],
                        impression.size,
                        population,
                        uniform,
                        confidence,
                        value_error=delta,
                    )
                )
            group_estimates[spec.output_name] = per_group

        key_columns = [
            Column(
                name,
                working.column(name).dtype,
                working[name][first_index],
            )
            for name in query.group_by
        ]
        for spec in query.aggregates:
            estimate_list = group_estimates[spec.output_name]
            key_columns.append(
                Column(
                    spec.output_name,
                    np.float64,
                    np.array([e.value for e in estimate_list]),
                )
            )
            key_columns.append(
                Column(
                    f"{spec.output_name}__se",
                    np.float64,
                    np.array([e.se for e in estimate_list]),
                )
            )
        groups = Table("groups", key_columns)
        if query.order_by and groups.has_column(query.order_by):
            groups, _ = operators.sort(groups, query.order_by, query.descending)
        if query.limit is not None:
            groups, _ = operators.limit(groups, query.limit)
        return EstimatedResult(
            query=query,
            source=impression.name,
            stats=stats,
            groups=groups,
            group_estimates=group_estimates,
        )

    # ------------------------------------------------------------------
    # row queries
    # ------------------------------------------------------------------
    def _rows(
        self,
        query: Query,
        impression: Impression,
        rows: RowSet,
        confidence: Optional[float],
    ) -> EstimatedResult:
        """A row answer from the sample: the support estimate, then the
        executor's row step — order and limit on the index vector, one
        gather of the kept rows.  A uniform rung counts its matches; a
        biased one gathers ``_pi`` at them, and nothing else, for
        :func:`ht_count`."""
        confidence = confidence if confidence is not None else self.confidence
        population = self.catalog.table(query.table).num_rows
        matched = rows.indices
        if isinstance(impression.sampler, ReservoirR):
            support = srs_count(
                int(matched.shape[0]), impression.size, population, confidence
            )
        else:
            pis, _ = rows.table.column(PI_COLUMN).gather_with_error(matched)
            support = ht_count(np.asarray(pis, dtype=float), confidence, population)
        kept, _, name = order_and_limit(query, rows.table, matched, rows.name)
        names = query.select or [n for n in rows.table.column_names if n != PI_COLUMN]
        for n in names:
            if not rows.table.has_column(n):
                raise UnknownColumnError(name, n)
        return EstimatedResult(
            query=query,
            source=impression.name,
            stats=rows.stats,
            rows=gather_rows(
                rows.table, kept, matched, names, f"{name}#project", query.order_by
            ),
            support=support,
        )


def _group_codes(table: Table, group_by) -> tuple[np.ndarray, np.ndarray]:
    """Dense group codes + first-row index per group, in code order."""
    codes = np.zeros(table.num_rows, dtype=np.int64)
    for name in group_by:
        uniq, inverse = np.unique(table[name], return_inverse=True)
        codes = codes * max(uniq.shape[0], 1) + inverse
    _, first_index, dense = np.unique(codes, return_index=True, return_inverse=True)
    return dense, first_index
