"""Bounded query processing: error and time bounds with escalation.

This is the paper's §3.2 in executable form:

* **Quality bound** — "if the error bound requested is not met during
  execution, the query evaluation moves to an impression on a lower
  level, with a higher level of detail, to confine the error margin.
  Ultimately, this can lead to the base columns for a zero error
  margin."  The processor walks the hierarchy cheapest-first, assesses
  each answer's worst relative error, and escalates until the bound
  holds (the base table being the final, exact rung).
* **Time bound** — "give me the most representative result you can
  obtain within 5 minutes."  Costs are pre-estimated per rung
  (tuples-touched model, see :mod:`repro.columnstore.plan`); the
  smallest rung always runs, the climb stops at the first rung that
  does not fit the remaining budget, and the best answer obtained is
  returned with its achieved error.

The default mode degrades gracefully — it always returns the best
answer it could afford, flagging ``met_quality``/``met_budget``.
``strict=True`` raises instead (:class:`~repro.errors.QualityBoundError`
/ :class:`~repro.errors.BudgetExceededError`).

**Delta escalation.**  The paper's hierarchies are nested ("each less
detailed impression is derived from a previous more detailed one",
§3.1), so a ladder climb used to re-pay for every row the previous
rung had already scanned.  For foldable queries (aggregates without
joins) the processor now threads a :class:`~repro.columnstore.aggstate.
FoldState` up the ladder: each rung scans only ``delta_row_ids(prev)``
— the rows it adds — folds the matches into the accumulated state,
and re-weights the whole state with *its own* inclusion probabilities
so Horvitz–Thompson estimates stay exactly what a from-scratch scan
would produce.  The final base rung scans "base minus the largest
impression already consumed" and reconstructs the exact answer in
base-row order — byte-identical to a full scan.  Cost predictions
(`affords`) price the delta, so time budgets reach deeper rungs.
A rung not nested over the previous one (independent reservoirs, as a
freshly built uniform hierarchy has) is scanned from scratch and its
fold restarted; that fold stays in the scan's order, with each match's
slot in the scanned table, and the rung answers from it as it stands —
row ids and πs read off the one table the scan read, nothing sorted or
looked up.  Only a merge sorts by row id: folding in a nested delta or
the base complement, and finishing the exact answer.  Row queries and
joins take the from-scratch path with unchanged semantics.  A base rung
with nothing folded below it selects through the hierarchy's cell-laid
cover of the base when :meth:`~repro.core.hierarchy.
ImpressionHierarchy.base_cover` says so — the same indices as a base
scan, fewer rows charged — and the planner prices it the same way.

**Progressive execution.**  The ladder is a generator at heart:
:meth:`BoundedQueryProcessor.run` yields one :class:`~repro.core.
handle.ProgressUpdate` per executed rung — the rung's own answer with
confidence intervals, finalised from state the escalation decision
already computed, so streaming charges nothing — and returns the
final :class:`BoundedResult`.  :meth:`~BoundedQueryProcessor.execute`
is a thin drain loop over it; ``engine.submit`` wraps it in a
:class:`~repro.core.handle.QueryHandle` (iterable, cancellable
between rungs).  Contracts are first-class values
(:mod:`repro.core.contracts`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.columnstore.aggstate import FoldState
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.executor import (
    BaseCover,
    ExecutionStats,
    Executor,
    QueryResult,
)
from repro.columnstore.operators import OperatorStats
from repro.columnstore.plan import estimate_cost
from repro.columnstore.query import Query
from repro.columnstore.table import Table
from repro.core.contracts import Contract
from repro.core.handle import ProgressUpdate
from repro.core.hierarchy import ImpressionHierarchy
from repro.core.impression import PI_COLUMN, Impression
from repro.core.quality import EstimatedResult, ImpressionEstimator
from repro.errors import (
    BudgetExceededError,
    EstimationError,
    ImpressionError,
    QualityBoundError,
    QueryError,
)
from repro.util.clock import CostClock, ExecutionContext, WallClock


@dataclass(frozen=True)
class ExecutionAttempt:
    """One rung of the escalation ladder, as actually executed.

    ``delta_rows`` is the number of rows this attempt actually had to
    scan (after delta escalation and zone-map pruning); ``None`` on
    the from-scratch path, where the whole rung is read.
    """

    source: str
    rows: int
    cost: float
    relative_error: float
    satisfied: bool
    delta_rows: Optional[int] = None


@dataclass
class BoundedResult:
    """The outcome of a bounded execution."""

    result: EstimatedResult
    attempts: List[ExecutionAttempt] = field(default_factory=list)
    met_quality: bool = True
    met_budget: bool = True
    total_cost: float = 0.0
    #: The contract this execution ran under (None on legacy paths
    #: that never threaded one through).  Carries the SLA tier when
    #: the contract came from a preset, so :meth:`describe` can name
    #: the promise without a side lookup.
    contract: Optional[Contract] = None

    @property
    def achieved_error(self) -> float:
        """Worst relative error of the returned answer."""
        return self.result.worst_relative_error

    @property
    def escalations(self) -> int:
        """How many rungs beyond the first were tried."""
        return max(0, len(self.attempts) - 1)

    def describe(self) -> str:
        """Multi-line trace of the escalation ladder.

        When the contract came from a tier preset the header names it
        (``bounded execution [gold]: ...``) — promise-vs-achieved in
        one line; untiered executions render exactly as before.
        """
        tier = (
            f" [{self.contract.tier}]"
            if self.contract is not None and self.contract.tier is not None
            else ""
        )
        lines = [
            f"bounded execution{tier}: {len(self.attempts)} attempt(s), "
            f"total cost {self.total_cost:g}, "
            f"achieved error {self.achieved_error:.4g}, "
            f"quality={'met' if self.met_quality else 'MISSED'}, "
            f"budget={'met' if self.met_budget else 'EXCEEDED'}"
        ]
        lines.extend(
            f"  [{i}] {a.source}: rows={a.rows} "
            + (
                f"scanned={a.delta_rows} (Δ) "
                if a.delta_rows is not None and a.delta_rows < a.rows
                else ""
            )
            + f"cost={a.cost:g} "
            f"error={a.relative_error:.4g} "
            f"{'✓' if a.satisfied else '✗'}"
            for i, a in enumerate(self.attempts)
        )
        return "\n".join(lines)


class BoundedQueryProcessor:
    """Executes queries under quality contracts over a hierarchy.

    Parameters
    ----------
    catalog:
        Base and dimension tables.
    hierarchy:
        The impression ladder for the fact table.
    clock:
        Aggregate observer clock (one per engine or session); each
        query opens its own :class:`ExecutionContext` against it, so
        concurrent executions never see each other's spending.
    delta_escalation:
        Whether foldable queries (aggregates without joins) climb the
        ladder incrementally, paying only for the rows each rung adds
        over the previous one.  On by default; the from-scratch ladder
        remains available for comparison (the escalation benchmark
        pins the two paths' answers against each other).
    executor:
        The :class:`~repro.columnstore.executor.Executor` every rung
        scan — impression, delta, complement, and base — runs through,
        shared with this processor's :attr:`estimator`.  The engine
        passes its single executor, so the scheduler it installs there
        serves rung scans at once (and its exact path scans through the
        same object); stand-alone, a private executor is created.
        Every rung scan consults the executor's selection cache once, in
        :meth:`Executor.select_indices
        <repro.columnstore.executor.Executor.select_indices>`.
    """

    def __init__(
        self,
        catalog: Catalog,
        hierarchy: ImpressionHierarchy,
        clock: Optional[CostClock | WallClock] = None,
        delta_escalation: bool = True,
        executor: Optional[Executor] = None,
    ) -> None:
        self.catalog = catalog
        self.hierarchy = hierarchy
        self.delta_escalation = delta_escalation
        self.clock = clock if clock is not None else CostClock()
        self.executor = (
            executor if executor is not None else Executor(catalog, clock=self.clock)
        )
        self.estimator = ImpressionEstimator(
            catalog, clock=self.clock, executor=self.executor
        )
        # wall-clock mode: tuples-per-second throughput, calibrated
        # from observed rung executions (None until the first rung);
        # concurrent sessions share one processor, so the blend is
        # guarded against lost updates.
        self._throughput: Optional[float] = None
        self._throughput_lock = threading.Lock()

    def new_context(self, limit: Optional[float] = None) -> ExecutionContext:
        """Open a per-query context observed by this processor's clock."""
        return ExecutionContext(clock=self.clock, limit=limit)

    def _budget_units(
        self, predicted_cost: float, context: ExecutionContext
    ) -> float:
        """Convert a tuples-touched prediction into the context's units.

        A cost-metered context charges tuples directly.  A wall-mode
        context measures seconds, so the prediction is divided by the
        calibrated throughput; before any calibration every rung looks
        affordable (optimistic start, the paper's interactive bias).
        """
        if not context.is_wall:
            return predicted_cost
        if self._throughput is None or self._throughput <= 0:
            return 0.0
        return predicted_cost / self._throughput

    def _observe_throughput(
        self, charged: float, elapsed: float, context: ExecutionContext
    ) -> None:
        """Blend one rung's observed tuples/sec into the calibration.

        ``charged`` is the cost the rung *actually* billed to its
        context (tuples touched), not the planner's prediction —
        calibrating from predictions would skew the rate by exactly
        the selectivity-estimation error and bias every later
        budget-unit conversion.
        """
        if not context.is_wall or elapsed <= 0 or charged <= 0:
            return
        observed = charged / elapsed
        with self._throughput_lock:
            if self._throughput is None:
                self._throughput = observed
            else:
                self._throughput = 0.5 * (self._throughput + observed)

    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        contract: Contract | None = None,
        context: Optional[ExecutionContext] = None,
    ) -> BoundedResult:
        """Answer ``query`` under ``contract`` (default: unconstrained).

        A thin drain loop over :meth:`run` — the ladder executes
        exactly as before, the per-rung progress snapshots are simply
        discarded.  Kept as the blocking entry point; callers who want
        the snapshots use ``engine.submit`` (a
        :class:`~repro.core.handle.QueryHandle` over :meth:`run`).
        """
        stream = self.run(query, contract, context)
        while True:
            try:
                next(stream)
            except StopIteration as stop:
                return stop.value

    def run(
        self,
        query: Query,
        contract: Contract | None = None,
        context: Optional[ExecutionContext] = None,
    ) -> Generator[ProgressUpdate, None, BoundedResult]:
        """The generator core: yield one update per executed rung.

        With no contract the smallest covering impression answers —
        the interactive-exploration default.  The base table is always
        the ladder's last rung.  ``context`` is the per-execution cost
        meter; when absent one is opened against the contract's time
        budget, with this processor's clock as aggregate observer —
        lazily, at the first step, so wall-mode budgets bill execution
        time rather than time spent queued.

        Every executed rung — answered or unanswerable — yields one
        :class:`ProgressUpdate` whose estimates are the rung's own
        answer (the same object escalation decisions are made from,
        so streaming charges nothing extra) and whose ``partial`` is
        the best-so-far :class:`BoundedResult`.  The generator's
        return value is the final outcome; strict-mode violations
        raise only at natural completion, never mid-stream.
        """
        contract = contract if contract is not None else Contract()
        if query.table != self.hierarchy.base_table:
            raise QueryError(
                f"processor serves {self.hierarchy.base_table!r}, "
                f"query targets {query.table!r}"
            )
        if context is None:
            context = self.new_context(contract.time_budget)
        base = self.catalog.table(query.table)
        entry_spent = context.spent

        def affords(units: float) -> bool:
            # Per-call budget view: the contract's time budget applies
            # to *this* execution's spending even when the caller hands
            # in a reusable (or unlimited) context, and the context's
            # own limit still caps everything.  The caller's context is
            # never mutated.
            if not context.affords(units):
                return False
            if contract.time_budget is None:
                return True
            return units <= contract.time_budget - (context.spent - entry_spent)

        # an exact contract goes straight to the base columns — no
        # impression rung is ever considered — and reads their warm
        # blocks' raw bytes from the spill, changing no tier
        raw = contract.is_exact
        if raw:
            ladder: List[Optional[Impression]] = [None]
        else:
            ladder = list(self.hierarchy.candidates_for(query, base))
            ladder.append(None)  # the base table: exact, most expensive

        foldable = self._foldable_enabled(query)
        # Delta state threaded up the ladder: the matching rows of
        # everything scanned so far, and the rung whose rows are fully
        # consumed (the next rung deltas against it).
        fold: Optional[FoldState] = None
        consumed: Optional[Impression] = None

        attempts: List[ExecutionAttempt] = []
        best: Optional[EstimatedResult] = None
        best_error = float("inf")

        def step(rung: Optional[Impression], recover: bool) -> ProgressUpdate:
            """Execute one rung: scan → answer → attempt → snapshot.

            With ``recover`` an unanswerable rung is recorded as an
            infinite-error attempt (and a fold invalidated by sampler
            churn degrades to a from-scratch scan); without it those
            errors propagate — the answer of last resort has no rung
            left to escalate to.
            """
            nonlocal fold, consumed, best, best_error
            spent_before = context.spent
            charged_before = context.charged_units
            shared_before = context.shared_units
            scanned: Optional[int] = None
            result: Optional[EstimatedResult] = None
            try:
                if foldable:
                    try:
                        fold, consumed, stats, op, scan_table = self._scan_foldable(
                            query, rung, consumed, fold, base, context, raw
                        )
                        scanned = op.tuples_in
                        result = self._answer_from_fold(
                            query,
                            rung,
                            fold,
                            scan_table,
                            stats,
                            contract.confidence,
                            base,
                            context,
                        )
                        result.stats.charged = context.spent - spent_before
                    except ImpressionError:
                        if not recover:
                            raise
                        # live sampler churn invalidated the fold (a
                        # caller driving ingest concurrently without
                        # the server's read/write lock): degrade to a
                        # from-scratch rung and rebuild delta state
                        # from here instead of failing the query.
                        fold, consumed, scanned = None, None, None
                        result = self._run_rung(
                            query, rung, contract.confidence, base, context, raw
                        )
                else:
                    result = self._run_rung(
                        query, rung, contract.confidence, base, context, raw
                    )
            except EstimationError:
                # the rung's sample holds no tuple this query needs
                # (e.g. AVG over a region the tiny layer missed):
                # record an unanswerable attempt and escalate.  On the
                # foldable path the scan itself has already been folded
                # in, so later rungs still pay only their delta.
                if not recover:
                    raise
            if result is None:
                source = base.name if rung is None else rung.name
                attempt_error = float("inf")
            else:
                source = result.source
                attempt_error = result.worst_relative_error
                if attempt_error < best_error or best is None:
                    best, best_error = result, attempt_error
                # calibrate from work this rung *performed*: charges
                # served by the shared-scan scheduler took no wall time
                # here, and blending them in would record an absurd
                # tuples/sec rate that breaks later time-budget
                # conversions
                self._observe_throughput(
                    (context.charged_units - charged_before)
                    - (context.shared_units - shared_before),
                    context.spent - spent_before,
                    context,
                )
            attempts.append(
                ExecutionAttempt(
                    source=source,
                    rows=base.num_rows if rung is None else rung.size,
                    cost=context.spent - spent_before,
                    relative_error=attempt_error,
                    satisfied=result is not None
                    and (
                        contract.max_relative_error is None
                        or attempt_error <= contract.max_relative_error
                    ),
                    delta_rows=scanned,
                )
            )
            return progress_snapshot(
                contract, context, entry_spent, attempts,
                result, best, best_error,
            )

        # with neither a time budget nor a context limit, affords() is
        # always true: nothing can refuse a rung, so none is priced
        priced = contract.time_budget is not None or context.limit is not None
        for rung in ladder:
            fits = True
            if priced:
                cost = self._predicted_rung_cost(query, rung, base, consumed, fold)
                fits = affords(self._budget_units(cost, context))
            if attempts and not fits:
                # We already have an answer and the next rung does not
                # fit the remaining budget: stop escalating.  With no
                # answer yet the rung at hand is the smallest (ladders
                # run cheapest-first and samplers fill first), so it
                # runs whatever it costs: the answer of last resort.
                break
            update = step(rung, recover=True)
            yield update
            if update.satisfied:
                break

        if best is None:
            # every affordable rung was unanswerable (e.g. AVG over a
            # region no sample covers, budget blocking the base): the
            # base table is the answer of last resort.
            yield step(None, recover=False)
        call_spent = context.spent - entry_spent
        met_quality = (
            contract.max_relative_error is None
            or best_error <= contract.max_relative_error
        )
        met_budget = (
            contract.time_budget is None or call_spent <= contract.time_budget
        )
        if contract.strict and not met_quality:
            raise QualityBoundError(contract.max_relative_error, best_error)
        if contract.strict and not met_budget:
            raise BudgetExceededError(contract.time_budget, call_spent)
        return BoundedResult(
            result=best,
            attempts=attempts,
            met_quality=met_quality,
            met_budget=met_budget,
            total_cost=call_spent,
            contract=contract,
        )

    # ------------------------------------------------------------------
    def _predicted_cost(
        self, query: Query, rung: Optional[Impression], base
    ) -> float:
        if rung is None:
            # the select step the scan will take: the cover's, if any
            cover = self.hierarchy.base_cover(query.predicate, base)
            return estimate_cost(
                query,
                self.catalog,
                scan_rows=None if cover is None else cover.scan_rows,
            )
        fact = rung.materialise(base)
        return estimate_cost(query, self.catalog, fact_table=fact)

    def _predicted_rung_cost(
        self,
        query: Query,
        rung: Optional[Impression],
        base,
        consumed: Optional[Impression],
        fold: Optional[FoldState],
    ) -> float:
        """Predict what escalating to ``rung`` actually pays.

        With a fold in hand a nested rung only scans its delta, so
        ``affords()`` must gate on the delta's scan cost, not the whole
        rung's — that is what lets time budgets climb deeper.  An
        impression rung's delta pays its (pruned) delta scan only; the
        estimator's population arithmetic is uncharged, exactly as on
        the from-scratch path.  The base rung pays the complement scan
        plus the exact aggregation, whose input the fold's *observed*
        selectivity predicts far better than the planner's default.
        Falls back to the from-scratch prediction when no state is
        threaded yet or the rungs are not nested.
        """
        if consumed is None or fold is None:
            return self._predicted_cost(query, rung, base)
        if rung is None:
            # cardinality-only: predicting the exact rung must not
            # materialise the complement (affords() may reject it);
            # the un-pruned complement size is a safe upper bound on
            # the scan, and the fold's observed selectivity prices the
            # downstream aggregation far better than the default.
            complement_rows = float(max(base.num_rows - consumed.size, 0))
            selectivity = min(fold.matched / max(consumed.size, 1), 1.0)
            return estimate_cost(
                query,
                self.catalog,
                selectivity=selectivity,
                scan_rows=complement_rows,
            )
        delta_ids = rung.delta_row_ids(consumed)
        if delta_ids is None:
            return self._predicted_cost(query, rung, base)
        # the estimator charges an impression rung only its scan, and
        # the delta's cardinality bounds that from above — no need to
        # materialise the delta table just to consider the rung
        return float(delta_ids.shape[0])

    # ------------------------------------------------------------------
    # delta escalation (the foldable path)
    # ------------------------------------------------------------------
    @staticmethod
    def _foldable(query: Query) -> bool:
        """Whether the ladder can thread partial state for this query.

        Aggregates (grouped or not) fold; row queries and joins do not
        — their outputs are not mergeable states — and run from
        scratch per rung exactly as before.
        """
        return bool(query.aggregates) and not query.joins

    def _foldable_enabled(self, query: Query) -> bool:
        return self.delta_escalation and self._foldable(query)

    def _scan_foldable(
        self,
        query: Query,
        rung: Optional[Impression],
        consumed: Optional[Impression],
        fold: Optional[FoldState],
        base,
        context: ExecutionContext,
        raw: bool = False,
    ) -> Tuple[
        FoldState, Optional[Impression], ExecutionStats, OperatorStats, Table
    ]:
        """Scan the rows ``rung`` adds and fold their matches in.

        Returns ``(fold, consumed, stats, select_op, scan_table)`` where
        ``fold`` covers everything scanned so far, ``consumed`` is the
        rung the *next* step should delta against and ``scan_table`` is
        the table this step read.  A rung that is not a superset of
        ``consumed`` resets the fold and is scanned from scratch
        (identical results, no saving): the fold then stays in the
        scan's order, and nothing is sorted.  With ``raw`` (an exact
        contract's base rung) the scan and the gathers read warm blocks'
        raw bytes (:meth:`Executor.select_indices
        <repro.columnstore.executor.Executor.select_indices>`).
        """
        # aggregate inputs + group keys (a foldable query has no joins)
        needed = sorted(query.columns_carried())
        ids: Optional[np.ndarray]
        cover = None
        # every branch takes its ids from the very table it scans: ids
        # from a different sampler state than the table would mis-map
        # matches (a live offer can land between two separate reads)
        if rung is None:
            if consumed is not None and fold is not None:
                scan_table = consumed.materialise_complement(base)
                ids = scan_table.row_ids
            else:
                ids = None  # no state yet: scan the base itself
                scan_table = base
                cover = self.hierarchy.base_cover(query.predicate, base)
            next_consumed = consumed
            source, source_rows = base.name, base.num_rows
        else:
            scan_table = (
                rung.materialise_delta(base, consumed)
                if consumed is not None and fold is not None
                else None
            )
            if scan_table is None:
                fold = None  # not nested: rebuild the state from scratch
                scan_table = rung.materialise(base)
            ids = scan_table.row_ids
            next_consumed = rung
            source, source_rows = rung.name, rung.size
        indices, op = self.executor.select_indices(
            scan_table, query.predicate, context, cover=cover, raw=raw
        )
        stats = ExecutionStats(source=source, source_rows=source_rows)
        stats.add(op)
        matched_ids = indices if ids is None else ids[indices].astype(np.int64)
        # gather per touched block (demoted blocks decompress at most
        # once, pruned ones never) and record the worst pointwise drift
        # bound of the blocks actually read
        columns: Dict[str, np.ndarray] = {}
        value_error = 0.0
        for name in needed:
            values, error = scan_table.column(name).gather_with_error(indices, raw)
            columns[name] = values
            value_error = max(value_error, error)
        # scanned_rows is the charged quantity: rows the scan actually
        # read (post zone-map pruning), not the candidate delta size
        this_scan = FoldState.from_scan(
            matched_ids,
            columns,
            scanned_rows=op.tuples_in,
            value_error=value_error,
            slots=indices,
        )
        fold = this_scan if fold is None else fold.fold(this_scan)
        return fold, next_consumed, stats, op, scan_table

    def _answer_from_fold(
        self,
        query: Query,
        rung: Optional[Impression],
        fold: FoldState,
        scan_table: Table,
        stats: ExecutionStats,
        confidence: float,
        base,
        context: ExecutionContext,
    ) -> EstimatedResult:
        """Turn the accumulated fold into this rung's answer.

        A fold still in scan order (``fold.slots``) comes from a
        from-scratch scan of ``rung`` itself: its rows already are the
        rung's scan order, and ``scan_table`` — the table that scan read —
        holds their πs in its ``_pi`` column, so they are used as they
        stand.  A merged fold (a nested delta rung) is re-ordered to the
        rung table's row order and re-weighted with that table's πs; a
        union of two scans has no single scan order to keep.  Either way
        the working set goes to the standard estimator and the result is
        exactly what a from-scratch scan of the rung would have produced.
        For the base rung the fold already *is* the full matching row
        set, reconstructed in base order for a byte-identical exact
        answer.
        """
        if rung is None:
            return self._exact_from_fold(
                query, fold, stats, confidence, base, context
            )
        if fold.slots is not None:
            order = None
            pis = scan_table.column(PI_COLUMN).gather(fold.slots)
        else:
            positions = rung.positions_of(fold.row_ids)
            order = np.argsort(positions, kind="stable")
            pis = rung.materialise(base).column(PI_COLUMN).gather(positions[order])
        columns = []
        for name, values in fold.columns.items():
            column = Column.from_external(
                name, values.dtype, values if order is None else values[order]
            )
            # the fold's values may have been read from dequantised
            # warm blocks: the working copy must carry the bound so
            # the estimator widens its CIs accordingly
            column.declare_value_error(fold.value_error)
            columns.append(column)
        columns.append(Column.from_external(PI_COLUMN, np.float64, pis))
        working = Table(f"{base.name}§{rung.name}#fold", columns)
        return self.estimator.estimate_from_working(
            query, rung, working, stats, confidence
        )

    def _exact_from_fold(
        self,
        query: Query,
        fold: FoldState,
        stats: ExecutionStats,
        confidence: float,
        base,
        context: ExecutionContext,
    ) -> EstimatedResult:
        """The exact base answer from the fold (aggregates only).

        Finished by the executor's own aggregate step — same operators
        over the same rows in the same (base) order — while having
        charged only the complement scan.  "Exact" holds only
        when every scanned block was hot or cold (raw bytes); a fold
        that read dequantised warm blocks carries a non-zero
        ``value_error``, and the answer degrades honestly to a
        near-exact estimate whose deterministic bound is the
        propagated quantisation drift.
        """
        from repro.stats.estimators import propagated_value_error
        fold = fold.sorted()  # a lone base scan is still in scan order
        # the row-id column only exists to give the working table its
        # row count when no value columns are tracked (e.g. COUNT(*));
        # pick a name that cannot collide with a tracked fact column
        rid_name = "_rid"
        while rid_name in fold.columns:
            rid_name = "_" + rid_name
        columns = [Column(rid_name, np.int64, fold.row_ids)]
        columns.extend(
            Column(name, values.dtype, values)
            for name, values in fold.columns.items()
        )
        working = Table(f"{base.name}#fold", columns)
        exact = fold.value_error == 0.0
        finished = self.executor.finish_aggregate(query, working, stats, context)
        if query.group_by:
            result = finished.rows
            group_estimates = None
            if not exact:
                # per-group deterministic bounds (se = 0): conservative
                # matched weight = the whole fold's matched rows
                group_estimates = {}
                for spec in query.aggregates:
                    group_estimates[spec.output_name] = [
                        _exact_estimate(
                            value,
                            confidence,
                            base.num_rows,
                            value_error=propagated_value_error(
                                spec.fn,
                                fold.value_error,
                                float(fold.matched),
                                float(value),
                            ),
                        )
                        for value in np.asarray(
                            result[spec.output_name], dtype=float
                        )
                    ]
            return EstimatedResult(
                query=query,
                source=base.name,
                stats=stats,
                groups=result,
                group_estimates=group_estimates,
                exact=exact,
            )
        scalars = finished.scalars
        bounds = {
            spec.output_name: propagated_value_error(
                spec.fn,
                fold.value_error,
                float(fold.matched),
                float(scalars[spec.output_name]),
            )
            for spec in query.aggregates
        }
        estimates: Dict[str, object] = {
            name: _exact_estimate(
                value, confidence, base.num_rows, value_error=bounds.get(name, 0.0)
            )
            for name, value in scalars.items()
        }
        return EstimatedResult(
            query=query,
            source=base.name,
            stats=stats,
            estimates=estimates,
            exact=exact,
        )

    def _run_rung(
        self,
        query: Query,
        rung: Optional[Impression],
        confidence: float,
        base,
        context: ExecutionContext,
        raw: bool = False,
    ) -> EstimatedResult:
        if rung is not None:
            return self.estimator.estimate(query, rung, confidence, context)
        cover = self.hierarchy.base_cover(query.predicate, base)
        exact = self.executor.execute(
            query, fact_table=base, context=context, cover=cover, raw=raw
        )
        return exact_estimated_result(query, exact, base, confidence, cover, raw)


def progress_snapshot(
    contract: Contract,
    context: ExecutionContext,
    entry_spent: float,
    attempts: List[ExecutionAttempt],
    result: Optional[EstimatedResult],
    best: Optional[EstimatedResult],
    best_error: float,
) -> ProgressUpdate:
    """Finalise one rung into a progress update — charging nothing.

    Everything here is arithmetic over answers already computed
    for the escalation decision; ``partial`` (the stop-right-now
    outcome) copies the attempts list so later rungs cannot
    mutate an update a consumer already holds.
    """
    attempt = attempts[-1]
    spent = context.spent - entry_spent
    partial: Optional[BoundedResult] = None
    if best is not None:
        partial = BoundedResult(
            result=best,
            attempts=list(attempts),
            met_quality=contract.max_relative_error is None
            or best_error <= contract.max_relative_error,
            met_budget=contract.time_budget is None
            or spent <= contract.time_budget,
            total_cost=spent,
            contract=contract,
        )
    return ProgressUpdate(
        rung=len(attempts) - 1,
        source=attempt.source,
        result=result,
        achieved_error=attempt.relative_error,
        best_error=best_error if best is not None else float("inf"),
        satisfied=attempt.satisfied,
        spent=spent,
        remaining=(
            None
            if contract.time_budget is None
            else max(0.0, contract.time_budget - spent)
        ),
        attempt=attempt,
        partial=partial,
        contract=contract,
    )


def _scanned_columns(
    base: Table, query: Query, cover: Optional[BaseCover]
) -> List[Column]:
    """The base columns a base scan of ``query`` reads: whatever the
    plan carries past the selection, and the predicate's unless
    ``cover`` answers the selection — its parts are exact copies of base
    rows, so through a cover the predicate never reads the base."""
    carried = query.columns_carried()
    if carried is None:
        names = base.column_names
    else:
        if cover is None:
            carried |= query.predicate.columns()
        names = [n for n in base.column_names if n in carried]
    return [base.column(name) for name in names]


def raw_query_result(outcome: BoundedResult) -> QueryResult:
    """An exact outcome in the raw executor shape.

    The inverse of :func:`exact_estimated_result`, for the
    ``execute_exact`` spellings: same stats object, same rows or
    groups table, scalars equal to the executor's own.
    """
    result = outcome.result
    return QueryResult(
        query=result.query,
        stats=result.stats,
        rows=result.rows if result.rows is not None else result.groups,
        scalars=(
            None
            if result.estimates is None
            else {name: est.value for name, est in result.estimates.items()}
        ),
    )


def exact_estimated_result(
    query: Query,
    exact: QueryResult,
    base: Table,
    confidence: float,
    cover: Optional[BaseCover],
    raw: bool,
) -> EstimatedResult:
    """Wrap a raw base-executor result into the bounded answer shape.

    Shared by the processor's final exact rung and the engine's
    ``Contract.exact()`` fast path (which bypasses the ladder — and
    works on tables with no hierarchy at all).  A ``raw`` scan — every
    exact contract's, on either path — read warm blocks' raw bytes
    from the spill, so it declares no bound and is exact whatever the
    tiers.  Otherwise ``cover`` is what the scan selected through, the
    bound is declared from the base columns that scan read
    (:func:`_scanned_columns`), and "exact" is claimed only when none of
    them holds a quantised (warm) block: a bounded ladder's
    answer-of-last-resort over a demoted table degrades honestly to a
    bounded near-exact estimate.
    """
    from repro.stats.estimators import propagated_value_error

    value_error = 0.0
    if not raw:
        value_error = max(
            (c.max_value_error() for c in _scanned_columns(base, query, cover)),
            default=0.0,
        )
    is_exact = value_error == 0.0
    if query.is_aggregate and not query.group_by:
        by_name = {spec.output_name: spec.fn for spec in query.aggregates}
        estimates = {
            name: _exact_estimate(
                value,
                confidence,
                base.num_rows,
                value_error=propagated_value_error(
                    by_name.get(name, "avg"),
                    value_error,
                    float(base.num_rows),
                    float(value),
                ),
            )
            for name, value in (exact.scalars or {}).items()
        }
        return EstimatedResult(
            query=query,
            source=base.name,
            stats=exact.stats,
            estimates=estimates,
            exact=is_exact,
        )
    if query.group_by:
        return EstimatedResult(
            query=query,
            source=base.name,
            stats=exact.stats,
            groups=exact.rows,
            exact=is_exact,
        )
    return EstimatedResult(
        query=query,
        source=base.name,
        stats=exact.stats,
        rows=exact.rows,
        exact=is_exact,
    )


def _exact_estimate(
    value: float, confidence: float, population: int, value_error: float = 0.0
):
    from repro.stats.estimators import Estimate

    return Estimate(
        value=float(value),
        se=0.0,
        confidence=confidence,
        method="exact" if value_error == 0.0 else "exact-within-bound",
        sample_size=population,
        population_size=population,
        value_error=value_error,
    )
