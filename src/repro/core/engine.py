"""The SciBORQ engine: the one-stop facade over the whole system.

A :class:`SciBorq` instance wires together everything the paper
describes: the catalog and load pipeline, the query log, the interest
model over the attributes of scientific interest, impression
hierarchies under a chosen policy, drift-driven maintenance, and
bounded query execution.  The typical session:

>>> from repro.skyserver import create_skyserver_catalog, build_skyserver
>>> from repro.skyserver.schema import RA_RANGE, DEC_RANGE
>>> engine = SciBorq(
...     create_skyserver_catalog(),
...     interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
...     rng=7,
... )
>>> engine.create_hierarchy("PhotoObjAll", policy="uniform",
...                         layer_sizes=(20_000, 2_000))
>>> build_skyserver(100_000, loader=engine.loader, rng=8)   # doctest: +ELLIPSIS
(...)
>>> result = engine.execute(some_query, Contract.within_error(0.1))
... # doctest: +SKIP

The progressive spelling — ``engine.submit(query, contract)`` —
returns a :class:`~repro.core.handle.QueryHandle` that streams one
update per escalation rung and can be cancelled between rungs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.columnstore.catalog import Catalog
from repro.columnstore.executor import Executor, QueryResult, expand_view
from repro.columnstore.loader import Loader
from repro.columnstore.query import Query
from repro.columnstore.recycler import Recycler
from repro.core.bounded import (
    BoundedQueryProcessor,
    BoundedResult,
    ExecutionAttempt,
    exact_estimated_result,
    progress_snapshot,
    raw_query_result,
)
from repro.core.contracts import Contract
from repro.core.handle import ProgressUpdate, QueryHandle
from repro.core.builder import ImpressionBuilder
from repro.core.hierarchy import ImpressionHierarchy
from repro.core.maintenance import (
    MaintenancePlanner,
    RefreshReport,
    rebuild_from_base,
    refresh_hierarchy,
)
from repro.core.monitor import ContractMonitor, SlaReport
from repro.core.policy import (
    BiasedPolicy,
    LastSeenPolicy,
    Policy,
    UniformPolicy,
    build_hierarchy,
)
from repro.errors import BudgetExceededError, ImpressionError, QueryError
from repro.util.clock import CostClock, ExecutionContext, WallClock
from repro.util.rng import RandomSource, ensure_rng
from repro.workload.drift import DriftDetector
from repro.workload.interest import InterestModel
from repro.workload.log import QueryLog, QueryLogEntry, QueryOutcome
from repro.workload.predicates import PredicateSetCollector


@dataclass(frozen=True)
class EngineReport:
    """Structured engine state (:meth:`SciBorq.report`).

    Every field is a plain value (or a pre-rendered sub-describe from
    the owning component), so tooling can read the numbers without
    parsing text; :meth:`render` is the overview for examples and
    debugging.
    """

    #: ``catalog.summary()`` — table names, row counts, FKs.
    catalog_summary: str
    #: One ``hierarchy.describe()`` line per impression hierarchy.
    hierarchies: Tuple[str, ...]
    #: Settled entries in the query log.
    query_log_entries: int
    #: ``repr`` of the interest model (attributes + bin counts).
    interest: str
    #: Workload drift events seen by the maintenance planner.
    drift_events: int
    #: Engine clock reading, in cost units.
    clock_now: float
    #: Full :meth:`SciBorq.memory_report` mapping.
    memory: Mapping[str, object]
    #: Fleet SLA aggregates when a contract monitor is installed.
    sla: Optional[SlaReport]

    def render(self) -> str:
        """The engine state as text, one component per line."""
        lines = [self.catalog_summary]
        lines.extend(self.hierarchies)
        lines.append(
            f"query log: {self.query_log_entries} entries; interest: "
            f"{self.interest}; drift events: {self.drift_events}"
        )
        lines.append(f"clock: {self.clock_now:g} cost units")
        tiers = self.memory["tiers"]
        memory_line = (
            f"memory: {self.memory['ram_total']} B RAM "
            f"(hot {tiers['hot']}, warm {tiers['warm']}, "
            f"impressions {self.memory['impressions_bytes']}, "
            f"recycler {self.memory['recycler_bytes']}); "
            f"cold spill {self.memory['cold_bytes']} B"
        )
        if "budget_bytes" in self.memory:
            memory_line += f"; budget {self.memory['budget_bytes']} B"
        lines.append(memory_line)
        if self.sla is not None:
            lines.append(self.sla.describe())
        return "\n".join(lines)


class SciBorq:
    """Scientific data management with Bounds On Runtime and Quality.

    Parameters
    ----------
    catalog:
        The database (tables + FKs); usually a fresh SkyServer
        catalog, populated through :attr:`loader` *after* hierarchies
        are created so impressions build during the load.
    interest_attributes:
        Domains of the attributes of scientific interest, e.g.
        ``{"ra": (120, 240), "dec": (0, 60)}``.
    bins:
        β for every interest histogram.
    drift_window / drift_threshold:
        Configuration of the per-attribute drift detectors.
    recycler_bytes:
        Byte budget of the executor's selection cache (the
        :attr:`recycler`); ``None`` or 0 runs without one.
    clock:
        Cost clock; defaults to a deterministic tuples-touched clock.
    """

    def __init__(
        self,
        catalog: Catalog,
        interest_attributes: Mapping[str, Tuple[float, float]],
        bins: int = 32,
        drift_window: int = 200,
        drift_threshold: float = 0.35,
        recycler_bytes: int | None = 16 * 1024 * 1024,
        clock: Optional[CostClock | WallClock] = None,
        rng: RandomSource = None,
    ) -> None:
        if not interest_attributes:
            raise ImpressionError("need at least one attribute of interest")
        self.catalog = catalog
        self.clock = clock if clock is not None else CostClock()
        self.rng = ensure_rng(rng)
        self.loader = Loader(catalog)
        self.builder = ImpressionBuilder(interest_attributes)
        self.query_log = QueryLog()
        self.interest = InterestModel(interest_attributes, bins=bins)
        self.collector = PredicateSetCollector(tuple(interest_attributes))
        self.collector.subscribe(self.interest.observe_values)
        self.planner = MaintenancePlanner(
            interest=self.interest,
            detectors={
                name: DriftDetector(domain, bins, drift_window, drift_threshold)
                for name, domain in interest_attributes.items()
            },
        )
        self.collector.subscribe(self.planner.observe)
        # hierarchies: table -> hierarchy-name -> hierarchy, plus a
        # per-table default name ("many such hierarchies of impressions
        # exist", paper §3.1 — e.g. a biased and a last-seen hierarchy
        # over the same fact table, chosen per query).
        self._hierarchies: Dict[str, Dict[str, ImpressionHierarchy]] = {}
        self._processors: Dict[str, Dict[str, BoundedQueryProcessor]] = {}
        self._default_hierarchy: Dict[str, str] = {}
        #: The one executor: the exact path scans through it, and every
        #: processor and estimator this engine creates holds it by
        #: reference — so its selection cache, and the scheduler
        #: installed on it (by the server layer), serve every rung scan,
        #: of hierarchies created before or after the install alike.
        self.executor = Executor(
            catalog,
            clock=self.clock,
            recycler=Recycler(recycler_bytes) if recycler_bytes else None,
        )
        # memory governor (installed by the server layer or directly):
        # demotes least-recently-scanned blocks hot→warm→cold to keep
        # the engine-wide footprint inside a byte budget (core/governor).
        self._memory_governor = None
        # contract monitor (installed by the server layer or directly):
        # turns every settled query into a ContractVerdict and streams
        # fleet SLA aggregates — pure observation, never a mutation
        # (core/monitor).
        self._monitor: Optional[ContractMonitor] = None
        #: The one live ``SciBorqServer`` on this engine (it sets this).
        self.server = None
        # Serialises workload bookkeeping (query log, predicate
        # collector, interest, drift) so concurrent sessions can share
        # one engine; the server layer relies on this.
        self._workload_lock = threading.Lock()

    # ------------------------------------------------------------------
    # hierarchy management
    # ------------------------------------------------------------------
    def create_hierarchy(
        self,
        table: str,
        policy: Policy | str = "biased",
        layer_sizes: Optional[Sequence[int]] = None,
        columns: Optional[Sequence[str]] = None,
        daily_ingest: Optional[int] = None,
        name: Optional[str] = None,
        make_default: bool = True,
    ) -> ImpressionHierarchy:
        """Create (and register for loads) a hierarchy for ``table``.

        ``policy`` may be a policy object or one of the shorthand
        strings ``"uniform"``, ``"biased"``, ``"last-seen"``.  A table
        may carry several named hierarchies at once ("many such
        hierarchies of impressions exist", paper §3.1): ``name``
        defaults to the policy kind, re-creating an existing name
        replaces it, and ``make_default`` controls which hierarchy
        unnamed :meth:`execute` calls use.
        """
        self.catalog.table(table)  # validate existence
        policy = self._resolve_policy(policy, layer_sizes, daily_ingest)
        hierarchy_name = name or policy.kind
        hierarchy = build_hierarchy(
            table,
            policy,
            name=f"{table}/{hierarchy_name}",
            columns=columns,
            rng=self.rng,
        )
        table_hierarchies = self._hierarchies.setdefault(table, {})
        previous = table_hierarchies.get(hierarchy_name)
        if previous is not None:
            for impression in previous.layers:
                self.builder.detach(impression)
        table_hierarchies[hierarchy_name] = hierarchy
        processor = BoundedQueryProcessor(
            self.catalog, hierarchy, clock=self.clock, executor=self.executor
        )
        self._processors.setdefault(table, {})[hierarchy_name] = processor
        if make_default or table not in self._default_hierarchy:
            self._default_hierarchy[table] = hierarchy_name
        self.builder.attach_hierarchy(hierarchy)
        if self.builder not in self.loader.observers_of(table):
            self.loader.register(table, self.builder)
        return hierarchy

    def _resolve_policy(
        self,
        policy: Policy | str,
        layer_sizes: Optional[Sequence[int]],
        daily_ingest: Optional[int],
    ) -> Policy:
        if not isinstance(policy, str):
            return policy
        sizes = tuple(layer_sizes) if layer_sizes else None
        if policy == "uniform":
            return UniformPolicy(sizes) if sizes else UniformPolicy()
        if policy == "biased":
            if sizes:
                return BiasedPolicy(self.interest, sizes)
            return BiasedPolicy(self.interest)
        if policy == "last-seen":
            if daily_ingest is None:
                raise ImpressionError(
                    "last-seen policy needs daily_ingest (the paper's D)"
                )
            if sizes:
                return LastSeenPolicy(daily_ingest, layer_sizes=sizes)
            return LastSeenPolicy(daily_ingest)
        raise ImpressionError(
            f"unknown policy {policy!r}; expected 'uniform', 'biased', "
            f"or 'last-seen'"
        )

    def _resolve_name(self, table: str, name: Optional[str]) -> str:
        if name is not None:
            return name
        try:
            return self._default_hierarchy[table]
        except KeyError:
            raise ImpressionError(
                f"no hierarchy created for table {table!r}"
            ) from None

    def hierarchy(
        self, table: str, name: Optional[str] = None
    ) -> ImpressionHierarchy:
        """A hierarchy for ``table`` (the default one if unnamed)."""
        resolved = self._resolve_name(table, name)
        try:
            return self._hierarchies[table][resolved]
        except KeyError:
            raise ImpressionError(
                f"no hierarchy named {resolved!r} for table {table!r}"
            ) from None

    def processor(
        self, table: str, name: Optional[str] = None
    ) -> BoundedQueryProcessor:
        """The bounded query processor for one hierarchy of ``table``."""
        resolved = self._resolve_name(table, name)
        try:
            return self._processors[table][resolved]
        except KeyError:
            raise ImpressionError(
                f"no hierarchy named {resolved!r} for table {table!r}"
            ) from None

    @property
    def recycler(self) -> Optional[Recycler]:
        """The executor's selection cache, or ``None``."""
        return self.executor.recycler

    def set_scan_scheduler(self, scheduler) -> None:
        """Install (or remove, with ``None``) a shared-scan scheduler.

        Routes every selection — rung scans of all bounded processors
        plus base-data scans — through the scheduler's convoys so
        concurrent queries over the same table share one block scan
        (:mod:`repro.core.scheduler`).  One assignment on the shared
        :attr:`executor`.  The server layer calls this on construction;
        results and per-query charges are unaffected either way.
        """
        self.executor.scheduler = scheduler

    @property
    def scan_scheduler(self):
        """The installed shared-scan scheduler, or ``None``."""
        return self.executor.scheduler

    def set_memory_governor(self, governor) -> None:
        """Install (or remove, with ``None``) a memory governor.

        The governor (:class:`~repro.core.governor.MemoryGovernor`)
        caps the engine-wide RAM footprint — catalog tables,
        materialised impression payloads, and the recycler — by
        demoting least-recently-scanned column blocks hot→warm→cold
        and promoting them back on access.  Enforcement runs after
        every ingest and, when the server layer is in front, after
        query completions.  Answers stay honest by construction:
        impression tables are exact copies of base rows whatever the
        tiers, demoted-block error bounds of the base blocks a scan
        reads ride every estimate's ``value_error``, and exact
        contracts read demoted blocks' raw bytes from the spill.
        """
        self._memory_governor = governor
        if governor is not None:
            governor.enforce(self)

    @property
    def memory_governor(self):
        """The installed memory governor, or ``None``."""
        return self._memory_governor

    def set_monitor(self, monitor: Optional[ContractMonitor]) -> None:
        """Install (or remove, with ``None``) a contract monitor.

        Every settle path — bounded and exact submissions, with or
        without a session — then records a
        :class:`~repro.core.monitor.ContractVerdict` into the
        monitor's fleet aggregates.  Observation only: answers,
        charges, and attempt traces are byte-identical with a monitor
        installed or not.  The server layer installs one by default
        (``SciBorqServer(monitor=...)``).
        """
        self._monitor = monitor

    @property
    def monitor(self) -> Optional[ContractMonitor]:
        """The installed contract monitor, or ``None``."""
        return self._monitor

    def enforce_memory(self) -> None:
        """Run one governor enforcement pass (no-op without one)."""
        if self._memory_governor is not None:
            self._memory_governor.enforce(self)

    def memory_report(self) -> Dict[str, object]:
        """Engine-wide memory accounting, per component and per tier.

        Aggregates every catalog table's RAM bytes (split hot/warm and
        the cold spill bytes), the resident columns of every impression
        payload, and the recycler — the footprint the memory governor
        compares against its budget (``ram_total`` excludes cold spill
        bytes, which live on disk, not in RAM).  Reporting gathers
        nothing: a column no scan has touched is not in RAM and is not
        counted (:meth:`Impression.memory_bytes
        <repro.core.impression.Impression.memory_bytes>`).
        """
        tables: Dict[str, Dict[str, int]] = {}
        tiers = {"hot": 0, "warm": 0, "cold": 0}
        for name in self.catalog.table_names:
            by_tier = self.catalog.table(name).nbytes_by_tier()
            tables[name] = by_tier
            for tier, size in by_tier.items():
                tiers[tier] += size
        impressions: Dict[str, int] = {}
        impressions_total = 0
        for named in self._hierarchies.values():
            for hierarchy in named.values():
                base = self.catalog.table(hierarchy.base_table)
                for impression in hierarchy.layers:
                    size = impression.memory_bytes(base)
                    impressions[impression.name] = size
                    impressions_total += size
        recycler_bytes = (
            int(self.recycler.size_bytes) if self.recycler is not None else 0
        )
        ram_total = tiers["hot"] + tiers["warm"] + impressions_total + recycler_bytes
        report: Dict[str, object] = {
            "tables": tables,
            "tiers": tiers,
            "impressions": impressions,
            "impressions_bytes": impressions_total,
            "recycler_bytes": recycler_bytes,
            "ram_total": ram_total,
            "cold_bytes": tiers["cold"],
        }
        governor = self._memory_governor
        if governor is not None:
            report["budget_bytes"] = governor.budget_bytes
            report["governor"] = {
                "demotions_warm": governor.stats.demotions_warm,
                "demotions_cold": governor.stats.demotions_cold,
                "promotions": governor.stats.promotions,
                "enforcements": governor.stats.enforcements,
            }
        return report

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def ingest(self, table: str, batch: Mapping[str, np.ndarray]) -> int:
        """Append a batch; impressions update as it streams through.

        Ingest is when the footprint grows, so the memory governor
        (when installed) runs an enforcement pass right after.
        """
        loaded = self.loader.load_batch(table, batch)
        self.enforce_memory()
        return loaded

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        contract: Optional[Contract] = None,
        *,
        context: Optional[ExecutionContext] = None,
        context_factory: Optional[Callable[[], ExecutionContext]] = None,
        session_id: Optional[int] = None,
    ) -> QueryHandle:
        """Submit a query for progressive execution under ``contract``.

        Returns a :class:`~repro.core.handle.QueryHandle` immediately;
        nothing is scanned until the handle is iterated or
        :meth:`~repro.core.handle.QueryHandle.result` is called.  Each
        iteration yields one :class:`~repro.core.handle.ProgressUpdate`
        per escalation rung — the anytime interaction model: act on a
        partial answer, or ``cancel()`` and keep it.

        Submission feeds the workload machinery up front (query log,
        predicate sets, drift detectors) — the workload model sees
        intent, not completion.  An exact contract routes straight to
        the executor's base path (works on tables with no hierarchy at
        all); any other contract requires a hierarchy, and
        ``contract.hierarchy`` names it (None: the table's default).
        ``context`` carries a caller-owned cost meter;
        ``context_factory`` defers its creation to the first rung (the
        server layer uses this so wall-mode budgets bill execution
        time, not queueing time).
        """
        query = expand_view(self.catalog, query)
        contract = contract if contract is not None else Contract()
        with self._workload_lock:
            entry = self.query_log.record(query)
            self.collector.observe(query)
        submitted = time.perf_counter()

        def open_context() -> ExecutionContext:
            # called by the stream at its first step, not here
            if context is not None:
                return context
            if context_factory is not None:
                return context_factory()
            return ExecutionContext(clock=self.clock, limit=contract.time_budget)

        if contract.is_exact:
            stream = self._run_exact(query, contract, open_context)
        elif not self._processors.get(query.table):
            raise QueryError(
                f"no hierarchy for table {query.table!r}; create one or "
                f"use Contract.exact()"
            )
        else:
            stream = self._run_bounded(
                self.processor(query.table, contract.hierarchy),
                query,
                contract,
                open_context,
            )
        handle = QueryHandle(query, contract, stream)
        # the settle hook wants the handle's own queue/run split, so
        # the finalize callback is attached after construction
        handle._finalize = lambda outcome: self._settle(
            handle, entry, outcome, submitted, session_id
        )
        return handle

    def execute(
        self,
        query: Query,
        contract: Optional[Contract] = None,
        context: Optional[ExecutionContext] = None,
    ) -> BoundedResult:
        """Answer a query under a contract, blocking until done.

        The blocking drain of :meth:`submit` — exactly
        ``submit(query, contract).result()``, discarding the per-rung
        progress stream.
        """
        if contract is not None and not isinstance(contract, Contract):
            raise QueryError(
                f"expected a Contract as second argument, got "
                f"{contract!r}; use Contract.within_error(...)"
            )
        return self.submit(query, contract, context=context).result()

    def execute_exact(
        self,
        query: Query,
        context: Optional[ExecutionContext] = None,
        session_id: Optional[int] = None,
    ) -> QueryResult:
        """Run a query on the base data, bypassing impressions.

        The exact drain of :meth:`submit` in the raw executor shape:
        ``submit(query, Contract.exact()).result()`` converted back to
        a :class:`~repro.columnstore.executor.QueryResult`
        (``execute(query, Contract.exact())`` returns the uniform
        :class:`BoundedResult` instead).  Logging, monitoring and the
        charge are the core's own.
        """
        return raw_query_result(
            self.submit(
                query, Contract.exact(), context=context, session_id=session_id
            ).result()
        )

    # ------------------------------------------------------------------
    # execution streams behind submit()
    # ------------------------------------------------------------------
    def _run_bounded(
        self,
        processor: BoundedQueryProcessor,
        query: Query,
        contract: Contract,
        open_context: Callable[[], ExecutionContext],
    ) -> Iterator[ProgressUpdate]:
        """Ladder stream: the context opens at the first rung."""
        result = yield from processor.run(query, contract, open_context())
        return result

    def _run_exact(
        self,
        query: Query,
        contract: Contract,
        open_context: Callable[[], ExecutionContext],
    ) -> Iterator[ProgressUpdate]:
        """Exact stream: one base-data attempt, no ladder.

        Produces the same :class:`BoundedResult` shape as a bounded
        execution (one exact, satisfied attempt) so callers handle
        one result type.  Works on tables with no hierarchy: the
        executor is all it needs.  With one, the selection reads the
        hierarchy's cell-laid cover of the base when
        :meth:`ImpressionHierarchy.base_cover` says so — resolved
        before the context opens, so a wall-mode budget bills the scan
        alone.  Every read of the base — the
        predicate scan when no cover answers, the carried columns'
        gathers — takes warm blocks' raw bytes from the spill
        (``Executor.execute(..., raw=True)``): the answer is exact with
        ``value_error == 0`` whatever the governor demoted, and no tier
        changes.
        """
        base = self.catalog.table(query.table)
        named = self._hierarchies.get(query.table, {})
        target = named.get(
            contract.hierarchy or self._default_hierarchy.get(query.table)
        )
        cover = None if target is None else target.base_cover(query.predicate, base)
        context = open_context()
        entry_spent = context.spent
        exact = self.executor.execute(query, context=context, cover=cover, raw=True)
        result = exact_estimated_result(
            query, exact, base, contract.confidence, cover, raw=True
        )
        attempt = ExecutionAttempt(
            source=base.name,
            rows=base.num_rows,
            cost=context.spent - entry_spent,
            relative_error=0.0,
            satisfied=True,
        )
        update = progress_snapshot(
            contract, context, entry_spent, [attempt], result, result, 0.0
        )
        yield update
        outcome = update.partial
        if contract.strict and not outcome.met_budget:
            raise BudgetExceededError(contract.time_budget, outcome.total_cost)
        return outcome

    def _settle(
        self,
        handle: QueryHandle,
        entry: QueryLogEntry,
        outcome: BoundedResult,
        submitted: float,
        session_id: Optional[int],
    ) -> BoundedResult:
        """The one finalize of every finished (or cancelled) outcome:
        stamp it back onto its query-log entry.

        This is what turns the log from a list of predicates into the
        fleet-wide asset the workload miner feeds on: every settled
        entry carries what the query *cost* (tuples charged, rungs
        climbed, wall seconds) and what it *achieved* (relative error),
        keyed by the submitting session.  The settle
        is also where the contract monitor (when installed) records
        its :class:`~repro.core.monitor.ContractVerdict` — reading
        the outcome, never touching it.
        """
        wall_seconds = time.perf_counter() - submitted
        self.query_log.settle(
            entry.sequence,
            QueryOutcome(
                tuples_charged=float(outcome.total_cost),
                rungs_climbed=len(outcome.attempts),
                achieved_error=float(outcome.achieved_error),
                wall_seconds=wall_seconds,
                session_id=session_id,
            ),
        )
        monitor = self._monitor
        if monitor is not None:
            monitor.observe(
                entry.query,
                handle.contract,
                outcome,
                session_id=session_id,
                wall_seconds=wall_seconds,
                queue_seconds=handle.queue_seconds,
                run_seconds=handle.run_seconds,
            )
        return outcome

    # ------------------------------------------------------------------
    # maintenance path
    # ------------------------------------------------------------------
    def maintain(self) -> Dict[str, list[RefreshReport]]:
        """React to drift for every hierarchy (paper's fast reflexes).

        When a drift detector fired, the planner absorbs the event
        (decay scoped to the drifting attributes — interest accumulated
        on stable attributes keeps its evidence) and every hierarchy is
        refreshed from below; returns the refresh reports per table.
        Without drift nothing is touched and the result is empty.
        """
        if not self.planner.absorb_drift():
            return {}
        reports: Dict[str, list[RefreshReport]] = {}
        for table, named in self._hierarchies.items():
            base = self.catalog.table(table)
            reports[table] = [
                report
                for hierarchy in named.values()
                for report in refresh_hierarchy(hierarchy, base, self.clock)
            ]
        return reports

    def refresh(
        self, table: str, hierarchy: Optional[str] = None
    ) -> list[RefreshReport]:
        """Cheaply refresh ``table``'s smaller layers from below."""
        target = self.hierarchy(table, hierarchy)
        return refresh_hierarchy(
            target, self.catalog.table(table), self.clock
        )

    def rebuild(
        self, table: str, hierarchy: Optional[str] = None
    ) -> list[RefreshReport]:
        """Expensively rebuild all layers of ``table`` from the base.

        Needed when bias must be (re)applied to already-loaded data,
        e.g. after the first workload burst on a database loaded cold.
        """
        target = self.hierarchy(table, hierarchy)
        return rebuild_from_base(
            target, self.catalog.table(table), self.clock
        )

    # ------------------------------------------------------------------
    def report(self) -> EngineReport:
        """Structured engine state (:class:`EngineReport`); its
        ``render()`` is the text overview."""
        hierarchies = tuple(
            hierarchy.describe()
            for named in self._hierarchies.values()
            for hierarchy in named.values()
        )
        return EngineReport(
            catalog_summary=self.catalog.summary(),
            hierarchies=hierarchies,
            query_log_entries=len(self.query_log),
            interest=repr(self.interest),
            drift_events=self.planner.drift_events,
            clock_now=self.clock.now,
            memory=self.memory_report(),
            sla=self._monitor.report() if self._monitor is not None else None,
        )
