"""Runtime contract monitoring: does the fleet keep its promises?

SciBORQ's premise is that every answer comes with *bounds on runtime
and quality* — but a bound checked only query-by-query at settle time
proves nothing fleet-wide.  The :class:`ContractMonitor` closes that
gap: it observes every settled query (engine execute/exact paths,
server handle settles) and turns each into a
:class:`ContractVerdict` — met or missed, the achieved error against
the promised bound, queue and run seconds against the budget, the
contract's SLA tier, and the owning session.

From the verdict stream it maintains **streaming fleet aggregates**:

* per-tier and per-session SLA compliance (% of queries whose verdict
  is ``met``) — a missed bound counts in the denominator: an SLA
  event, never a statistics gap;
* error-margin and latency histograms with deterministic p50/p99
  read-outs — every aggregate is a sum of per-verdict contributions,
  so feeding the same verdicts one at a time or all at once yields
  the identical :class:`SlaReport`;
* a violation log with bounded retention (the most recent non-``met``
  verdicts, for postmortems without unbounded memory).

Monitoring is **pure observation**: the monitor never touches a
result, a charge, or an attempt trace — answers are byte-identical
with the monitor on or off (pinned by test and benchmark).

**Tiered quality gates** ride on the same aggregates:
:meth:`ContractMonitor.check_gates` evaluates a :class:`GateSpec` —
per-tier compliance floors (e.g. gold ≥ 99% met) plus metric bounds —
against the live report, and :mod:`repro.bench.gates` evaluates the
same spec shape against the CI ``BENCH_*.json`` trajectory artifacts
so a perf or quality regression fails CI, not a reader of dashboards.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.contracts import Contract

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.columnstore.query import Query
    from repro.core.bounded import BoundedResult

#: Bucket key for contracts that came from no preset.
UNTIERED = "untiered"

#: The verdict statuses, in the order reports enumerate them.
VERDICT_STATUSES = ("met", "missed")

#: Upper edges of the error-margin histogram bins (relative error).
#: Fixed edges make bin counts additive, so incremental and one-shot
#: aggregation produce identical percentiles.
ERROR_EDGES = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Upper edges of the latency histogram bins (seconds).
LATENCY_EDGES = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


@dataclass(frozen=True)
class ContractVerdict:
    """One settled query, judged against its promise.

    ``status`` is ``"met"`` (every bound kept) or ``"missed"`` (a
    quality or budget bound broken).
    """

    status: str
    table: str
    tier: Optional[str]
    session_id: Optional[int]
    session_name: Optional[str]
    #: The promised quality bound (None: no quality requirement).
    promised_error: Optional[float]
    #: The answer's honest worst relative error.
    achieved_error: Optional[float]
    #: The promised runtime budget, in clock units (None: unbounded).
    promised_budget: Optional[float]
    #: What the execution actually spent, in clock units.
    spent: float
    #: Wall seconds spent waiting for a pool worker (None: not
    #: server-queued).
    queue_seconds: Optional[float]
    #: Wall seconds of actual execution (None: unknown).
    run_seconds: Optional[float]
    #: End-to-end wall seconds from submission to settle.
    wall_seconds: Optional[float]

    def describe(self) -> str:
        """One-line form used by the violation log and examples."""
        who = self.session_name or (
            f"session-{self.session_id}" if self.session_id is not None
            else "<direct>"
        )
        tier = self.tier or UNTIERED
        promised = (
            "-" if self.promised_error is None
            else f"{self.promised_error:g}"
        )
        achieved = (
            "-" if self.achieved_error is None
            else f"{self.achieved_error:.4g}"
        )
        return (
            f"[{self.status}] {who} {self.table} ({tier}): "
            f"error {achieved} vs <={promised}, spent {self.spent:g}"
        )


@dataclass(frozen=True)
class SlaBucket:
    """Verdict counts for one aggregation key (a tier or a session)."""

    total: int = 0
    met: int = 0
    missed: int = 0

    @property
    def compliance(self) -> float:
        """Fraction of observed queries whose verdict is ``met``.

        ``1.0`` for an empty bucket (no promise has been broken).
        """
        if self.total == 0:
            return 1.0
        return self.met / self.total


@dataclass(frozen=True)
class HistogramSummary:
    """Deterministic read-out of one streaming histogram.

    ``p50``/``p99`` are upper edges of the smallest bin whose
    cumulative count covers the quantile (the recorded exact maximum
    for the overflow bin) — a deterministic, additive-state estimate,
    not an exact order statistic.
    """

    count: int
    mean: float
    p50: float
    p99: float
    max: float


class _StreamingHistogram:
    """Fixed-edge counting histogram; all state is additive."""

    __slots__ = ("edges", "counts", "total", "sum", "max")

    def __init__(self, edges: Sequence[float]) -> None:
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)  # +1: overflow bin
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        if value != value or value == math.inf:  # NaN / unanswerable
            self.counts[-1] += 1
        else:
            self.counts[bisect_left(self.edges, value)] += 1
            self.sum += value
            if value > self.max:
                self.max = value
        self.total += 1

    def _quantile(self, fraction: float) -> float:
        if self.total == 0:
            return 0.0
        need = fraction * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= need:
                if index < len(self.edges):
                    return self.edges[index]
                return self.max  # overflow bin: the recorded max
        return self.max  # pragma: no cover - seen always reaches total

    def summary(self) -> HistogramSummary:
        finite = self.total - self.counts[-1]
        return HistogramSummary(
            count=self.total,
            mean=self.sum / finite if finite else 0.0,
            p50=self._quantile(0.50),
            p99=self._quantile(0.99),
            max=self.max,
        )


@dataclass(frozen=True)
class SlaReport:
    """The monitor's typed, point-in-time fleet aggregate.

    Every field is derived from the per-query verdict stream and
    nothing else, so a report equals the one a fresh monitor would
    produce from the same verdicts fed in any grouping.
    """

    observed: int
    met: int
    missed: int
    by_tier: Mapping[str, SlaBucket]
    by_session: Mapping[Optional[int], SlaBucket]
    #: Session id -> human name, for sessions the server registered.
    session_names: Mapping[int, str]
    error_margin: HistogramSummary
    latency: HistogramSummary
    #: Most recent non-``met`` verdicts, newest last (bounded).
    violations: Tuple[ContractVerdict, ...]

    @property
    def compliance(self) -> float:
        """Fleet-wide fraction of ``met`` verdicts (1.0 when empty)."""
        if self.observed == 0:
            return 1.0
        return self.met / self.observed

    def describe(self) -> str:
        """The one-line form the engine and server reports render."""
        tiers = ", ".join(
            f"{tier} {bucket.compliance:.1%} of {bucket.total}"
            for tier, bucket in sorted(self.by_tier.items())
        )
        line = (
            f"sla: {self.compliance:.1%} met over {self.observed} "
            f"query(ies) (missed {self.missed})"
        )
        if tiers:
            line += f"; {tiers}"
        if self.error_margin.count:
            line += (
                f"; err p50<={self.error_margin.p50:g} "
                f"p99<={self.error_margin.p99:g}"
            )
        if self.latency.count:
            line += (
                f"; lat p50<={self.latency.p50:g}s "
                f"p99<={self.latency.p99:g}s"
            )
        return line


@dataclass(frozen=True)
class MetricGate:
    """A bound on one metric of one ``BENCH_<artifact>.json`` report.

    ``metric`` is a dotted path into the artifact's ``metrics``
    mapping (e.g. ``"overhead_ratio"`` or ``"convoy.scans"``).
    ``required`` fails the gate when the artifact is absent;
    otherwise a missing artifact or metric passes vacuously.
    """

    artifact: str
    metric: str
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    required: bool = False


@dataclass(frozen=True)
class GateSpec:
    """A tiered quality-gate specification.

    ``floors`` maps tier name -> minimum compliance fraction (e.g.
    ``{"gold": 0.99}``); ``metrics`` carries artifact metric bounds
    for the CI evaluator (:mod:`repro.bench.gates`).
    :meth:`ContractMonitor.check_gates` evaluates the floors against
    its live aggregates and ignores the artifact metrics.
    """

    floors: Mapping[str, float] = field(default_factory=dict)
    metrics: Tuple[MetricGate, ...] = ()

    @classmethod
    def coerce(cls, spec: "GateSpec | Mapping[str, object]") -> "GateSpec":
        """Accept a ready spec or the JSON mapping shape.

        The mapping shape (documented in CONTRIBUTING.md) is either a
        bare floors mapping (``{"gold": 0.99}``) or the full form
        ``{"floors": {...}, "metrics": [{"artifact": ..., "metric":
        ..., "min"/"max": ...}, ...]}``.
        """
        if isinstance(spec, GateSpec):
            return spec
        if not isinstance(spec, Mapping):
            raise TypeError(
                f"gate spec must be a GateSpec or a mapping, got {spec!r}"
            )
        if "floors" not in spec and "metrics" not in spec:
            return cls(floors={str(k): float(v) for k, v in spec.items()})
        floors = {
            str(k): float(v)
            for k, v in dict(spec.get("floors", {})).items()
        }
        metrics = tuple(
            MetricGate(
                artifact=str(entry["artifact"]),
                metric=str(entry["metric"]),
                min_value=(
                    float(entry["min"]) if "min" in entry else None
                ),
                max_value=(
                    float(entry["max"]) if "max" in entry else None
                ),
                required=bool(entry.get("required", False)),
            )
            for entry in spec.get("metrics", ())
        )
        return cls(floors=floors, metrics=metrics)


@dataclass(frozen=True)
class GateResult:
    """One gate's evaluation: what was required, what was measured."""

    gate: str
    passed: bool
    #: The measured value the bound was checked against (None when the
    #: gate passed vacuously — nothing observed).
    value: Optional[float]
    detail: str


@dataclass(frozen=True)
class GateReport:
    """Every gate of one spec, evaluated against one state."""

    results: Tuple[GateResult, ...]

    @property
    def passed(self) -> bool:
        """Whether every gate passed."""
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> Tuple[GateResult, ...]:
        """The gates that failed, in spec order."""
        return tuple(r for r in self.results if not r.passed)

    def describe(self) -> str:
        """Multi-line pass/fail listing, one gate per line."""
        lines = [
            f"quality gates: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.results)} gate(s), "
            f"{len(self.failures)} failed)"
        ]
        lines.extend(
            f"  [{'ok' if r.passed else 'FAIL'}] {r.gate}: {r.detail}"
            for r in self.results
        )
        return "\n".join(lines)


def evaluate_floors(
    floors: Mapping[str, float], by_tier: Mapping[str, SlaBucket]
) -> list[GateResult]:
    """Check per-tier compliance floors against tier buckets.

    A tier with no observed queries passes vacuously (no promise has
    been broken) — the gate exists to catch broken promises, not
    absent traffic.  Shared by :meth:`ContractMonitor.check_gates`
    and the artifact evaluator in :mod:`repro.bench.gates`.
    """
    results = []
    for tier in sorted(floors):
        floor = float(floors[tier])
        bucket = by_tier.get(tier)
        if bucket is None or bucket.total == 0:
            results.append(
                GateResult(
                    gate=f"tier:{tier}",
                    passed=True,
                    value=None,
                    detail=f"no {tier} queries observed (floor {floor:.1%})",
                )
            )
            continue
        compliance = bucket.compliance
        results.append(
            GateResult(
                gate=f"tier:{tier}",
                passed=compliance >= floor,
                value=compliance,
                detail=(
                    f"compliance {compliance:.2%} vs floor {floor:.1%} "
                    f"over {bucket.total} query(ies)"
                ),
            )
        )
    return results


class _Bucket:
    """Mutable counter behind one :class:`SlaBucket`."""

    __slots__ = ("total", "met", "missed")

    def __init__(self) -> None:
        self.total = 0
        self.met = 0
        self.missed = 0

    def add(self, status: str) -> None:
        self.total += 1
        setattr(self, status, getattr(self, status) + 1)

    def freeze(self) -> SlaBucket:
        return SlaBucket(
            total=self.total,
            met=self.met,
            missed=self.missed,
        )


class ContractMonitor:
    """Streams per-query contract verdicts into fleet SLA aggregates.

    Installed on the engine via :meth:`~repro.core.engine.SciBorq.
    set_monitor` (the server layer does this by default); every settle
    path then calls :meth:`observe` / :meth:`observe_exact`.
    Thread-safe: pool workers observe concurrently.

    Parameters
    ----------
    violation_retention:
        How many non-``met`` verdicts the violation log retains
        (newest win; the aggregates are never truncated).
    """

    def __init__(self, violation_retention: int = 256) -> None:
        if violation_retention < 0:
            raise ValueError(
                f"violation_retention must be >= 0, "
                f"got {violation_retention}"
            )
        self.violation_retention = violation_retention
        self._lock = threading.Lock()
        self._observed = 0
        self._by_status: Dict[str, int] = {
            status: 0 for status in VERDICT_STATUSES
        }
        self._by_tier: Dict[str, _Bucket] = defaultdict(_Bucket)
        self._by_session: Dict[Optional[int], _Bucket] = defaultdict(_Bucket)
        self._session_names: Dict[int, str] = {}
        self._errors = _StreamingHistogram(ERROR_EDGES)
        self._latency = _StreamingHistogram(LATENCY_EDGES)
        self._violations: deque = deque(maxlen=violation_retention)

    # ------------------------------------------------------------------
    # observation (the settle paths call these)
    # ------------------------------------------------------------------
    def observe(
        self,
        query: "Query",
        contract: Contract,
        outcome: "BoundedResult",
        *,
        session_id: Optional[int] = None,
        wall_seconds: Optional[float] = None,
        queue_seconds: Optional[float] = None,
        run_seconds: Optional[float] = None,
    ) -> ContractVerdict:
        """Judge one settled :class:`BoundedResult` and record it.

        Pure observation: only reads the outcome — never a mutation,
        so answers, charges, and attempt traces are byte-identical
        with or without a monitor installed.
        """
        met = outcome.met_quality and outcome.met_budget
        return self.observe_settled(
            table=query.table,
            contract=contract,
            status="met" if met else "missed",
            achieved_error=float(outcome.achieved_error),
            spent=float(outcome.total_cost),
            session_id=session_id,
            wall_seconds=wall_seconds,
            queue_seconds=queue_seconds,
            run_seconds=run_seconds,
        )

    def observe_exact(
        self,
        query: "Query",
        *,
        spent: float,
        session_id: Optional[int] = None,
        wall_seconds: Optional[float] = None,
    ) -> ContractVerdict:
        """Record a raw base-data execution (the legacy exact path).

        An exact answer has zero error and no ladder, so it is always
        ``met``; it still belongs in the denominator — a tenant's
        exact queries are part of their SLA traffic.
        """
        return self.observe_settled(
            table=query.table,
            contract=Contract.exact(),
            status="met",
            achieved_error=0.0,
            spent=float(spent),
            session_id=session_id,
            wall_seconds=wall_seconds,
        )

    def observe_settled(
        self,
        *,
        table: str,
        contract: Contract,
        status: str,
        achieved_error: float,
        spent: float,
        session_id: Optional[int] = None,
        wall_seconds: Optional[float] = None,
        queue_seconds: Optional[float] = None,
        run_seconds: Optional[float] = None,
    ) -> ContractVerdict:
        """Build and record a verdict for one settled execution."""
        verdict = ContractVerdict(
            status=status,
            table=table,
            tier=contract.tier,
            session_id=session_id,
            session_name=self._name_of(session_id),
            promised_error=contract.max_relative_error,
            achieved_error=achieved_error,
            promised_budget=contract.time_budget,
            spent=spent,
            queue_seconds=queue_seconds,
            run_seconds=run_seconds,
            wall_seconds=wall_seconds,
        )
        self.record(verdict)
        return verdict

    def record(self, verdict: ContractVerdict) -> None:
        """Fold one verdict into the aggregates.

        The public seam the aggregation-exactness property tests use:
        every aggregate is a pure fold over the verdict stream, so
        replaying verdicts into a fresh monitor reproduces the report.
        """
        if verdict.status not in VERDICT_STATUSES:
            raise ValueError(
                f"unknown verdict status {verdict.status!r}; expected "
                f"one of {VERDICT_STATUSES}"
            )
        with self._lock:
            self._observed += 1
            self._by_status[verdict.status] += 1
            tier_key = verdict.tier or UNTIERED
            self._by_tier[tier_key].add(verdict.status)
            self._by_session[verdict.session_id].add(verdict.status)
            if (
                verdict.session_id is not None
                and verdict.session_name is not None
            ):
                self._session_names.setdefault(
                    verdict.session_id, verdict.session_name
                )
            if verdict.achieved_error is not None:
                self._errors.add(verdict.achieved_error)
            seconds = (
                verdict.run_seconds
                if verdict.run_seconds is not None
                else verdict.wall_seconds
            )
            if seconds is not None:
                self._latency.add(seconds)
            if verdict.status != "met":
                self._violations.append(verdict)

    def note_session(self, session_id: int, name: str) -> None:
        """Register a session's human name for reporting."""
        with self._lock:
            self._session_names[session_id] = name

    def _name_of(self, session_id: Optional[int]) -> Optional[str]:
        if session_id is None:
            return None
        with self._lock:
            return self._session_names.get(session_id)

    # ------------------------------------------------------------------
    # the structured observability read-out
    # ------------------------------------------------------------------
    @property
    def observed(self) -> int:
        """Total verdicts recorded so far."""
        with self._lock:
            return self._observed

    def report(self) -> SlaReport:
        """A consistent snapshot of every fleet aggregate."""
        with self._lock:
            return SlaReport(
                observed=self._observed,
                met=self._by_status["met"],
                missed=self._by_status["missed"],
                by_tier={
                    tier: bucket.freeze()
                    for tier, bucket in self._by_tier.items()
                },
                by_session={
                    key: bucket.freeze()
                    for key, bucket in self._by_session.items()
                },
                session_names=dict(self._session_names),
                error_margin=self._errors.summary(),
                latency=self._latency.summary(),
                violations=tuple(self._violations),
            )

    def describe(self) -> str:
        """One-line summary; the ``sla:`` line of ``report().render()``."""
        return self.report().describe()

    # ------------------------------------------------------------------
    # tiered quality gates
    # ------------------------------------------------------------------
    def check_gates(
        self, spec: "GateSpec | Mapping[str, object]"
    ) -> GateReport:
        """Evaluate a gate spec's compliance floors against the live
        aggregates.

        ``spec`` is a :class:`GateSpec` or its mapping shape (a bare
        ``{"gold": 0.99}`` floors mapping works).  Artifact metric
        bounds in the spec are for the CI evaluator
        (:mod:`repro.bench.gates`) and are ignored here.
        """
        resolved = GateSpec.coerce(spec)
        report = self.report()
        return GateReport(
            results=tuple(evaluate_floors(resolved.floors, report.by_tier))
        )

    def __repr__(self) -> str:
        report = self.report()
        return (
            f"ContractMonitor(observed={report.observed}, "
            f"compliance={report.compliance:.3g})"
        )
