"""Runtime contract monitoring: does the fleet keep its promises?

SciBORQ's premise is that every answer comes with *bounds on runtime
and quality* — but a bound checked only query-by-query at settle time
proves nothing fleet-wide.  The :class:`ContractMonitor` closes that
gap: it observes every settled query (the engine's one settle path)
and turns each into a :class:`ContractVerdict` — met or missed, the
achieved error against the promised bound, queue and run seconds
against the budget, the contract's SLA tier, and the owning session.

From the verdict stream it keeps one tally, per SLA tier (% of
queries whose verdict is ``met`` — a missed bound counts in the
denominator: an SLA event, never a statistics gap), and a violation
log with bounded retention (the most recent ``missed`` verdicts, for
postmortems without unbounded memory).  Every other fact about a
settled query lives in exactly one other place: its error, cost and
wall time in the engine's query log (``engine.query_log``), a
session's misses and failures in ``Session.report()``.

Monitoring is **pure observation**: the monitor never touches a
result, a charge, or an attempt trace — answers are byte-identical
with the monitor on or off (pinned by test and benchmark).  The
tiered quality gates of :mod:`repro.bench.gates` read the same tier
buckets: ``evaluate_floors(spec.floors, monitor.report().by_tier)``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.core.contracts import Contract

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.columnstore.query import Query
    from repro.core.bounded import BoundedResult

#: Bucket key for contracts that came from no preset.
UNTIERED = "untiered"

#: The verdict statuses, in the order reports enumerate them.
VERDICT_STATUSES = ("met", "missed")

#: How many ``missed`` verdicts the violation log retains (newest win;
#: the tier tallies are never truncated).
VIOLATION_RETENTION = 256


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
        who = (
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
    """Verdict counts for one SLA tier."""

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
class SlaReport:
    """The monitor's typed, point-in-time fleet aggregate.

    Every field is derived from the per-tier tallies of the verdict
    stream and nothing else, so a report equals the one a fresh
    monitor would produce from the same verdicts fed in any grouping.
    """

    observed: int
    met: int
    missed: int
    by_tier: Mapping[str, SlaBucket]
    #: Most recent ``missed`` verdicts, newest last (bounded).
    violations: Tuple[ContractVerdict, ...]

    @property
    def compliance(self) -> float:
        """Fleet-wide fraction of ``met`` verdicts (1.0 when empty)."""
        if self.observed == 0:
            return 1.0
        return self.met / self.observed

    def describe(self) -> str:
        """The one-line form the engine and server reports render."""
        line = (
            f"sla: {self.compliance:.1%} met over {self.observed} "
            f"query(ies) (missed {self.missed})"
        )
        tiers = ", ".join(
            f"{tier} {bucket.compliance:.1%} of {bucket.total}"
            for tier, bucket in sorted(self.by_tier.items())
        )
        return f"{line}; {tiers}" if tiers else line


class _Bucket:
    """Mutable counter behind one :class:`SlaBucket`."""

    __slots__ = ("total", "met")

    def __init__(self) -> None:
        self.total = 0
        self.met = 0

    def freeze(self) -> SlaBucket:
        return SlaBucket(
            total=self.total, met=self.met, missed=self.total - self.met
        )


class ContractMonitor:
    """Streams per-query contract verdicts into per-tier SLA tallies.

    Installed on the engine via :meth:`~repro.core.engine.SciBorq.
    set_monitor` (the server layer does this by default); the engine's
    settle path then calls :meth:`observe` for every outcome, exact
    ones included.  Thread-safe: pool workers observe concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_tier: Dict[str, _Bucket] = {}
        self._violations: deque = deque(maxlen=VIOLATION_RETENTION)

    # ------------------------------------------------------------------
    # observation (the settle path calls these)
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
        """Record a raw base-data execution.

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
        """Fold one verdict into its tier's tally.

        The public seam the aggregation-exactness property tests use:
        the report is a pure fold over the verdict stream, so
        replaying verdicts into a fresh monitor reproduces it.
        """
        if verdict.status not in VERDICT_STATUSES:
            raise ValueError(
                f"unknown verdict status {verdict.status!r}; expected "
                f"one of {VERDICT_STATUSES}"
            )
        tier = verdict.tier or UNTIERED
        with self._lock:
            bucket = self._by_tier.get(tier)
            if bucket is None:
                bucket = self._by_tier[tier] = _Bucket()
            bucket.total += 1
            if verdict.status == "met":
                bucket.met += 1
            else:
                self._violations.append(verdict)

    # ------------------------------------------------------------------
    # the structured observability read-out
    # ------------------------------------------------------------------
    @property
    def observed(self) -> int:
        """Total verdicts recorded so far."""
        with self._lock:
            return sum(bucket.total for bucket in self._by_tier.values())

    def report(self) -> SlaReport:
        """A consistent snapshot of the tier tallies."""
        with self._lock:
            by_tier = {
                tier: bucket.freeze() for tier, bucket in self._by_tier.items()
            }
            violations = tuple(self._violations)
        observed = sum(bucket.total for bucket in by_tier.values())
        met = sum(bucket.met for bucket in by_tier.values())
        return SlaReport(
            observed=observed,
            met=met,
            missed=observed - met,
            by_tier=by_tier,
            violations=violations,
        )

    def describe(self) -> str:
        """One-line summary; the ``sla:`` line of ``report().render()``."""
        return self.report().describe()

    def __repr__(self) -> str:
        report = self.report()
        return (
            f"ContractMonitor(observed={report.observed}, "
            f"compliance={report.compliance:.3g})"
        )
