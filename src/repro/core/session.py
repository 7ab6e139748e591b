"""Per-user sessions over a shared SciBORQ server.

SkyServer serves "scientists, students and interested laymen" at once
(paper §2.1), each exploring their own region of the sky under their
own runtime/quality demands.  A :class:`Session` is the per-user
facade over one shared :class:`~repro.core.server.SciBorqServer`:

* its **report** counts only this user's queries, misses and
  failures (the shared engine log holds every query with what it
  cost and achieved, keyed by session id, feeding the global
  interest model);
* its **clock** aggregates only this user's spending — every query
  runs in its own :class:`~repro.util.clock.ExecutionContext` whose
  charges are forwarded here, so two sessions can run queries at the
  same instant and each still reads its exact own cost;
* its **default contract** (error bound, time budget, confidence,
  strictness) applies to every query that does not override it —
  "within 5 minutes" declared once per user, not per query.

Sessions are deliberately light: all heavy state (catalog,
hierarchies, interest) lives in the server's engine behind the
readers-writer lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.columnstore.query import Query
from repro.core.bounded import BoundedResult
from repro.core.contracts import Contract
from repro.core.handle import QueryHandle
from repro.errors import SessionError
from repro.util.clock import CostClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.server import SciBorqServer

#: Sentinel for "use the session default" in per-query overrides, so
#: an explicit ``None`` can still mean "unbounded for this query".
INHERIT = object()


@dataclass(frozen=True)
class SessionStats:
    """A point-in-time summary of one session's activity.

    ``failures`` counts submissions that errored server-side (strict
    bound misses, bad predicates) — queries with no outcome to count
    a miss on, which must still stay observable per tenant.
    """

    session_id: int
    name: str
    queries: int
    total_cost: float
    quality_misses: int
    budget_misses: int
    failures: int = 0


class Session:
    """One user's handle on a :class:`~repro.core.server.SciBorqServer`.

    Created by :meth:`SciBorqServer.open_session`, never directly.

    Parameters
    ----------
    server:
        The owning server; all execution is delegated to it.
    session_id:
        Server-unique id.
    name:
        Human label (defaults to ``"session-<id>"``).
    contract:
        The session's default :class:`Contract`, applied to every
        query not overriding it.  A tier name string (``"bronze"`` /
        ``"silver"`` / ``"gold"``) resolves through
        :meth:`Contract.preset`.
    shared_scans:
        Whether this user's scans may join the server's shared-scan
        convoys (:mod:`repro.core.scheduler`).  On by default —
        sharing changes wall-clock only, never answers or charges;
        opting out pins every scan of this session to the solo path.
    """

    def __init__(
        self,
        server: "SciBorqServer",
        session_id: int,
        name: Optional[str] = None,
        contract: Union[Contract, str, None] = None,
        shared_scans: bool = True,
    ) -> None:
        if isinstance(contract, str):
            contract = Contract.preset(contract)
        self._server = server
        self.session_id = session_id
        self.name = name if name is not None else f"session-{session_id}"
        #: Enrolment in the server's shared-scan convoys; carried into
        #: every execution context the server opens for this session.
        self.shared_scans = shared_scans
        self.defaults = contract if contract is not None else Contract()
        #: Aggregate observer: sums the cost of this session's queries.
        self.clock = CostClock()
        self._lock = threading.Lock()
        self._queries = 0
        self._quality_misses = 0
        self._budget_misses = 0
        self._failures = 0
        self._closed = False

    # ------------------------------------------------------------------
    # contract plumbing
    # ------------------------------------------------------------------
    def contract(
        self,
        max_relative_error=INHERIT,
        time_budget=INHERIT,
        confidence=INHERIT,
        strict=INHERIT,
    ) -> Contract:
        """The session defaults with per-query overrides applied.

        Omitted fields inherit the session default; an explicit
        ``None`` lifts a bound for this query only (e.g.
        ``time_budget=None`` runs unbounded despite a budgeted
        session).  Overriding the error bound on an exact-default
        session drops the exact routing — the caller asked for an
        approximate answer, so the ladder must actually run.  The SLA
        tier label survives any override that leaves the quality bound
        intact (a budgeted gold query is still a gold query); changing
        the error bound drops it — the promise is no longer the
        preset's.
        """
        return Contract(
            max_relative_error=(
                self.defaults.max_relative_error
                if max_relative_error is INHERIT
                else max_relative_error
            ),
            time_budget=(
                self.defaults.time_budget
                if time_budget is INHERIT
                else time_budget
            ),
            confidence=(
                self.defaults.confidence if confidence is INHERIT else confidence
            ),
            strict=self.defaults.strict if strict is INHERIT else strict,
            hierarchy=self.defaults.hierarchy,
            is_exact=self.defaults.is_exact and max_relative_error is INHERIT,
            tier=(
                self.defaults.tier if max_relative_error is INHERIT else None
            ),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        contract: Optional[Contract] = None,
        hierarchy: Optional[str] = None,
    ) -> BoundedResult:
        """Run one query, blocking; the session default contract
        applies unless ``contract`` replaces it for this query
        (:meth:`contract` builds per-field overrides of the default).
        """
        self._require_open()
        return self._server.execute(self, query, contract, hierarchy=hierarchy)

    # ------------------------------------------------------------------
    # progressive execution
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        contract: Optional[Contract] = None,
        hierarchy: Optional[str] = None,
    ) -> QueryHandle:
        """Submit one query for progressive execution on the server.

        Returns immediately with a :class:`~repro.core.handle.
        QueryHandle` the server's pool drains in the background:
        iterate it (or register ``on_progress`` callbacks, delivered
        from the worker thread) to watch the ladder climb, call
        ``result()`` to block for the final answer, or ``cancel()``
        to stop between rungs and keep the best answer so far.
        """
        self._require_open()
        return self._server.submit(self, query, contract, hierarchy=hierarchy)

    def recommend(self, query: Query):
        """Mined ladder advice for ``query``'s sky region, or ``None``.

        The collaborative read-out of the engine's workload
        intelligence: how many settled queries this region of the sky
        has, how far up the ladder they climbed, and what error/cost
        they achieved — a preview before committing to a contract.
        Requires a service installed with ``engine.set_intelligence``;
        returns ``None`` otherwise (or below the mined support
        threshold).  Queries settled before the call are reflected:
        the service mines the log on demand.
        """
        self._require_open()
        return self._server.recommend(self, query)

    # ------------------------------------------------------------------
    # bookkeeping (called by the server)
    # ------------------------------------------------------------------
    def _record_submission(self) -> None:
        # counted by the server at *submission* time — uniformly across
        # execute and submit — so a query in flight already counts
        with self._lock:
            self._queries += 1

    def _record(self, outcome: BoundedResult) -> None:
        with self._lock:
            self._quality_misses += not outcome.met_quality
            self._budget_misses += not outcome.met_budget

    def _record_failure(self) -> None:
        """Count a server-side failure of one of this session's queries.

        A failed submission has no outcome to count a miss on, so
        without this counter a strict-miss on a background handle
        would be invisible to the tenant's stats.
        """
        with self._lock:
            self._failures += 1

    def _require_open(self) -> None:
        if self._closed:
            raise SessionError(
                f"session {self.name!r} (id={self.session_id}) is closed"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total_cost(self) -> float:
        """Cost units spent by this session's queries alone."""
        return self.clock.now

    def report(self) -> SessionStats:
        """Current activity summary.

        ``queries`` counts every submission (bounded and exact, in
        flight, settled or failed); the miss counters cover settled
        outcomes, ``failures`` the submissions that errored.
        """
        with self._lock:
            return SessionStats(
                session_id=self.session_id,
                name=self.name,
                queries=self._queries,
                total_cost=self.clock.now,
                quality_misses=self._quality_misses,
                budget_misses=self._budget_misses,
                failures=self._failures,
            )

    def close(self) -> None:
        """Detach from the server; further execution raises."""
        if not self._closed:
            self._closed = True
            self._server._forget_session(self)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.name!r}, id={self.session_id}, {state}, "
            f"queries={self._queries}, cost={self.clock.now:g})"
        )
