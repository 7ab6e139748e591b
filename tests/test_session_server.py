"""Tests for the multi-session server layer.

The headline guarantee — pinned deterministically here — is zero
cross-session budget leakage: a query's reported ``total_cost`` under
concurrent execution equals, exactly, what the same query costs run
alone on an identical engine.  Everything else (locking discipline,
session lifecycle, contract defaults) supports that guarantee.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.engine import SciBorq
from repro.core.governor import MemoryGovernor
from repro.core.monitor import ContractMonitor
from repro.core.scheduler import SharedScanScheduler
from repro.core.handle import QueryHandle
from repro.core.server import SciBorqServer, ShutdownReport
from repro.errors import QueryError, SessionError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.util.concurrency import ReadWriteLock
from repro.core.contracts import Contract


class _UnenforceableGovernor(MemoryGovernor):
    """A governor whose first enforcement hits a spill error."""

    def enforce(self, engine):
        raise OSError("spill device full")


def make_engine() -> SciBorq:
    """A deterministic engine; two calls produce identical state."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=401,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(5_000, 500)
    )
    build_skyserver(
        30_000, generator=SkyGenerator(rng=402), loader=engine.loader
    )
    return engine


def cone(ra: float, radius: float) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, 10.0, radius),
        aggregates=[AggregateSpec("count")],
    )


#: (center ra, radius, max_relative_error) per session "user".
WORKLOADS = {
    "alice": [(150.0, 5.0, 0.05), (170.0, 3.0, 0.5), (200.0, 8.0, 0.1)],
    "bob": [(210.0, 2.0, 0.5), (130.0, 6.0, 0.02), (190.0, 4.0, 0.2)],
    "carol": [(160.0, 7.0, 0.3), (220.0, 5.0, 0.05), (140.0, 3.0, 0.5)],
    "dave": [(180.0, 6.0, 0.1), (150.0, 2.0, 0.5), (230.0, 7.0, 0.02)],
}


class TestCrossSessionIsolation:
    def test_concurrent_costs_equal_serial_costs_exactly(self):
        """The ISSUE's deterministic regression: zero budget leakage.

        Four sessions run interleaved on a thread pool; every query's
        ``total_cost`` must equal — exactly, under the deterministic
        CostClock — the cost of the same query run serially on an
        identically-seeded engine.
        """
        serial_engine = make_engine()
        serial_costs = {}
        for user, specs in WORKLOADS.items():
            for ra, radius, error in specs:
                outcome = serial_engine.execute(
                    cone(ra, radius), Contract.within_error(error)
                )
                serial_costs[(user, ra, radius)] = outcome.total_cost

        with SciBorqServer(make_engine(), max_workers=4) as server:
            sessions = {user: server.open_session(user) for user in WORKLOADS}
            handles, keys = [], []
            # interleave users round-robin so the pool mixes sessions
            for position in range(3):
                for user, specs in WORKLOADS.items():
                    ra, radius, error = specs[position]
                    session = sessions[user]
                    handles.append(
                        session.submit(
                            cone(ra, radius),
                            Contract.within_error(error),
                        )
                    )
                    keys.append((user, ra, radius))
            outcomes = [handle.result() for handle in handles]

            for key, outcome in zip(keys, outcomes):
                assert outcome.total_cost == serial_costs[key], key
                # total_cost is also internally consistent: the sum of
                # the attempts' own charges
                assert outcome.total_cost == sum(
                    attempt.cost for attempt in outcome.attempts
                )

            # session clocks partition the engine clock exactly
            engine_total = server.engine.clock.now
            session_total = sum(s.clock.now for s in sessions.values())
            assert engine_total == session_total
            for user, session in sessions.items():
                expected = sum(
                    serial_costs[(user, ra, radius)]
                    for ra, radius, _ in WORKLOADS[user]
                )
                assert session.total_cost == expected

    def test_per_session_logs_see_only_their_queries(self):
        with SciBorqServer(make_engine(), max_workers=2) as server:
            alice = server.open_session("alice")
            bob = server.open_session("bob")
            handles = [alice.submit(cone(150.0, 5.0)), alice.submit(cone(160.0, 5.0))]
            bob.execute(cone(200.0, 3.0))
            for handle in handles:
                handle.result()
            assert alice.report().queries == 2
            assert bob.report().queries == 1
            # the shared engine log feeds the global interest model
            assert len(server.engine.query_log) == 3

    def test_every_query_path_records_in_the_session_log(self):
        """The unification regression: execute, submit, and an exact
        execute all count in ``session.report().queries`` (at
        submission time), not just the exact path."""
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("all-paths")
            session.execute(cone(150.0, 5.0), Contract.within_error(0.5))
            session.submit(cone(160.0, 5.0)).result()
            server.execute(session, cone(170.0, 5.0), Contract.exact())
            assert session.report().queries == 3
            assert len(server.engine.query_log) == 3

    def test_engine_log_settles_with_session_outcomes(self):
        """Server-driven executions settle their engine-log entries
        with outcome metadata carrying the owning session's id."""
        with SciBorqServer(make_engine(), max_workers=2) as server:
            alice = server.open_session("alice")
            outcome = alice.execute(cone(150.0, 5.0), Contract.within_error(0.5))
            alice.submit(cone(160.0, 5.0)).result()
            server.execute(alice, cone(170.0, 5.0), Contract.exact())
            entries = server.engine.query_log.snapshot()
            assert len(entries) == 3
            assert all(e.settled for e in entries)
            assert all(
                e.outcome.session_id == alice.session_id for e in entries
            )
            blocking = entries[0].outcome
            assert blocking.tuples_charged == outcome.total_cost
            assert blocking.rungs_climbed == len(outcome.attempts)
            assert blocking.wall_seconds >= 0.0
            exact = entries[2].outcome
            assert exact.rungs_climbed == 1
            assert exact.achieved_error == 0.0


class TestSessionLifecycle:
    def test_session_defaults_and_overrides(self):
        with SciBorqServer(make_engine()) as server:
            session = server.open_session(
                "strict-user",
                contract=Contract.within_error(0.1) & Contract.within_budget(50_000),
            )
            assert session.defaults.max_relative_error == 0.1
            assert session.defaults.time_budget == 50_000
            # a per-query contract replaces the default whole
            outcome = session.execute(cone(150.0, 5.0), Contract.within_error(0.9))
            assert outcome.contract == Contract.within_error(0.9)

    def test_budgeted_session_reports_spend_within_budget(self):
        with SciBorqServer(make_engine()) as server:
            session = server.open_session("frugal", contract=Contract.within_budget(6_000))
            outcome = session.execute(cone(150.0, 5.0))
            assert outcome.met_budget
            assert outcome.total_cost <= 6_000

    def test_closed_session_rejects_execution(self):
        with SciBorqServer(make_engine()) as server:
            session = server.open_session()
            session.close()
            assert "closed" in repr(session)
            with pytest.raises(SessionError, match="closed"):
                session.execute(cone(150.0, 5.0))
            assert session not in server.sessions

    def test_shutdown_closes_sessions_and_rejects_new_ones(self):
        server = SciBorqServer(make_engine())
        session = server.open_session()
        server.shutdown()
        assert "closed" in repr(session)
        with pytest.raises(SessionError, match="shut down"):
            server.open_session()
        server.shutdown()  # idempotent

    @pytest.mark.parametrize(
        "kwargs,error",
        [
            # a bad argument: the contract preset is resolved last
            ({"contract": "platinum"}, QueryError),
            # an install that fails half-way: the budget cannot be enforced
            ({"memory_budget": _UnenforceableGovernor(1 << 20)}, OSError),
        ],
        ids=["contract-preset", "install-fails"],
    )
    def test_failed_constructor_leaves_the_engine_as_found(self, kwargs, error):
        """No server object exists to shut down, so whatever the
        constructor installed before it raised must not stay behind."""
        engine = make_engine()
        earlier = SharedScanScheduler()
        engine.set_scan_scheduler(earlier)
        with pytest.raises(error):
            SciBorqServer(engine, **{"memory_budget": 1 << 20, **kwargs})
        assert engine.scan_scheduler is earlier
        assert engine.memory_governor is None
        assert engine.monitor is None
        assert engine.server is None

    def test_second_server_on_an_owned_engine_is_refused(self):
        """One owner: two servers would guard one engine with two
        locks.  The refusal comes before the engine is touched."""
        engine = make_engine()
        with SciBorqServer(engine, memory_budget=1 << 30) as owner:
            found = (engine.scan_scheduler, engine.memory_governor, engine.monitor)
            with pytest.raises(SessionError, match="already served"):
                SciBorqServer(engine, memory_budget=1 << 20)
            assert found == (
                engine.scan_scheduler, engine.memory_governor, engine.monitor
            )
            assert engine.server is owner
            owner.open_session().execute(cone(150.0, 5.0))  # still serving
        with SciBorqServer(engine) as successor:
            assert engine.server is successor

    def test_shutdown_leaves_nothing_installed_and_remembers_nothing(self):
        engine = make_engine()
        engine.set_scan_scheduler(SharedScanScheduler())
        engine.set_memory_governor(MemoryGovernor(1 << 30))
        engine.set_monitor(ContractMonitor())
        server = SciBorqServer(engine, memory_budget=1 << 30)
        assert engine.scan_scheduler is server.scheduler
        assert engine.memory_governor is server.memory_governor
        assert engine.monitor is server.monitor
        server.shutdown()
        assert engine.scan_scheduler is None
        assert engine.memory_governor is None
        assert engine.monitor is None
        assert engine.server is None

    def test_strict_misses_fail_their_own_handles(self):
        """Each strict miss re-raises from its own handle and is
        counted once; a lenient query submitted beside them answers."""
        from repro.errors import QualityBoundError

        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("strict", contract=Contract().strictly())
            # only the smallest layer fits the budget: bound missed
            impossible = Contract(max_relative_error=1e-12, time_budget=600, strict=True)
            missed = [
                session.submit(cone(150.0, 5.0), impossible),
                session.submit(cone(170.0, 3.0), impossible),
            ]
            ok = session.submit(
                cone(150.0, 5.0), Contract(max_relative_error=0.9, strict=True)
            )
            for handle in missed:
                with pytest.raises(QualityBoundError):
                    handle.result()
            assert ok.result().result is not None
            with pytest.raises(QualityBoundError):
                session.execute(cone(150.0, 5.0), impossible)
            # a pool worker counts its failure after settling the handle
            deadline = time.monotonic() + 5.0
            while server.queries_failed < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.queries_failed == 3
            assert session.report().failures == 3

    def test_session_stats_roll_up(self):
        with SciBorqServer(make_engine()) as server:
            session = server.open_session("counter")
            session.execute(cone(150.0, 5.0), Contract.within_error(0.5))
            stats = session.report()
            assert stats.queries == 1
            assert stats.total_cost == session.total_cost > 0
            assert server.queries_served == 1

    def test_the_miss_counters_stay_exact(self):
        """The session's counters cover every outcome it settled."""
        contracts = [Contract.within_budget(1.0), Contract.within_error(0.5)]
        with SciBorqServer(make_engine()) as server:
            session = server.open_session("long-lived")
            outcomes = [
                session.execute(cone(150.0, 5.0), contract)
                for contract in contracts * 3
            ]
            stats = session.report()
            assert stats.queries == len(outcomes)
            assert stats.quality_misses == sum(
                not o.met_quality for o in outcomes
            )
            assert stats.budget_misses == 3 == sum(
                not o.met_budget for o in outcomes
            )


class TestWriterPaths:
    def test_ingest_between_query_batches(self):
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session()
            before = session.execute(cone(150.0, 5.0))
            base_rows = server.engine.catalog.table("PhotoObjAll").num_rows
            generator = SkyGenerator(rng=403)
            server.ingest("PhotoObjAll", generator.photoobj_batch(2_000))
            assert (
                server.engine.catalog.table("PhotoObjAll").num_rows
                == base_rows + 2_000
            )
            after = session.execute(cone(150.0, 5.0))
            assert after.result is not None
            assert before.result is not None

    def test_concurrent_queries_and_ingest_smoke(self):
        """Readers and a writer interleave without corrupting state."""
        with SciBorqServer(make_engine(), max_workers=4) as server:
            sessions = [server.open_session(f"u{i}") for i in range(3)]
            stop = threading.Event()
            errors: list[BaseException] = []

            def keep_ingesting() -> None:
                generator = SkyGenerator(rng=404)
                try:
                    while not stop.is_set():
                        server.ingest(
                            "PhotoObjAll", generator.photoobj_batch(500)
                        )
                        time.sleep(0.001)
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            writer = threading.Thread(target=keep_ingesting)
            writer.start()
            try:
                for _ in range(3):
                    handles = [
                        session.submit(cone(150.0 + 10 * i, 5.0))
                        for i, session in enumerate(sessions)
                    ]
                    outcomes = [handle.result() for handle in handles]
                    assert all(o.result is not None for o in outcomes)
            finally:
                stop.set()
                writer.join(timeout=30)
            assert not errors
            assert not writer.is_alive()


class TestFailureAccounting:
    """A failure nobody asks about is still counted, per server and
    per session."""

    def test_strict_miss_on_submit_is_observable_server_side(self):
        """A background strict miss must be countable without anyone
        calling ``result()``."""
        with SciBorqServer(make_engine(), max_workers=1) as server:
            session = server.open_session(
                "strict",
                contract=Contract(
                    max_relative_error=1e-12,
                    time_budget=600,  # only the smallest layer fits
                    strict=True,
                ),
            )
            handle = session.submit(cone(150.0, 5.0))
            # wait for the background drain — via the handle's done
            # event, not result(), which would re-raise
            assert handle._done.wait(10.0)
            deadline = time.monotonic() + 5.0
            while server.queries_failed == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.queries_failed == 1
            assert session.report().failures == 1
            assert "1 failed" in server.report().render()
            # the failure still reaches a caller who does ask
            with pytest.raises(Exception):
                handle.result()

    def test_blocking_failures_are_counted_too(self):
        from repro.errors import QualityBoundError

        with SciBorqServer(make_engine()) as server:
            session = server.open_session(
                "strict", contract=Contract().strictly()
            )
            with pytest.raises(QualityBoundError):
                session.execute(
                    cone(150.0, 5.0),
                    Contract(max_relative_error=1e-12, time_budget=600, strict=True),
                )
            assert server.queries_failed == 1
            assert session.report().failures == 1

    def test_execute_exact_failures_are_counted(self):
        from repro.columnstore.expressions import Comparison
        from repro.errors import UnknownColumnError

        bad = Query(
            table="PhotoObjAll",
            predicate=Comparison("missing", ">", 0.0),
            aggregates=[AggregateSpec("count")],
        )
        with SciBorqServer(make_engine(), max_workers=1) as server:
            session = server.open_session("oops")
            with pytest.raises(UnknownColumnError):
                server.execute(session, bad, Contract.exact())
            assert server.queries_failed == 1
            assert session.report().failures == 1
            assert session.report().quality_misses == 0


    @pytest.mark.parametrize("path", ["submit", "execute"])
    def test_a_settle_hook_error_fails_the_query_and_counts_once(
        self, monkeypatch, path
    ):
        """The engine's settle hook raising fails the handle with that
        error: a driven handle does not hang, a lazy one does not turn it
        into an ``AssertionError``, and the failure counts once."""

        class SettleError(RuntimeError):
            pass

        def broken_settle(sequence, outcome):
            raise SettleError("query log unavailable")

        engine = make_engine()
        server = SciBorqServer(engine, max_workers=1)
        session = server.open_session("settle")
        monkeypatch.setattr(engine.query_log, "settle", broken_settle)
        with pytest.raises(SettleError, match="query log unavailable"):
            if path == "submit":
                session.submit(cone(150.0, 5.0), Contract.within_error(0.1)).result(
                    timeout=5
                )
            else:
                session.execute(cone(150.0, 5.0), Contract.within_error(0.1))
        # the shutdown joins the worker, which counts after settling
        assert server.shutdown(wait=True).cancelled == 0
        assert server.queries_failed == 1
        assert server.queries_served == 0
        assert session.report().failures == 1


class TestQueueSplit:
    def test_queue_time_split_in_progress_updates(self):
        with SciBorqServer(make_engine()) as server:
            session = server.open_session("timed")
            handle = session.submit(
                cone(150.0, 5.0), contract=Contract.within_error(0.1)
            )
            handle.result()
            assert handle.queue_seconds is not None
            assert handle.queue_seconds >= 0
            assert handle.run_seconds is not None
            for update in handle.updates:
                assert update.queue_seconds is not None
                assert update.run_seconds is not None
                assert "queued=" in update.describe()

    def test_lazy_handles_carry_no_queue_split(self):
        """Engine-level (unqueued) handles carry no timing fields."""
        engine = make_engine()
        handle = engine.submit(cone(150.0, 5.0), Contract.within_error(0.1))
        handle.result()
        assert handle.queue_seconds is None
        for update in handle.updates:
            assert update.queue_seconds is None
            assert update.run_seconds is None
            assert "queued=" not in update.describe()


class TestFaultInjection:
    """Threads die, cancels race, shutdown overtakes: every handle
    still settles, and no caller blocks forever."""

    def test_worker_death_mid_drain_settles_the_handle(self, monkeypatch):
        """A drain that blows up in the worker must fail the handle
        (caller unblocked) and count the failure — never hang."""

        def dying_drain(self):
            raise RuntimeError("worker died mid-drain")

        with SciBorqServer(make_engine(), max_workers=1) as server:
            session = server.open_session("doomed")
            monkeypatch.setattr(QueryHandle, "drain", dying_drain)
            handle = session.submit(cone(150.0, 5.0))
            with pytest.raises(RuntimeError, match="worker died"):
                handle.result(timeout=10.0)
            monkeypatch.undo()
            deadline = time.monotonic() + 5.0
            while server.queries_failed == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.queries_failed == 1
            # the server survives: the next query is unaffected
            ok = session.submit(cone(150.0, 5.0), Contract.within_error(0.1))
            assert ok.result(timeout=10.0).result is not None

    def test_cancel_of_a_queued_submit_still_settles(self):
        """Cancelling a handle still waiting for the one pool worker
        settles it with a best-so-far answer, not a hang."""
        with SciBorqServer(make_engine(), max_workers=1) as server:
            session = server.open_session("racer")
            ahead = [
                session.submit(
                    cone(150.0, 5.0), contract=Contract.within_error(0.2)
                )
                for _ in range(3)
            ]
            racer = session.submit(
                cone(170.0, 3.0), contract=Contract.within_error(0.2)
            )
            racer.request_cancel()  # likely still queued right now
            outcome = racer.result(timeout=10.0)
            assert outcome.result is not None  # first rung, at minimum
            for handle in ahead:
                handle.result(timeout=10.0)

    def test_shutdown_timeout_fails_a_wedged_drain(self, monkeypatch):
        """A drain that never finishes cannot hang ``shutdown(timeout=)``;
        its handle is settled and the report says so."""
        release = threading.Event()

        def wedged_drain(self):
            release.wait(30.0)  # ignores cancel; simulates a wedge

        monkeypatch.setattr(QueryHandle, "drain", wedged_drain)
        try:
            server = SciBorqServer(make_engine(), max_workers=1)
            session = server.open_session("wedged")
            handle = session.submit(cone(150.0, 5.0))
            queued = session.submit(cone(170.0, 3.0))  # never dispatched
            started = time.monotonic()
            report = server.shutdown(wait=True, timeout=0.3)
            assert time.monotonic() - started < 10.0
            assert isinstance(report, ShutdownReport)
            assert report.cancelled == 2
            for stuck in (handle, queued):
                with pytest.raises(SessionError):
                    stuck.result(timeout=1.0)
        finally:
            release.set()

    def test_queries_a_timed_shutdown_fails_count_exactly_once(
        self, monkeypatch
    ):
        """A wedged drain and the submits queued behind it are failed by
        ``shutdown(timeout=)``, and each counts once — the wedged one too,
        when its worker finishes after the shutdown failed it."""
        release = threading.Event()
        original = QueryHandle.drain
        wedged = []

        def drain(self):
            if not wedged:
                wedged.append(self)
                release.wait(30.0)  # ignores cancel; simulates a wedge
            original(self)

        monkeypatch.setattr(QueryHandle, "drain", drain)
        server = SciBorqServer(make_engine(), max_workers=1)
        session = server.open_session("wedged")
        try:
            handles = [
                session.submit(cone(150.0 + i, 5.0), Contract.within_error(0.1))
                for i in range(4)
            ]
            report = server.shutdown(timeout=0.2)
        finally:
            release.set()
        server._pool.shutdown(wait=True)  # the wedged worker has finished
        for handle in handles:
            with pytest.raises(SessionError):
                handle.result(timeout=0)
        assert report.cancelled == 4
        assert server.queries_served + server.queries_failed == len(handles)
        assert server.queries_failed == session.report().failures == 4

    def test_queries_a_waiting_shutdown_fails_are_counted(self, monkeypatch):
        """A drain the pool never ran is failed by ``shutdown(wait=True)``
        and counts in ``queries_failed`` and the session's failures."""
        monkeypatch.setattr(
            SciBorqServer, "_drive_handle", lambda self, handle: None
        )
        server = SciBorqServer(make_engine(), max_workers=1)
        session = server.open_session("dropped")
        handle = session.submit(cone(150.0, 5.0))
        report = server.shutdown(wait=True)
        with pytest.raises(SessionError, match="before this query completed"):
            handle.result(timeout=0)
        assert report.cancelled == 1
        assert server.queries_failed == session.report().failures == 1

    def test_shutdown_without_timeout_reports_and_is_idempotent(self):
        server = SciBorqServer(make_engine())
        session = server.open_session("s")
        handle = session.submit(cone(150.0, 5.0), Contract.within_error(0.1))
        report = server.shutdown(wait=True)
        assert isinstance(report, ShutdownReport)
        handle.result(timeout=1.0)  # drained before the pool stopped
        again = server.shutdown()
        assert again == ShutdownReport()

    def test_a_submit_the_shutdown_overtakes_fails_and_is_counted(
        self, monkeypatch
    ):
        """The pool stopped between ``_require_open`` and dispatch: the
        handle fails at once with the shut-down error and counts."""
        server = SciBorqServer(make_engine(), max_workers=1)
        session = server.open_session("late")
        server._pool.shutdown(wait=True)
        handle = session.submit(cone(150.0, 5.0))
        assert handle.done
        with pytest.raises(SessionError, match="server is shut down"):
            handle.result(timeout=0)
        assert server.queries_failed == 1
        assert session.report().failures == 1
        assert server.shutdown(timeout=1.0) == ShutdownReport()


#: (center ra, radius, max_relative_error) of one session's 25 queries;
#: the modular walk repeats cones within and across sessions, so
#: convoys and selection-cache hits happen alongside fresh scans.
def liveness_stream(session: int):
    errors = (0.5, 0.2, 0.1, 0.05)
    return [
        (130.0 + (session * 7 + i * 11) % 100, 2.0 + i % 5, errors[(session + i) % 4])
        for i in range(25)
    ]


def answer(outcome):
    """What a query returned and what it was charged, rung by rung."""
    estimates = dict(outcome.result.estimates)
    attempts = [
        (a.source, a.rows, a.cost, a.relative_error, a.satisfied)
        for a in outcome.attempts
    ]
    return estimates, outcome.total_cost, attempts


class TestLiveness:
    """Every pool-driven handle settles, whatever the contention."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_eight_sessions_bursting_all_settle_with_serial_answers(
        self, workers
    ):
        serial_engine = make_engine()
        serial = {
            (s, i): answer(
                serial_engine.execute(cone(ra, radius), Contract.within_error(error))
            )
            for s in range(8)
            for i, (ra, radius, error) in enumerate(liveness_stream(s))
        }
        server = SciBorqServer(make_engine(), max_workers=workers)
        sessions = [server.open_session(f"client-{s}") for s in range(8)]
        handles = {}
        failures = []

        def client(s: int) -> None:
            try:
                session = sessions[s]
                for i, (ra, radius, error) in enumerate(liveness_stream(s)):
                    handles[(s, i)] = session.submit(
                        cone(ra, radius), Contract.within_error(error)
                    )
            except BaseException as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave clients and workers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert len(handles) == len(serial)
            for key, handle in handles.items():
                assert answer(handle.result(timeout=30.0)) == serial[key], key
        finally:
            sys.setswitchinterval(interval)
            report = server.shutdown(timeout=5.0)
        assert all(handle.done for handle in handles.values())
        assert report.cancelled == 0
        # a worker counts its query just after settling the handle
        deadline = time.monotonic() + 5.0
        while server.queries_served < len(serial) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.queries_served == len(serial)
        assert server.queries_failed == 0

    def test_shutdown_racing_submits_settles_every_handle(self):
        """Clients keep submitting while a timed shutdown runs: a
        submit either raises the shut-down error or returns a handle
        that settles."""
        server = SciBorqServer(make_engine(), max_workers=2)
        sessions = [server.open_session(f"client-{s}") for s in range(4)]
        handles = []

        def client(s: int) -> None:
            for ra, radius, error in liveness_stream(s) * 4:
                try:
                    handles.append(
                        sessions[s].submit(
                            cone(ra, radius), Contract.within_error(error)
                        )
                    )
                except SessionError:
                    return  # the server (and so the session) is shut down

        threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        started = time.monotonic()
        server.shutdown(timeout=0.2)
        # the cancel grace is shared, not paid once per queued handle
        assert time.monotonic() - started < 5.0
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert handles
        for handle in handles:
            assert handle._done.wait(5.0)
            try:
                handle.result(timeout=0)
            except SessionError:
                pass  # cancelled, never dispatched, or overtaken


class TestReadWriteLock:
    def test_many_readers_coexist(self):
        lock = ReadWriteLock()
        both_inside = threading.Barrier(2, timeout=5)

        def reader() -> None:
            with lock.read_locked():
                both_inside.wait()  # breaks unless both hold the lock at once

        thread = threading.Thread(target=reader)
        thread.start()
        reader()
        thread.join(timeout=5)
        assert not both_inside.broken

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        ready = threading.Event()

        def reader() -> None:
            ready.set()
            with lock.read_locked():
                order.append("reader")

        lock.acquire_write()
        thread = threading.Thread(target=reader)
        thread.start()
        ready.wait(timeout=5)
        time.sleep(0.02)  # reader is now blocked on the write side
        order.append("writer")
        lock.release_write()
        thread.join(timeout=5)
        assert order == ["writer", "reader"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_entered = threading.Event()

        def writer() -> None:
            with lock.write_locked():
                writer_entered.set()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.02)  # writer is now queued
        late_reader_done = threading.Event()

        def late_reader() -> None:
            with lock.read_locked():
                late_reader_done.set()

        late = threading.Thread(target=late_reader)
        late.start()
        time.sleep(0.02)
        # writer preference: the late reader must still be waiting
        assert not late_reader_done.is_set()
        lock.release_read()
        thread.join(timeout=5)
        late.join(timeout=5)
        assert writer_entered.is_set() and late_reader_done.is_set()

    def test_unbalanced_release_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()
