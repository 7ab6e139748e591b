"""Tests for admission control and the robustness satellites.

The overload guarantees pinned here:

* **Byte-identity for admitted queries** — admission changes *when* a
  query runs, never its answer or charge: results under load equal an
  unloaded run exactly.
* **Structured sheds** — a full queue (or quota, or shutdown) answers
  with a :class:`RejectedQuery` carrying reason and retry-after
  advice, never a silent hang or an opaque timeout.
* **No starvation** — popularity-first dispatch is tempered by
  unbounded linear aging, so a queued query on an unpopular table
  monotonically gains priority and eventually dispatches.
* **Honest degradation** — under pressure a query runs coarser, and
  its outcome says so (``degraded=True``); exact contracts are never
  coarsened.
* **Failure observability** — a background strict miss is counted per
  server and per session even if nobody ever calls ``result()``.
* **Settled handles, always** — worker death mid-drain, cancel racing
  admission, and timed shutdown all leave every handle settled; no
  caller blocks forever.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.admission import AdmissionController, RejectedQuery
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.handle import QueryHandle
from repro.core.server import SciBorqServer, ShutdownReport
from repro.errors import OverloadedError, SessionError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog


def make_engine() -> SciBorq:
    """A deterministic engine; two calls produce identical state."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=801,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(5_000, 500)
    )
    build_skyserver(
        30_000, generator=SkyGenerator(rng=802), loader=engine.loader
    )
    return engine


def cone(ra: float, radius: float) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, 10.0, radius),
        aggregates=[AggregateSpec("count")],
    )


def fake_session(session_id: int, name: str, weight: float = 1.0):
    """The duck the controller needs: id, name, weight."""
    return SimpleNamespace(session_id=session_id, name=name, weight=weight)


def fake_query(table: str):
    return SimpleNamespace(table=table)


class FakeClock:
    """Injectable monotonic seconds, advanced by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# controller unit tests (deterministic, fake clock, no engine)
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionController(per_session_limit=0)
        with pytest.raises(ValueError):
            AdmissionController(degrade_threshold=1.5)
        with pytest.raises(ValueError):
            AdmissionController(degrade_factor=1.0)
        with pytest.raises(ValueError):
            AdmissionController(age_rate=-1.0)
        with pytest.raises(ValueError):
            AdmissionController().admit(
                fake_session(0, "s"), fake_query("t"), Contract(), kind="wat"
            )

    def test_queue_full_sheds_structurally(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=1, degrade_threshold=None, clock=clock
        )
        user = fake_session(0, "alice")
        # slot + queue: both admitted (ticket returned, no exception)
        ctrl.admit(user, fake_query("T"), Contract())
        ctrl.admit(user, fake_query("T"), Contract())
        with pytest.raises(OverloadedError) as caught:
            ctrl.admit(user, fake_query("T"), Contract())
        rejection = caught.value.rejection
        assert isinstance(rejection, RejectedQuery)
        assert rejection.reason == "queue_full"
        assert rejection.session_name == "alice"
        assert rejection.retry_after > 0
        assert rejection.queued == 2
        assert "retry after" in rejection.describe()
        stats = ctrl.stats
        assert stats.submitted == 3
        assert stats.shed_queue_full == 1
        assert stats.shed == 1

    def test_free_slots_never_shed(self):
        """queue_depth=0 still admits up to max_inflight — the bound
        counts waiting *beyond* free slots."""
        ctrl = AdmissionController(
            max_inflight=2, queue_depth=0, degrade_threshold=None
        )
        user = fake_session(0, "u")
        ctrl.admit(user, fake_query("T"), Contract())
        ctrl.admit(user, fake_query("T"), Contract())
        with pytest.raises(OverloadedError):
            ctrl.admit(user, fake_query("T"), Contract())

    def test_session_quota_sheds_only_the_hog(self):
        ctrl = AdmissionController(
            max_inflight=1,
            queue_depth=8,
            per_session_limit=2,
            degrade_threshold=None,
        )
        hog = fake_session(0, "hog")
        other = fake_session(1, "other")
        ctrl.admit(hog, fake_query("T"), Contract())
        ctrl.admit(hog, fake_query("T"), Contract())
        with pytest.raises(OverloadedError) as caught:
            ctrl.admit(hog, fake_query("T"), Contract())
        assert caught.value.rejection.reason == "session_quota"
        # the other tenant is still admitted
        ctrl.admit(other, fake_query("T"), Contract())
        assert ctrl.stats.shed_session_quota == 1

    def test_aging_beats_popularity(self):
        """The no-starvation guarantee: a queued query's age term is
        unbounded, so it eventually outranks any stream of *fresh*
        popular arrivals — a convoy can delay it, never bury it."""
        clock = FakeClock()
        ctrl = AdmissionController(
            max_inflight=1,
            queue_depth=16,
            degrade_threshold=None,
            age_rate=10.0,
            clock=clock,
        )
        user = fake_session(0, "u")
        starved, _ = ctrl.admit(user, fake_query("cold"), Contract())
        clock.advance(2.0)  # starved for two seconds
        # a fresh convoy on the popular table: popularity boost ~5,
        # age 0 — the starved query's age term (20) dominates
        for _ in range(5):
            ctrl.admit(user, fake_query("hot"), Contract())
        granted = ctrl.take(timeout=0)
        assert granted is starved
        ctrl.release(granted)

    def test_popularity_prefers_convoys_when_fresh(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=16, degrade_threshold=None, clock=clock
        )
        user = fake_session(0, "u")
        ctrl.admit(user, fake_query("lonely"), Contract())
        ctrl.admit(user, fake_query("busy"), Contract())
        ctrl.admit(user, fake_query("busy"), Contract())
        granted = ctrl.take(timeout=0)
        assert granted.query.table == "busy"

    def test_session_weight_buys_position(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=8, degrade_threshold=None, clock=clock
        )
        light = fake_session(0, "light", weight=1.0)
        heavy = fake_session(1, "heavy", weight=5.0)
        ctrl.admit(light, fake_query("A"), Contract())
        ctrl.admit(heavy, fake_query("B"), Contract())
        granted = ctrl.take(timeout=0)
        assert granted.session is heavy

    def test_degradation_coarsens_and_marks(self):
        ctrl = AdmissionController(
            max_inflight=1,
            queue_depth=1,
            degrade_threshold=0.5,
            degrade_factor=4.0,
        )
        user = fake_session(0, "u")
        contract = Contract.within_error(0.05) & Contract.within_budget(800)
        ticket, effective = ctrl.admit(user, fake_query("T"), contract)
        assert ticket.degraded
        assert effective.max_relative_error == pytest.approx(0.2)
        assert effective.time_budget == pytest.approx(200)
        assert not effective.strict
        assert ctrl.stats.degraded == 1

    def test_strict_contracts_degrade_to_best_effort(self):
        """Shed-or-degrade must never become an unexpected hard error:
        coarsening drops strictness."""
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=1, degrade_threshold=0.5
        )
        strict = Contract.within_error(0.01).strictly()
        _, effective = ctrl.admit(
            fake_session(0, "u"), fake_query("T"), strict
        )
        assert not effective.strict

    def test_exact_contracts_are_never_degraded(self):
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=1, degrade_threshold=0.5
        )
        exact = Contract.exact()
        ticket, effective = ctrl.admit(
            fake_session(0, "u"), fake_query("T"), exact
        )
        assert not ticket.degraded
        assert effective is exact

    def test_unconstrained_contracts_have_nothing_to_coarsen(self):
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=1, degrade_threshold=0.5
        )
        plain = Contract()
        ticket, effective = ctrl.admit(
            fake_session(0, "u"), fake_query("T"), plain
        )
        assert not ticket.degraded
        assert effective is plain

    def test_retry_after_tracks_observed_run_time(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=1, degrade_threshold=None, clock=clock
        )
        user = fake_session(0, "u")
        ctrl.admit(user, fake_query("T"), Contract())
        granted = ctrl.take(timeout=0)
        clock.advance(2.0)  # the query "ran" for two seconds
        ctrl.release(granted)
        ctrl.admit(user, fake_query("T"), Contract())
        ctrl.take(timeout=0)
        ctrl.admit(user, fake_query("T"), Contract())  # fills the queue
        with pytest.raises(OverloadedError) as caught:
            ctrl.admit(user, fake_query("T"), Contract())
        # one queued ahead + this one, at ~2s per slot
        assert caught.value.rejection.retry_after >= 2.0

    def test_release_is_idempotent(self):
        ctrl = AdmissionController(max_inflight=1, degrade_threshold=None)
        ctrl.admit(fake_session(0, "u"), fake_query("T"), Contract())
        ticket = ctrl.take(timeout=0)
        ctrl.release(ticket)
        ctrl.release(ticket)
        stats = ctrl.stats
        assert stats.completed == 1
        assert stats.inflight == 0

    def test_close_evicts_waiting_and_unblocks_take(self):
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=4, degrade_threshold=None
        )
        user = fake_session(0, "u")
        ctrl.admit(user, fake_query("T"), Contract())
        granted = ctrl.take(timeout=0)
        ctrl.admit(user, fake_query("T"), Contract())
        evicted = ctrl.close()
        assert len(evicted) == 1
        assert ctrl.stats.shed_shutdown == 1
        with pytest.raises(OverloadedError) as caught:
            ctrl.admit(user, fake_query("T"), Contract())
        assert caught.value.rejection.reason == "shutdown"
        ctrl.release(granted)  # in-flight work still releases cleanly
        assert ctrl.take(timeout=0) is None

    def test_queue_seconds_accounting(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=4, degrade_threshold=None, clock=clock
        )
        user = fake_session(0, "u")
        ticket, _ = ctrl.admit(user, fake_query("T"), Contract())
        clock.advance(0.5)
        granted = ctrl.take(timeout=0)
        assert granted is ticket
        assert ticket.queue_seconds == pytest.approx(0.5)
        stats = ctrl.stats
        assert stats.max_queue_seconds == pytest.approx(0.5)
        assert stats.mean_queue_seconds == pytest.approx(0.5)
        assert "queue wait" in stats.describe()


# ----------------------------------------------------------------------
# server integration
# ----------------------------------------------------------------------
class TestServerAdmission:
    def test_admitted_results_byte_identical_to_unloaded(self):
        """Admission changes scheduling, never answers or charges."""
        specs = [(150.0, 5.0), (170.0, 3.0), (200.0, 8.0), (130.0, 6.0)]
        contract = Contract.within_error(0.1)

        unloaded = {}
        with SciBorqServer(make_engine()) as server:
            session = server.open_session("solo")
            for ra, radius in specs:
                outcome = session.execute(cone(ra, radius), contract)
                unloaded[(ra, radius)] = (
                    outcome.total_cost,
                    outcome.achieved_error,
                    outcome.result.estimates["count(*)"].value,
                )

        ctrl = AdmissionController(
            max_inflight=2, queue_depth=32, degrade_threshold=None
        )
        with SciBorqServer(
            make_engine(), max_workers=2, admission=ctrl
        ) as server:
            session = server.open_session("loaded")
            handles = [
                session.submit(cone(ra, radius), contract)
                for ra, radius in specs
            ]
            for (ra, radius), handle in zip(specs, handles):
                outcome = handle.result()
                assert not outcome.degraded
                assert unloaded[(ra, radius)] == (
                    outcome.total_cost,
                    outcome.achieved_error,
                    outcome.result.estimates["count(*)"].value,
                )
            stats = server.admission.stats
            assert stats.admitted == len(specs)
            assert stats.shed == 0

    def test_submit_burst_partial_admission(self):
        """Queue-full mid-burst: handles for the admitted, and a
        structured rejection on each shed submit's error — the admitted
        queries still answer."""
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=1, degrade_threshold=None
        )
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
            session = server.open_session("burst")
            handles, sheds = [], []
            for _ in range(6):
                try:
                    handles.append(
                        session.submit(cone(150.0, 5.0), Contract.within_error(0.1))
                    )
                except OverloadedError as exc:
                    assert isinstance(exc.rejection, RejectedQuery)
                    sheds.append(exc.rejection)
            assert all(isinstance(h, QueryHandle) for h in handles)
            assert len(handles) >= 2  # slot + queue at minimum
            assert sheds, "an overrun batch must shed structurally"
            for rejection in sheds:
                assert rejection.reason == "queue_full"
                assert rejection.retry_after > 0
            for handle in handles:
                outcome = handle.result()
                assert outcome.result is not None

    def test_submit_raises_overloaded_with_rejection(self):
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=0, degrade_threshold=None
        )
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
            session = server.open_session("greedy")
            first = session.submit(cone(150.0, 5.0))
            backlog = []
            with pytest.raises(OverloadedError) as caught:
                # the single slot may drain between submits; keep
                # pushing until one submission finds it occupied
                for _ in range(50):
                    backlog.append(session.submit(cone(150.0, 5.0)))
            assert caught.value.rejection.reason == "queue_full"
            first.result()
            for handle in backlog:
                handle.result()

    def test_degraded_outcome_is_marked(self):
        ctrl = AdmissionController(
            max_inflight=1,
            queue_depth=1,
            degrade_threshold=0.5,
            degrade_factor=4.0,
        )
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
            session = server.open_session("pressured")
            handle = session.submit(
                cone(150.0, 5.0), contract=Contract.within_error(0.05)
            )
            outcome = handle.result()
            assert outcome.degraded
            assert "DEGRADED" in outcome.describe()
            assert server.admission.stats.degraded == 1

    def test_blocking_execute_rides_the_same_queue(self):
        ctrl = AdmissionController(max_inflight=2, degrade_threshold=None)
        with SciBorqServer(
            make_engine(), max_workers=2, admission=ctrl
        ) as server:
            session = server.open_session("sync")
            outcome = session.execute(
                cone(150.0, 5.0), contract=Contract.within_error(0.1)
            )
            assert outcome.result is not None
            assert not outcome.degraded
            stats = server.admission.stats
            assert stats.submitted == 1
            assert stats.completed == 1

    def test_queue_time_split_in_progress_updates(self):
        with SciBorqServer(make_engine(), admission=AdmissionController()) as server:
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
        """Engine-level (unqueued) handles are byte-identical to the
        pre-admission behaviour: no timing fields."""
        engine = make_engine()
        handle = engine.submit(cone(150.0, 5.0), Contract.within_error(0.1))
        handle.result()
        assert handle.queue_seconds is None
        for update in handle.updates:
            assert update.queue_seconds is None
            assert update.run_seconds is None
            assert "queued=" not in update.describe()

    def test_no_starvation_under_convoy_pressure(self):
        """Every admitted query completes — including the lone query
        whose table never forms a convoy."""
        ctrl = AdmissionController(
            max_inflight=1,
            queue_depth=64,
            degrade_threshold=None,
            age_rate=10.0,
        )
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
            convoy = server.open_session("convoy")
            loner = server.open_session("loner")
            lone_handle = loner.submit(
                cone(230.0, 2.0), contract=Contract.within_error(0.5)
            )
            convoy_handles = [
                convoy.submit(
                    cone(150.0, 5.0), contract=Contract.within_error(0.5)
                )
                for _ in range(12)
            ]
            assert lone_handle.result().result is not None
            for handle in convoy_handles:
                assert handle.result().result is not None
            stats = server.admission.stats
            assert stats.admitted == 13
            assert stats.shed == 0
            assert stats.inflight == 0 and stats.queued == 0

    def test_summary_includes_admission_and_failure_lines(self):
        with SciBorqServer(make_engine(), admission=AdmissionController()) as server:
            session = server.open_session("s")
            session.execute(cone(150.0, 5.0), Contract.within_error(0.1))
            text = server.report().render()
            assert "admission:" in text
            assert "failed" in text


# ----------------------------------------------------------------------
# failure accounting (satellite: no silently swallowed exceptions)
# ----------------------------------------------------------------------
class TestFailureAccounting:
    def test_strict_miss_on_submit_is_observable_server_side(self):
        """The regression the ISSUE names: a background strict miss
        must be countable without anyone calling ``result()``."""
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
                    session.contract(max_relative_error=1e-12, time_budget=600),
                )
            assert server.queries_failed == 1
            assert session.report().failures == 1

    def test_admission_counts_failed_releases(self):
        ctrl = AdmissionController(max_inflight=1, degrade_threshold=None)
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
            session = server.open_session(
                "strict",
                contract=Contract(
                    max_relative_error=1e-12, time_budget=600, strict=True
                ),
            )
            handle = session.submit(cone(150.0, 5.0))
            assert handle._done.wait(10.0)
            deadline = time.monotonic() + 5.0
            while (
                server.admission.stats.failed == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.admission.stats.failed == 1

    def test_execute_exact_is_admitted_and_shed_like_execute(self):
        """An exact query through ``server.execute`` takes a ticket like
        any other (the exact entry once took none)."""
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=0, degrade_threshold=None
        )
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
            session = server.open_session("exact")
            holder, _ = ctrl.admit(
                session, cone(150.0, 5.0), Contract.exact(), kind="blocking"
            )
            assert ctrl.wait(holder, timeout=5.0)  # the one slot is taken
            for contract in (None, Contract.exact()):
                with pytest.raises(OverloadedError) as shed:
                    server.execute(session, cone(170.0, 3.0), contract)
                assert shed.value.rejection.reason == "queue_full"
            assert len(session.query_log) == 0  # shed before anything logs
            ctrl.release(holder)
            exact = server.execute(session, cone(170.0, 3.0), Contract.exact())
            assert exact.result.estimates["count(*)"].value >= 0
            assert ctrl.stats.completed == 2  # the holder and the exact query
            assert [o.result.exact for o in session.history] == [True]

    def test_blocking_execute_queued_at_shutdown_is_shed_structurally(self):
        """The evicted ticket used to be released a second time, turning
        the structured rejection into a bare ``ValueError``."""
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=4, degrade_threshold=None
        )
        server = SciBorqServer(make_engine(), max_workers=1, admission=ctrl)
        session = server.open_session("late")
        holder, _ = ctrl.admit(
            session, cone(150.0, 5.0), Contract(), kind="blocking"
        )
        assert ctrl.wait(holder, timeout=5.0)  # the one slot is taken
        caught = []

        def ask():
            try:
                server.execute(session, cone(170.0, 3.0))
            except BaseException as exc:  # noqa: BLE001 - asserted below
                caught.append(exc)

        thread = threading.Thread(target=ask)
        thread.start()
        deadline = time.monotonic() + 5.0
        while ctrl.stats.queued == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        server.shutdown(wait=False)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(caught) == 1 and isinstance(caught[0], OverloadedError)
        assert caught[0].rejection.reason == "shutdown"

    def test_execute_exact_failures_are_counted(self):
        """A failing exact query used to be invisible in both counters."""
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
            assert session.history == []


# ----------------------------------------------------------------------
# fault injection (satellite: threads die, cancels race, queues fill)
# ----------------------------------------------------------------------
class TestFaultInjection:
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

    def test_worker_death_releases_the_admission_slot(self, monkeypatch):
        def dying_drain(self):
            raise RuntimeError("worker died mid-drain")

        ctrl = AdmissionController(max_inflight=1, degrade_threshold=None)
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
            session = server.open_session("doomed")
            monkeypatch.setattr(QueryHandle, "drain", dying_drain)
            handle = session.submit(cone(150.0, 5.0))
            with pytest.raises(RuntimeError):
                handle.result(timeout=10.0)
            monkeypatch.undo()
            # the slot came back: a fresh query is admitted and runs
            ok = session.submit(cone(150.0, 5.0), Contract.within_error(0.1))
            assert ok.result(timeout=10.0).result is not None
            assert server.admission.stats.inflight == 0

    def test_cancel_racing_admission_still_settles(self):
        """Cancelling a handle that is still waiting in the admission
        queue settles it with a best-so-far answer, not a hang."""
        ctrl = AdmissionController(
            max_inflight=1, queue_depth=8, degrade_threshold=None
        )
        with SciBorqServer(
            make_engine(), max_workers=1, admission=ctrl
        ) as server:
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

    def test_shutdown_timeout_fails_a_wedged_drain(self):
        """satellite: ``shutdown(timeout=)`` — a drain that never
        finishes cannot hang shutdown; its handle is settled and the
        report says so."""
        release = threading.Event()
        real_drain = QueryHandle.drain

        def wedged_drain(self):
            release.wait(30.0)  # ignores cancel; simulates a wedge

        QueryHandle.drain = wedged_drain
        try:
            server = SciBorqServer(make_engine(), max_workers=1)
            session = server.open_session("wedged")
            handle = session.submit(cone(150.0, 5.0))
            started = time.monotonic()
            report = server.shutdown(wait=True, timeout=0.3)
            assert time.monotonic() - started < 10.0
            assert isinstance(report, ShutdownReport)
            assert report.cancelled == 1
            with pytest.raises(SessionError):
                handle.result(timeout=1.0)
        finally:
            QueryHandle.drain = real_drain
            release.set()

    def test_shutdown_evicts_queued_with_structured_rejection(self):
        release = threading.Event()
        real_drain = QueryHandle.drain

        def wedged_drain(self):
            release.wait(30.0)

        QueryHandle.drain = wedged_drain
        try:
            ctrl = AdmissionController(
                max_inflight=1, queue_depth=8, degrade_threshold=None
            )
            server = SciBorqServer(make_engine(), max_workers=2, admission=ctrl)
            session = server.open_session("queued")
            wedged = session.submit(cone(150.0, 5.0))
            backlog = [session.submit(cone(150.0, 5.0)) for _ in range(3)]
            report = server.shutdown(wait=True, timeout=0.3)
            assert report.evicted >= 1
            evicted_errors = 0
            for handle in backlog:
                try:
                    handle.result(timeout=1.0)
                except OverloadedError as exc:
                    assert exc.rejection.reason == "shutdown"
                    evicted_errors += 1
                except SessionError:
                    pass  # granted before close, then force-cancelled
            assert evicted_errors == report.evicted
            with pytest.raises((SessionError, OverloadedError)):
                wedged.result(timeout=1.0)
        finally:
            QueryHandle.drain = real_drain
            release.set()

    def test_shutdown_without_timeout_reports_and_is_idempotent(self):
        server = SciBorqServer(make_engine())
        session = server.open_session("s")
        handle = session.submit(cone(150.0, 5.0), Contract.within_error(0.1))
        report = server.shutdown(wait=True)
        assert isinstance(report, ShutdownReport)
        handle.result(timeout=1.0)  # drained before the pool stopped
        again = server.shutdown()
        assert again == ShutdownReport()
