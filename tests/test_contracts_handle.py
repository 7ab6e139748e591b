"""Tests for the contract-first progressive execution API.

Covers the new surface end to end: ``Contract`` constructors and the
``&`` combinator, ``engine.submit`` handles (iteration, ``result()``,
``cancel()``, callbacks), the exact-contract fast path (including
tables with no hierarchy), the deprecation shims that map the old
four-kwarg sprawl onto contracts, and — as a hypothesis property —
that the streamed ``ProgressUpdate`` sequence is exactly what
``BoundedResult.attempts`` records.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Contract, SciBorqServer
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.bounded import BoundedResult
from repro.core.engine import SciBorq
from repro.core.handle import QueryHandle
from repro.errors import (
    BudgetExceededError,
    QualityBoundError,
    QueryError,
    SessionError,
)
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog


def cone_count(ra=150.0, dec=10.0, radius=5.0) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, dec, radius),
        aggregates=[AggregateSpec("count")],
    )


# ======================================================================
# Contract constructors and combinator
# ======================================================================
class TestContractConstruction:
    def test_within_error(self):
        c = Contract.within_error(0.05)
        assert c.max_relative_error == 0.05
        assert c.time_budget is None
        assert not c.is_exact

    def test_within_budget(self):
        c = Contract.within_budget(10_000)
        assert c.time_budget == 10_000
        assert c.max_relative_error is None

    def test_exact(self):
        c = Contract.exact()
        assert c.is_exact
        assert c.max_relative_error == 0.0

    def test_unconstrained(self):
        c = Contract()
        assert c.max_relative_error is None and c.time_budget is None
        assert not c.is_exact and c.hierarchy is None

    def test_negative_error_bound_rejected(self):
        with pytest.raises(QueryError, match="non-negative"):
            Contract.within_error(-0.1)

    def test_negative_budget_rejected(self):
        with pytest.raises(QueryError, match="non-negative"):
            Contract.within_budget(-1)

    def test_confidence_range_enforced(self):
        with pytest.raises(QueryError, match="confidence"):
            Contract.within_error(0.05, confidence=1.0)
        with pytest.raises(QueryError, match="confidence"):
            Contract.within_error(0.05, confidence=0.0)
        with pytest.raises(QueryError, match="confidence"):
            Contract(confidence=1.5)

    def test_modifiers_return_new_values(self):
        base = Contract.within_error(0.05)
        strict = base.strictly()
        assert strict.strict and not base.strict


class TestContractCombinator:
    def test_hybrid_bound(self):
        c = Contract.within_error(0.05) & Contract.within_budget(10_000)
        assert c.max_relative_error == 0.05
        assert c.time_budget == 10_000

    def test_double_error_bound_rejected(self):
        with pytest.raises(QueryError, match="quality bound"):
            Contract.within_error(0.05) & Contract.within_error(0.1)

    def test_double_budget_rejected(self):
        with pytest.raises(QueryError, match="time budget"):
            Contract.within_budget(1_000) & Contract.within_budget(2_000)

    def test_exact_conflicts_with_error_bound(self):
        with pytest.raises(QueryError, match="quality bound"):
            Contract.exact() & Contract.within_error(0.05)

    def test_exact_combines_with_budget(self):
        c = Contract.exact() & Contract.within_budget(10_000)
        assert c.is_exact and c.time_budget == 10_000

    def test_conflicting_confidences_rejected(self):
        with pytest.raises(QueryError, match="confidence"):
            (
                Contract.within_error(0.05, confidence=0.9)
                & Contract(time_budget=1_000, confidence=0.99)
            )

    def test_one_sided_confidence_wins(self):
        c = Contract.within_error(0.05, confidence=0.9) & Contract.within_budget(1)
        assert c.confidence == 0.9

    def test_strict_is_sticky(self):
        c = Contract.within_error(0.05).strictly() & Contract.within_budget(1)
        assert c.strict

    def test_conflicting_hierarchies_rejected(self):
        with pytest.raises(QueryError, match="hierarch"):
            (
                Contract(max_relative_error=0.05, hierarchy="a")
                & Contract(time_budget=1, hierarchy="b")
            )


# ======================================================================
# handles on the engine (lazy mode)
# ======================================================================
class TestQueryHandle:
    def test_updates_match_attempts_exactly(self, sky_engine):
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.02))
        updates = list(handle)
        outcome = handle.result()
        assert len(updates) == len(outcome.attempts)
        for i, update in enumerate(updates):
            assert update.rung == i
            assert update.attempt is outcome.attempts[i]
            assert update.achieved_error == outcome.attempts[i].relative_error
            assert update.source == outcome.attempts[i].source

    def test_streamed_final_equals_blocking_execute(self, sky_engine):
        contract = Contract.within_error(0.05)
        streamed = sky_engine.submit(cone_count(), contract).result()
        blocking = sky_engine.execute(cone_count(), contract)
        assert isinstance(streamed, BoundedResult)
        assert streamed.total_cost == blocking.total_cost
        assert len(streamed.attempts) == len(blocking.attempts)
        for name, estimate in streamed.result.estimates.items():
            assert estimate.value == blocking.result.estimates[name].value
            assert estimate.se == blocking.result.estimates[name].se

    def test_result_is_idempotent_and_iteration_replays(self, sky_engine):
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.1))
        first = handle.result()
        assert handle.result() is first
        # iterating after completion replays the recorded ladder
        replayed = list(handle)
        assert [u.rung for u in replayed] == list(range(len(first.attempts)))

    def test_updates_stream_estimates_with_intervals(self, sky_engine):
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.05))
        for update in handle:
            if update.result is None:
                continue
            estimate = update.result.estimates["count(*)"]
            low, high = estimate.ci
            assert low <= estimate.value <= high

    def test_lazy_handle_charges_nothing_until_advanced(self, sky_engine):
        before = sky_engine.clock.now
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.0))
        assert sky_engine.clock.now == before  # submission is free
        next(iter(handle))
        assert sky_engine.clock.now > before

    def test_cancel_after_first_update_keeps_rung_one_answer(self, sky_engine):
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.0))
        first = next(iter(handle))
        spent_at_cancel = sky_engine.clock.now
        outcome = handle.cancel()
        # no further rung was scanned: the engine clock did not move
        assert sky_engine.clock.now == spent_at_cancel
        assert len(outcome.attempts) == 1
        assert outcome.total_cost == first.spent
        assert not outcome.met_quality  # bound 0.0 was not met yet
        assert outcome.result is first.result
        assert handle.cancelled and handle.done

    def test_cancel_after_bound_met_keeps_met_quality(self, sky_engine):
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.5))
        list(handle)  # loose bound: first rung satisfies
        outcome = handle.cancel()  # cancel after completion: no-op
        assert outcome.met_quality
        assert outcome is handle.result()

    def test_cancel_before_any_update_still_answers(self, sky_engine):
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.0))
        outcome = handle.cancel()  # owes the first rung's answer
        assert len(outcome.attempts) == 1
        assert outcome.result is not None

    def test_on_progress_replays_and_follows(self, sky_engine):
        handle = sky_engine.submit(cone_count(), Contract.within_error(0.05))
        seen: list[int] = []
        it = iter(handle)
        next(it)  # one rung before registration
        handle.on_progress(lambda u: seen.append(u.rung))
        assert seen == [0]  # history replayed
        handle.result()
        assert seen == list(range(len(handle.result().attempts)))

    def test_strict_miss_raises_from_result(self, sky_engine):
        handle = sky_engine.submit(
            cone_count(),
            (Contract.within_error(0.0001) & Contract.within_budget(2_000)).strictly(),
        )
        with pytest.raises(QualityBoundError):
            handle.result()

    def test_wrong_positional_contract_rejected(self, sky_engine):
        with pytest.raises(QueryError, match="expected a Contract"):
            sky_engine.execute(cone_count(), 0.05)


# ======================================================================
# exact contracts (incl. tables with no hierarchy)
# ======================================================================
class TestExactContract:
    def test_exact_contract_matches_execute_exact(self, sky_engine):
        outcome = sky_engine.execute(cone_count(), Contract.exact())
        raw = sky_engine.execute_exact(cone_count())
        assert outcome.result.exact
        assert outcome.met_quality and outcome.achieved_error == 0.0
        assert len(outcome.attempts) == 1
        assert outcome.result.estimates["count(*)"].value == raw.scalar("count(*)")

    def test_exact_contract_works_without_hierarchy(self, sky_engine):
        # the Field table has no impression hierarchy at all
        query = Query(table="Field", aggregates=[AggregateSpec("count")])
        outcome = sky_engine.execute(query, Contract.exact())
        assert outcome.result.exact
        assert outcome.result.estimates["count(*)"].value == (
            sky_engine.catalog.table("Field").num_rows
        )
        handle = sky_engine.submit(query, Contract.exact())
        assert handle.result().result.estimates["count(*)"].value == (
            outcome.result.estimates["count(*)"].value
        )

    def test_non_exact_contract_without_hierarchy_still_rejected(self, sky_engine):
        query = Query(table="Field", aggregates=[AggregateSpec("count")])
        with pytest.raises(QueryError, match="no hierarchy"):
            sky_engine.execute(query, Contract.within_error(0.1))

    def test_exact_skips_impression_rungs(self, sky_engine):
        outcome = sky_engine.execute(cone_count(), Contract.exact())
        base_rows = sky_engine.catalog.table("PhotoObjAll").num_rows
        assert [a.rows for a in outcome.attempts] == [base_rows]

    def test_exact_strict_budget_raises_when_overrun(self, sky_engine):
        contract = (Contract.exact() & Contract.within_budget(10)).strictly()
        with pytest.raises(BudgetExceededError):
            sky_engine.execute(cone_count(), contract)

    def test_exact_row_query_returns_rows(self, sky_engine):
        query = Query(table="PhotoObjAll", select=("objID", "ra"), limit=10)
        outcome = sky_engine.execute(query, Contract.exact())
        assert outcome.result.rows is not None
        assert outcome.result.rows.num_rows == 10


# ======================================================================
# after the shims: contracts are stated with Contract values only
# (the class keeps its historical name so test ids stay stable)
# ======================================================================
class TestDeprecationShims:
    def test_engine_rejects_contract_plus_legacy(self, sky_engine):
        with pytest.raises(TypeError, match="time_budget"):
            sky_engine.execute(
                cone_count(),
                Contract.within_error(0.05),
                time_budget=1_000,
            )

    def test_session_rejects_contract_plus_legacy(self, fresh_sky_engine):
        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            with pytest.raises(TypeError, match="time_budget"):
                server.open_session(
                    "both",
                    contract=Contract.within_error(0.1),
                    time_budget=1_000,
                )

    def test_session_execute_rejects_contract_plus_overrides(
        self, fresh_sky_engine
    ):
        """Per-field overrides beside ``contract=`` are rejected, not
        silently dropped: a query's demands are one ``Contract``."""
        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            session = server.open_session("mixer")
            with pytest.raises(TypeError, match="strict"):
                session.execute(
                    cone_count(),
                    contract=Contract.within_error(0.05),
                    strict=True,
                )
            with pytest.raises(TypeError, match="time_budget"):
                session.submit(
                    cone_count(),
                    contract=Contract.within_error(0.05),
                    time_budget=1_000,
                )

    def test_exact_contract_rejects_nonzero_error_bound(self):
        with pytest.raises(QueryError, match="exact contract"):
            Contract(max_relative_error=0.1, is_exact=True)

    def test_exact_default_session_error_override_runs_the_ladder(
        self, fresh_sky_engine
    ):
        """Overriding the error bound on an exact-default session must
        drop the exact routing, not silently full-scan."""
        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            session = server.open_session("exact", contract=Contract.exact())
            override = Contract.within_error(0.5)
            outcome = session.execute(cone_count(), override)
            base_rows = fresh_sky_engine.catalog.table("PhotoObjAll").num_rows
            assert outcome.attempts[0].rows < base_rows  # ladder, not scan
            # without an override the exact default still routes exact
            exact = session.execute(cone_count())
            assert exact.result.exact
            assert exact.attempts[0].rows == base_rows
            # a budgeted exact contract keeps exact routing
            budgeted = session.defaults & Contract.within_budget(10.0)
            assert budgeted.is_exact and budgeted.time_budget == 10.0

    def test_session_contract_first_defaults(self, fresh_sky_engine):
        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            session = server.open_session(
                "new", contract=Contract.within_error(0.1) & Contract.within_budget(50_000)
            )
            assert session.defaults.max_relative_error == 0.1
            assert session.defaults.time_budget == 50_000


# ======================================================================
# server-driven handles
# ======================================================================
class TestServerSubmit:
    def test_driven_handle_streams_and_matches_execute(
        self, fresh_sky_engine, monkeypatch
    ):
        # the worker starts its drain only once the callback is attached:
        # a rung published earlier would be replayed on this thread
        attached = threading.Event()
        drain = QueryHandle.drain

        def drain_after_attach(handle):
            assert attached.wait(timeout=60)
            drain(handle)

        monkeypatch.setattr(QueryHandle, "drain", drain_after_attach)
        with SciBorqServer(fresh_sky_engine, max_workers=2) as server:
            session = server.open_session(
                "alice", contract=Contract.within_error(0.05)
            )
            worker_names: list[str] = []
            handle = session.submit(cone_count()).on_progress(
                lambda u: worker_names.append(threading.current_thread().name)
            )
            attached.set()
            outcome = handle.result(timeout=60)
            assert outcome.met_quality
            assert len(handle.updates) == len(outcome.attempts)
            # callbacks were delivered off the server's worker threads
            assert worker_names and all(
                name.startswith("sciborq") for name in worker_names
            )
            # the session recorded the progressive outcome like any other
            assert session.report().queries == 1
            assert session.report().quality_misses == (not outcome.met_quality)
            assert server.queries_served == 1

    def test_driven_iteration_follows_worker(self, fresh_sky_engine):
        with SciBorqServer(fresh_sky_engine, max_workers=2) as server:
            session = server.open_session("bob")
            handle = session.submit(cone_count(), Contract.within_error(0.1))
            errors = [u.achieved_error for u in handle]
            outcome = handle.result(timeout=60)
            assert errors == [a.relative_error for a in outcome.attempts]

    def test_submits_interleave_sessions(self, fresh_sky_engine):
        with SciBorqServer(fresh_sky_engine, max_workers=4) as server:
            alice = server.open_session("alice", contract=Contract.within_error(0.2))
            bob = server.open_session("bob", contract=Contract.within_error(0.2))
            handles = [
                server.submit(alice, cone_count(150.0)),
                server.submit(bob, cone_count(170.0, radius=4.0)),
            ]
            outcomes = [handle.result(timeout=60) for handle in handles]
            assert all(outcome.met_quality for outcome in outcomes)
            # each session's clock saw exactly its own query's spending
            assert alice.clock.now == outcomes[0].total_cost
            assert bob.clock.now == outcomes[1].total_cost

    def test_driven_cancel_keeps_best_so_far(self, fresh_sky_engine):
        with SciBorqServer(fresh_sky_engine, max_workers=2) as server:
            session = server.open_session("carol")
            handle = session.submit(cone_count(), Contract.within_error(0.0))
            outcome = handle.cancel()  # worker stops between rungs
            assert outcome.result is not None
            assert 1 <= len(outcome.attempts) <= 3
            assert handle.cancelled and handle.done

    def test_strict_miss_stays_on_the_handle(self, fresh_sky_engine):
        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            session = server.open_session(
                "strict",
                contract=(
                    Contract.within_error(1e-12) & Contract.within_budget(600)
                ).strictly(),
            )
            handle = session.submit(cone_count())
            with pytest.raises(QualityBoundError):
                handle.result(timeout=60)
            # the pool survives: the next query runs normally
            ok = session.submit(cone_count(), Contract.within_error(0.9))
            assert ok.result(timeout=60).met_quality

    def test_closed_session_rejects_submit(self, fresh_sky_engine):
        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            session = server.open_session()
            session.close()
            with pytest.raises(SessionError, match="closed"):
                session.submit(cone_count())

    def test_cancel_from_progress_callback_does_not_deadlock(
        self, fresh_sky_engine
    ):
        """A callback cancelling the handle it observes must settle on
        the worker thread instead of blocking it forever."""
        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            session = server.open_session("ui")
            handle = session.submit(cone_count(), Contract.within_error(0.0))
            handle.on_progress(lambda update: handle.cancel())
            outcome = handle.result(timeout=30)
            assert handle.cancelled and handle.done
            assert outcome.result is not None
            # the worker (and its read lock) is free again
            ok = session.submit(cone_count(), Contract.within_error(0.9))
            assert ok.result(timeout=30).met_quality

    def test_broken_callback_fails_the_handle_loudly(self, fresh_sky_engine):
        """A raising observer must surface from result(), not leave a
        driven handle unsettled (or a lazy one asserting)."""

        def boom(update):
            raise RuntimeError("observer broke")

        with SciBorqServer(fresh_sky_engine, max_workers=1) as server:
            session = server.open_session("broken")
            handle = session.submit(cone_count())
            with pytest.raises(RuntimeError, match="observer broke"):
                # the raise surfaces either at registration (the worker
                # already published and the replay hits it) or from
                # result(); the handle settles with the error either way
                handle.on_progress(boom)
                handle.result(timeout=30)
            # the pool survives the broken observer
            ok = session.submit(cone_count(), Contract.within_error(0.9))
            assert ok.result(timeout=30).met_quality
        # lazy mode: same error, same loudness
        lazy = fresh_sky_engine.submit(cone_count()).on_progress(boom)
        with pytest.raises(RuntimeError, match="observer broke"):
            lazy.result()


# ======================================================================
# hypothesis: the stream is the ladder
# ======================================================================
_PROPERTY_ENGINE: SciBorq | None = None


def _property_engine() -> SciBorq:
    global _PROPERTY_ENGINE
    if _PROPERTY_ENGINE is None:
        engine = SciBorq(
            create_skyserver_catalog(),
            interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
            rng=601,
        )
        engine.create_hierarchy(
            "PhotoObjAll", policy="uniform", layer_sizes=(4_000, 400)
        )
        build_skyserver(
            20_000, generator=SkyGenerator(rng=602), loader=engine.loader
        )
        _PROPERTY_ENGINE = engine
    return _PROPERTY_ENGINE


class TestStreamedLadderProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ra=st.floats(min_value=130.0, max_value=230.0),
        radius=st.floats(min_value=1.0, max_value=10.0),
        target=st.sampled_from([None, 0.5, 0.1, 0.05, 0.01, 0.0]),
        budget=st.sampled_from([None, 500.0, 5_000.0, 50_000.0]),
    )
    def test_streamed_errors_are_the_recorded_attempts(
        self, ra, radius, target, budget
    ):
        """What the handle streams is what the outcome records."""
        engine = _property_engine()
        contract = Contract(max_relative_error=target, time_budget=budget)
        handle = engine.submit(cone_count(ra, 10.0, radius), contract)
        updates = list(handle)
        outcome = handle.result()
        assert [u.achieved_error for u in updates] == [
            a.relative_error for a in outcome.attempts
        ]
        assert [u.attempt for u in updates] == outcome.attempts
        # spend is monotone along the ladder and ends at total_cost
        spends = [u.spent for u in updates]
        assert spends == sorted(spends)
        assert spends[-1] == outcome.total_cost
