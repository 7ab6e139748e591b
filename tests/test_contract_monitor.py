"""Tests for runtime contract monitoring and tiered quality gates.

Covers the monitor end to end: tier presets and their survival
through modifiers and session overrides, the pure-fold aggregation
property (one-shot equals incremental, fleet compliance equals
per-query ground truth — as a hypothesis property over synthetic
verdict streams), byte-identity of monitored vs monitor-disabled
execution, gate floor boundary cases, the agreement of session,
server and tier tallies under the pool, and the typed ``report()``
objects and their rendered text.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Contract, SciBorqServer
from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.bench.gates import GateSpec, MetricGate, evaluate_floors
from repro.core.engine import SciBorq
from repro.core.handle import QueryHandle
from repro.core.monitor import (
    UNTIERED,
    VERDICT_STATUSES,
    VIOLATION_RETENTION,
    ContractMonitor,
    ContractVerdict,
)
from repro.errors import BudgetExceededError, QueryError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog


def cone_count(ra=150.0, dec=10.0, radius=5.0) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, dec, radius),
        aggregates=[AggregateSpec("count")],
    )


def tiny_engine(seed: int = 7100, n: int = 8_000) -> SciBorq:
    """A small deterministic engine; equal seeds -> identical state."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=seed,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(2_000, 200)
    )
    build_skyserver(
        n, generator=SkyGenerator(rng=seed + 1), loader=engine.loader
    )
    return engine


def make_verdict(
    status: str,
    tier=None,
    session_id=None,
    achieved_error=None,
    run_seconds=None,
    spent=1.0,
) -> ContractVerdict:
    return ContractVerdict(
        status=status,
        table="PhotoObjAll",
        tier=tier,
        session_id=session_id,
        promised_error=0.05,
        achieved_error=achieved_error,
        promised_budget=None,
        spent=spent,
        queue_seconds=None,
        run_seconds=run_seconds,
        wall_seconds=run_seconds,
    )


# ======================================================================
# Tier presets
# ======================================================================
class TestTierPresets:
    def test_preset_fields(self):
        assert Contract.bronze() == Contract(
            max_relative_error=0.10, tier="bronze"
        )
        assert Contract.silver() == Contract(
            max_relative_error=0.05, tier="silver"
        )
        assert Contract.gold() == Contract(
            max_relative_error=0.01, confidence=0.99, tier="gold"
        )

    def test_preset_resolution(self):
        assert Contract.preset("gold") == Contract.gold()
        assert Contract.preset(" Silver ") == Contract.silver()
        with pytest.raises(QueryError, match="unknown contract tier"):
            Contract.preset("platinum")

    def test_describe_names_the_tier(self):
        assert Contract.gold().describe() == (
            "Contract(gold: error<=0.01, conf=0.99)"
        )
        # untiered contracts render exactly as before
        assert Contract.within_error(0.05).describe() == (
            "Contract(error<=0.05)"
        )

    def test_modifiers_keep_tier_combination_drops_it(self):
        assert Contract.gold().strictly().tier == "gold"
        combined = Contract.gold() & Contract.within_budget(1_000)
        assert combined.tier is None
        assert combined.max_relative_error == 0.01


# ======================================================================
# Aggregation exactness (the pure-fold property)
# ======================================================================
verdict_strategy = st.builds(
    make_verdict,
    status=st.sampled_from(VERDICT_STATUSES),
    tier=st.sampled_from([None, "bronze", "silver", "gold"]),
    session_id=st.sampled_from([None, 0, 1, 2]),
    achieved_error=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=2.0)
    ),
    run_seconds=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=30.0)
    ),
    spent=st.floats(min_value=0.0, max_value=1e6),
)


class TestAggregationExactness:
    @settings(max_examples=60, deadline=None)
    @given(
        verdicts=st.lists(verdict_strategy, max_size=60),
        split=st.integers(min_value=0, max_value=60),
    )
    def test_one_shot_equals_incremental(self, verdicts, split):
        """Every aggregate is an additive fold: feeding the same
        verdicts in any grouping (with intermediate reads) produces
        the identical report."""
        one_shot = ContractMonitor()
        for verdict in verdicts:
            one_shot.record(verdict)
        incremental = ContractMonitor()
        for verdict in verdicts[: min(split, len(verdicts))]:
            incremental.record(verdict)
        incremental.report()  # a mid-stream read must not perturb
        for verdict in verdicts[min(split, len(verdicts)):]:
            incremental.record(verdict)
        assert one_shot.report() == incremental.report()

    @settings(max_examples=60, deadline=None)
    @given(verdicts=st.lists(verdict_strategy, max_size=60))
    def test_fleet_compliance_is_per_query_ground_truth(self, verdicts):
        monitor = ContractMonitor()
        for verdict in verdicts:
            monitor.record(verdict)
        report = monitor.report()
        met = sum(1 for v in verdicts if v.status == "met")
        assert report.observed == len(verdicts)
        assert report.met == met
        expected = met / len(verdicts) if verdicts else 1.0
        assert report.compliance == expected
        # per-tier buckets partition the stream exactly
        for tier, bucket in report.by_tier.items():
            members = [
                v for v in verdicts if (v.tier or UNTIERED) == tier
            ]
            assert bucket.total == len(members)
            assert bucket.met == sum(
                1 for v in members if v.status == "met"
            )
        assert sum(b.total for b in report.by_tier.values()) == len(verdicts)

    def test_unknown_status_rejected(self):
        from dataclasses import replace

        # a verdict is met or missed: no other status exists
        for status in ("mystery", "degraded", "rejected"):
            bad = replace(make_verdict("met"), status=status)
            with pytest.raises(ValueError, match="unknown verdict status"):
                ContractMonitor().record(bad)

    def test_violation_log_is_bounded(self):
        monitor = ContractMonitor()
        extra = 7
        for index in range(VIOLATION_RETENTION + extra):
            monitor.record(make_verdict("missed", session_id=index))
        report = monitor.report()
        assert len(report.violations) == VIOLATION_RETENTION
        assert [v.session_id for v in report.violations] == list(
            range(extra, VIOLATION_RETENTION + extra)
        )
        # the tally is never truncated
        assert report.missed == VIOLATION_RETENTION + extra


# ======================================================================
# Byte-identity: monitoring never intrudes
# ======================================================================
class TestByteIdentity:
    def trace(self, outcome):
        estimates = {
            name: (est.value, est.se)
            for name, est in (outcome.result.estimates or {}).items()
        }
        attempts = tuple(
            (a.source, a.rows, a.cost, a.relative_error, a.satisfied)
            for a in outcome.attempts
        )
        return (
            outcome.total_cost,
            outcome.achieved_error,
            estimates,
            attempts,
        )

    def test_monitored_run_identical_to_disabled(self):
        queries = [cone_count(150.0 + 10 * i) for i in range(4)]
        contracts = [
            Contract.gold(),
            Contract.silver(),
            Contract.within_budget(1.0),  # a genuine miss
            Contract.bronze(),
        ]
        runs = {}
        for arm, monitor in (("off", False), ("on", True)):
            engine = tiny_engine(seed=7300)
            with SciBorqServer(
                engine, max_workers=1, monitor=monitor
            ) as server:
                session = server.open_session("twin")
                runs[arm] = [
                    self.trace(session.execute(q, c))
                    for q, c in zip(queries, contracts)
                ]
                if monitor:
                    assert server.monitor is not None
                    assert server.monitor.observed == len(queries)
                else:
                    assert server.monitor is None
                    assert server.report().sla is None
            # shutdown leaves the engine monitor-free
            assert engine.monitor is None
        assert runs["on"] == runs["off"]


# ======================================================================
# Quality gates
# ======================================================================
class TestQualityGates:
    def seeded(self, tier: str, met: int, missed: int) -> ContractMonitor:
        monitor = ContractMonitor()
        for _ in range(met):
            monitor.record(make_verdict("met", tier=tier))
        for _ in range(missed):
            monitor.record(make_verdict("missed", tier=tier))
        return monitor

    def test_floor_boundary_pass_and_fail(self):
        # exactly at the floor passes (>=), one miss more fails
        at_floor = self.seeded("gold", met=99, missed=1)
        assert all(
            r.passed
            for r in evaluate_floors({"gold": 0.99}, at_floor.report().by_tier)
        )
        below = self.seeded("gold", met=98, missed=2)
        results = evaluate_floors({"gold": 0.99}, below.report().by_tier)
        failures = [r for r in results if not r.passed]
        assert failures
        assert failures[0].gate == "tier:gold"
        assert failures[0].value == pytest.approx(0.98)

    def test_unobserved_tier_passes_vacuously(self):
        monitor = self.seeded("silver", met=5, missed=0)
        results = evaluate_floors(
            {"gold": 0.99, "silver": 0.95}, monitor.report().by_tier
        )
        assert all(r.passed for r in results)
        gold = next(r for r in results if r.gate == "tier:gold")
        assert gold.value is None and "no gold queries" in gold.detail

    def test_spec_coercion_shapes(self):
        full = GateSpec.coerce(
            {
                "floors": {"silver": 0.95},
                "metrics": [
                    {
                        "artifact": "contract_monitor",
                        "metric": "overhead_ratio",
                        "max": 0.02,
                        "required": True,
                    }
                ],
            }
        )
        assert full.metrics == (
            MetricGate(
                artifact="contract_monitor",
                metric="overhead_ratio",
                max_value=0.02,
                required=True,
            ),
        )
        with pytest.raises(TypeError, match="gate spec"):
            GateSpec.coerce("gold>=0.99")
        # a bare floors mapping is not a spec: it would gate nothing
        with pytest.raises(ValueError, match="gate spec keys"):
            GateSpec.coerce({"gold": 0.99})

    def test_artifact_evaluator_matches_live(self, tmp_path):
        import json

        from repro.bench.gates import evaluate_artifacts

        monitor = self.seeded("gold", met=98, missed=2)
        live = evaluate_floors({"gold": 0.99}, monitor.report().by_tier)
        bucket = monitor.report().by_tier["gold"]
        (tmp_path / "BENCH_contract_monitor.json").write_text(
            json.dumps(
                {
                    "benchmark": "contract_monitor",
                    "metrics": {
                        "overhead_ratio": 0.004,
                        "tiers": {
                            "gold": {
                                "observed": bucket.total,
                                "met": bucket.met,
                            }
                        },
                    },
                }
            )
        )
        offline = evaluate_artifacts(
            {
                "floors": {"gold": 0.99},
                "metrics": [
                    {
                        "artifact": "contract_monitor",
                        "metric": "overhead_ratio",
                        "max": 0.02,
                        "required": True,
                    }
                ],
            },
            str(tmp_path),
        )
        # the floor verdicts agree gate for gate
        assert [r.passed for r in offline.results[:1]] == [
            r.passed for r in live
        ]
        assert not offline.passed  # the floor fails in both
        metric = offline.results[-1]
        assert metric.passed and metric.value == pytest.approx(0.004)

    def test_required_artifact_missing_fails(self, tmp_path):
        from repro.bench.gates import DEFAULT_SPEC, evaluate_artifacts

        report = evaluate_artifacts(DEFAULT_SPEC, str(tmp_path))
        assert not report.passed
        assert any("missing" in r.detail for r in report.failures)


# ======================================================================
# One tally per fact: the tallies agree under the pool
# ======================================================================
class TestTallyAgreement:
    def test_tallies_agree_under_the_pool(self):
        """Session reports, server counters and the monitor's tier
        buckets each count one fact; over a mixed submit/execute burst
        on two workers — with genuine misses and strict failures —
        every one of them equals what the outcomes themselves say."""
        engine = tiny_engine(seed=7700)
        starved = Contract.within_budget(1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the counters' updates
        try:
            self.run_burst(engine, starved)
        finally:
            sys.setswitchinterval(interval)

    def run_burst(self, engine, starved):
        server = SciBorqServer(engine, max_workers=2)
        sessions = [
            server.open_session("bronze-user", contract="bronze"),
            server.open_session("silver-user", contract="silver"),
            server.open_session("untiered-user"),
            server.open_session("strict-user"),
        ]
        pending = {session.session_id: [] for session in sessions}
        submitted = 0
        for index in range(12):
            for session in sessions:
                if session.name == "untiered-user":
                    contract = starved
                elif session.name == "strict-user":
                    contract = starved.strictly() if index % 3 == 0 else starved
                else:
                    contract = None
                query = cone_count(150.0 + 7.0 * (index % 6))
                submitted += 1
                if index % 2:
                    pending[session.session_id].append(
                        session.submit(query, contract)
                    )
                    continue
                try:
                    outcome = session.execute(query, contract)
                except BudgetExceededError as exc:
                    pending[session.session_id].append(exc)
                else:
                    pending[session.session_id].append(outcome)
        outcomes = {session.session_id: [] for session in sessions}
        failures = {session.session_id: 0 for session in sessions}
        for session_id, settled in pending.items():
            for item in settled:
                if isinstance(item, QueryHandle):
                    try:
                        item = item.result(timeout=60)
                    except BudgetExceededError as exc:
                        item = exc
                if isinstance(item, BaseException):
                    failures[session_id] += 1
                else:
                    outcomes[session_id].append(item)
        sla = server.monitor.report()
        server.shutdown()  # waits for every worker's epilogue
        assert sum(failures.values()) > 0
        assert any(
            not o.met_budget for settled in outcomes.values() for o in settled
        )

        stats = [session.report() for session in sessions]
        assert sum(s.queries for s in stats) == submitted
        assert submitted == server.queries_served + server.queries_failed
        assert server.queries_failed == sum(failures.values())
        for session, report in zip(sessions, stats):
            own = outcomes[session.session_id]
            assert report.queries == len(own) + failures[session.session_id]
            assert report.failures == failures[session.session_id]
            assert report.quality_misses == sum(not o.met_quality for o in own)
            assert report.budget_misses == sum(not o.met_budget for o in own)

        truth = {}
        for settled in outcomes.values():
            for outcome in settled:
                bucket = truth.setdefault(
                    outcome.contract.tier or UNTIERED, [0, 0]
                )
                bucket[0] += 1
                bucket[1] += outcome.met_quality and outcome.met_budget
        assert {
            tier: [bucket.total, bucket.met]
            for tier, bucket in sla.by_tier.items()
        } == truth
        assert sla.observed == sum(total for total, _ in truth.values())


# ======================================================================
# Typed reports and their rendered text
# ======================================================================
class TestReportRendering:
    def test_server_summary_is_report_render(self):
        engine = tiny_engine(seed=7900, n=4_000)
        with SciBorqServer(engine, max_workers=1) as server:
            session = server.open_session("render", contract="silver")
            session.execute(cone_count())
            report = server.report()
            assert "sla: " in report.render()
            assert report.sla.observed == 1
            assert report.queries_served == 1
            assert report.pool_workers == 1
            assert report.open_sessions == (session.report(),)
            assert "'render'" in report.render()

    def test_engine_summary_is_report_render(self):
        engine = tiny_engine(seed=8100, n=4_000)
        assert "sla: " not in engine.report().render()  # no monitor installed
        with SciBorqServer(engine, max_workers=1) as server:
            server.open_session("e").execute(cone_count())
            assert "sla: " in engine.report().render()
            assert engine.report().sla.observed == 1
        # monitor detached again: the sla line disappears with it
        assert "sla: " not in engine.report().render()

    def test_monitor_off_summary_has_no_sla_line(self):
        engine = tiny_engine(seed=8300, n=4_000)
        with SciBorqServer(engine, max_workers=1, monitor=False) as server:
            assert "sla: " not in server.report().render()
            assert server.report().sla is None

    def test_progress_updates_carry_the_contract(self):
        engine = tiny_engine(seed=8500, n=4_000)
        contract = Contract.gold()
        handle = engine.submit(cone_count(), contract)
        updates = list(handle)
        outcome = handle.result()
        assert updates and all(u.contract == contract for u in updates)
        assert outcome.contract == contract
        assert outcome.describe().startswith("bounded execution [gold]:")

    def test_untiered_outcome_describe_unchanged(self):
        engine = tiny_engine(seed=8700, n=4_000)
        outcome = engine.execute(cone_count(), Contract.within_error(0.1))
        assert outcome.describe().startswith("bounded execution: ")


# ======================================================================
# Server default contract
# ======================================================================
class TestApiMigration:
    def test_server_default_contract_applies(self):
        engine = tiny_engine(seed=9100, n=4_000)
        with SciBorqServer(
            engine, max_workers=1, contract="silver"
        ) as server:
            defaulted = server.open_session("d")
            assert defaulted.defaults == Contract.silver()
            # an explicit session contract always wins
            pinned = server.open_session("p", contract=Contract.gold())
            assert pinned.defaults == Contract.gold()
            adhoc = server.open_session(
                "a", contract=Contract.within_error(0.2)
            )
            assert adhoc.defaults.max_relative_error == 0.2
            assert adhoc.defaults.tier is None

    def test_unknown_server_tier_raises(self):
        engine = tiny_engine(seed=9300, n=4_000)
        with pytest.raises(QueryError, match="unknown contract tier"):
            SciBorqServer(engine, max_workers=1, contract="diamond")
