"""Tests for the shared-scan batch scheduler.

The headline guarantee: batching concurrent rung scans into one shared
pass changes *nothing* per query — results, tuples charged, and
``ProgressUpdate`` streams are byte-identical to solo execution.  The
tests pin that identity over randomized concurrent workloads, then the
machinery underneath (the flat-combining ``Combiner``, the
multi-consumer ``select_shared`` pass), the batching-window edge cases
(single query, disjoint tables, cancel mid-batch, per-session
opt-out), and the per-job exception annotation on ``execute_jobs``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.columnstore import AggregateSpec, Query, operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.expressions import And, Comparison, RadialPredicate
from repro.columnstore.table import Table
from repro.core.engine import SciBorq
from repro.core.scheduler import SharedScanScheduler
from repro.core.server import SciBorqServer
from repro.errors import UnknownColumnError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.util.clock import ExecutionContext
from repro.util.concurrency import Combiner
from repro.core.contracts import Contract


def make_engine(seed: int = 701) -> SciBorq:
    """A deterministic engine; equal seeds produce identical state."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=seed,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(6_000, 1_200)
    )
    build_skyserver(
        24_000, generator=SkyGenerator(rng=seed + 1), loader=engine.loader
    )
    return engine


def cone(ra: float, dec: float, radius: float) -> Query:
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", ra, dec, radius),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
    )


def random_cones(rng: np.random.Generator, n: int) -> list:
    return [
        cone(
            float(rng.uniform(130.0, 230.0)),
            float(rng.uniform(2.0, 18.0)),
            float(rng.uniform(2.0, 9.0)),
        )
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# the flat-combining primitive
# ----------------------------------------------------------------------
class TestCombiner:
    def test_lone_caller_executes_immediately(self):
        combiner = Combiner()
        calls = []

        def execute(items):
            calls.append(list(items))
            return [item * 10 for item in items]

        assert combiner.run(4, execute) == 40
        assert calls == [[4]]

    def test_window_batches_co_arrivals(self):
        combiner = Combiner(window=2.0)
        calls = []
        results = {}

        def execute(items):
            calls.append(list(items))
            return [item + 100 for item in items]

        def submit(item):
            results[item] = combiner.run(item, execute)

        first = threading.Thread(target=submit, args=(1,))
        second = threading.Thread(target=submit, args=(2,))
        first.start()
        time.sleep(0.1)  # let the first become the (windowing) leader
        second.start()
        first.join(timeout=10)
        second.join(timeout=10)
        assert results == {1: 101, 2: 102}
        assert len(calls) == 1  # one batch served both
        assert sorted(calls[0]) == [1, 2]

    def test_convoys_form_under_queue_pressure(self):
        combiner = Combiner()  # window=0: nobody ever stalls alone
        release = threading.Event()
        followers_queued = threading.Event()
        calls = []

        def execute(items):
            if items == ["leader"]:
                # hold the first batch open until followers enqueue
                assert followers_queued.wait(timeout=10)
            calls.append(list(items))
            return [f"done-{item}" for item in items]

        outcomes = {}

        def submit(item):
            outcomes[item] = combiner.run(item, execute)

        leader = threading.Thread(target=submit, args=("leader",))
        leader.start()
        followers = [
            threading.Thread(target=submit, args=(f"f{i}",)) for i in range(3)
        ]
        for thread in followers:
            thread.start()
        # wait until all three followers are queued behind the leader
        deadline = time.time() + 10
        while len(combiner._pending) < 3 and time.time() < deadline:
            time.sleep(0.005)
        followers_queued.set()
        release.set()
        leader.join(timeout=10)
        for thread in followers:
            thread.join(timeout=10)
        assert outcomes == {
            "leader": "done-leader",
            "f0": "done-f0",
            "f1": "done-f1",
            "f2": "done-f2",
        }
        assert len(calls) == 2  # leader alone, then one convoy of three
        assert sorted(calls[1]) == ["f0", "f1", "f2"]

    def test_batch_error_reaches_every_member(self):
        combiner = Combiner(window=2.0)
        seen = []

        def execute(items):
            raise RuntimeError("shared failure")

        def submit(item):
            try:
                combiner.run(item, execute)
            except RuntimeError as exc:
                seen.append(str(exc))

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(2)]
        threads[0].start()
        time.sleep(0.1)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=10)
        assert seen == ["shared failure", "shared failure"]

    def test_result_count_mismatch_is_an_error(self):
        combiner = Combiner()
        with pytest.raises(RuntimeError, match="returned 0 results"):
            combiner.run(1, lambda items: [])

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Combiner(window=-0.1)


# ----------------------------------------------------------------------
# the multi-consumer scan pass
# ----------------------------------------------------------------------
def blocked_table(rng: np.random.Generator, n: int = 4_000) -> Table:
    """A multi-block table so zone-map pruning actually prunes."""
    values = np.sort(rng.uniform(0.0, 100.0, n))  # sorted → prunable
    noise = rng.normal(0.0, 1.0, n)
    return Table(
        "facts",
        [
            Column("x", "float64", values, block_size=256),
            Column("y", "float64", noise, block_size=256),
        ],
    )


class TestSelectShared:
    def test_identical_to_solo_select_over_random_predicates(self):
        rng = np.random.default_rng(88)
        table = blocked_table(rng)
        predicates = []
        for _ in range(12):
            lo = float(rng.uniform(0.0, 90.0))
            predicates.append(
                And(
                    [
                        Comparison("x", ">=", lo),
                        Comparison("x", "<", lo + float(rng.uniform(1, 20))),
                    ]
                )
            )
        # include duplicates: dedup must not perturb per-consumer output
        predicates.append(predicates[0])
        shared = operators.select_shared(table, predicates)
        for predicate, outcome in zip(predicates, shared):
            solo_indices, solo_stats = operators.select(table, predicate)
            indices, stats = outcome
            assert np.array_equal(indices, solo_indices)
            assert stats == solo_stats
            assert stats.operator == "select"

    def test_bad_predicate_fails_only_its_own_consumer(self):
        rng = np.random.default_rng(89)
        table = blocked_table(rng, n=1_000)
        good = Comparison("x", "<", 50.0)
        bad = Comparison("no_such_column", ">", 0.0)
        outcomes = operators.select_shared(table, [good, bad, good])
        assert isinstance(outcomes[1], UnknownColumnError)
        for position in (0, 2):
            indices, stats = outcomes[position]
            solo_indices, solo_stats = operators.select(table, good)
            assert np.array_equal(indices, solo_indices)
            assert stats == solo_stats

    def test_empty_table(self):
        table = Table("empty", [Column("x", "float64", [])])
        outcomes = operators.select_shared(
            table, [Comparison("x", ">", 1.0)]
        )
        indices, stats = outcomes[0]
        assert indices.shape == (0,)
        assert stats.cost == 0


# ----------------------------------------------------------------------
# scheduler identity: batched == solo, per query
# ----------------------------------------------------------------------
def streams_of(handles):
    """Comparable per-query (updates, outcome) summaries."""
    summaries = []
    for handle in handles:
        outcome = handle.result()
        updates = [
            (
                update.rung,
                update.source,
                update.achieved_error,
                update.best_error,
                update.satisfied,
                update.spent,
                update.remaining,
            )
            for update in handle.updates
        ]
        attempts = [
            (a.source, a.rows, a.cost, a.relative_error, a.satisfied, a.delta_rows)
            for a in outcome.attempts
        ]
        estimates = {}
        if outcome.result.estimates:
            estimates = {
                name: (est.value, est.se)
                for name, est in outcome.result.estimates.items()
            }
        summaries.append(
            (updates, attempts, estimates, outcome.total_cost, outcome.met_quality)
        )
    return summaries


class TestSchedulerIdentity:
    def test_randomized_concurrent_workload_matches_solo(self):
        """Batched vs solo identity over a randomized workload.

        Two identically-seeded engines; one server shares scans, the
        other opted out wholesale.  Every query's progress stream,
        attempts, estimates, and total charge must match exactly.
        """
        rng = np.random.default_rng(2026)
        queries = random_cones(rng, 12)
        contract_errors = rng.uniform(0.01, 0.3, len(queries))

        def run(shared: bool):
            engine = make_engine()
            with SciBorqServer(
                engine, max_workers=4, shared_scans=shared
            ) as server:
                sessions = [server.open_session(f"u{i}") for i in range(4)]
                handles = []
                for position, query in enumerate(queries):
                    session = sessions[position % len(sessions)]
                    handles.append(
                        session.submit(
                            query,
                            session.contract(
                                max_relative_error=float(
                                    contract_errors[position]
                                )
                            ),
                        )
                    )
                summaries = streams_of(handles)
                stats = server.scheduler.stats if server.scheduler else None
            return summaries, stats

        batched, shared_stats = run(shared=True)
        solo, solo_stats = run(shared=False)
        assert batched == solo
        assert shared_stats is not None and shared_stats.scans > 0
        assert solo_stats is None

    def test_execute_many_matches_serial_engine(self):
        rng = np.random.default_rng(5150)
        queries = random_cones(rng, 8)
        serial_engine = make_engine()
        serial = [
            serial_engine.execute(query, Contract.within_error(0.1))
            for query in queries
        ]
        with SciBorqServer(make_engine(), max_workers=4) as server:
            session = server.open_session(
                "bulk", contract=Contract.within_error(0.1)
            )
            batched = session.execute_many(queries)
        for mine, theirs in zip(batched, serial):
            assert mine.total_cost == theirs.total_cost
            assert [a.cost for a in mine.attempts] == [
                a.cost for a in theirs.attempts
            ]
            for name, estimate in mine.result.estimates.items():
                assert estimate.value == theirs.result.estimates[name].value
                assert estimate.se == theirs.result.estimates[name].se

    def test_forced_convoy_dedups_equal_predicates(self):
        """Same query from many sessions: one evaluation, full charges."""
        engine = make_engine()
        with SciBorqServer(
            engine, max_workers=8, batch_window=0.25
        ) as server:
            sessions = [server.open_session(f"u{i}") for i in range(6)]
            query = cone(180.0, 10.0, 6.0)
            handles = [
                session.submit(
                    query, session.contract(max_relative_error=0.05)
                )
                for session in sessions
            ]
            outcomes = [handle.result() for handle in handles]
            stats = server.scheduler.stats
        # identical queries must produce identical outcomes and charges
        first = outcomes[0]
        for outcome in outcomes[1:]:
            assert outcome.total_cost == first.total_cost
            for name, estimate in outcome.result.estimates.items():
                assert estimate.value == first.result.estimates[name].value
        # and some of those scans must have been served by a sibling's
        # evaluation (six climbers of the same ladder, wide window)
        assert stats.deduped_scans > 0
        assert stats.tuples_saved > 0
        assert stats.scans > stats.batches  # at least one real convoy


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
class TestSchedulerEdges:
    def test_single_query_no_co_runners(self):
        """A lone query batches with nobody and still answers exactly."""
        serial_engine = make_engine()
        query = cone(150.0, 8.0, 5.0)
        expected = serial_engine.execute(query, Contract.within_error(0.1))
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("lonely")
            outcome = session.execute(query, Contract.within_error(0.1))
            stats = server.scheduler.stats
        assert outcome.total_cost == expected.total_cost
        assert stats.scans == stats.batches  # every convoy had size one
        assert stats.deduped_scans == 0

    def test_disjoint_tables_never_share_a_convoy(self):
        rng = np.random.default_rng(17)
        catalog = Catalog()
        for table_name in ("alpha", "beta"):
            n = 6_000
            catalog.add_table(
                Table(
                    table_name,
                    [
                        Column("ra", "float64", rng.uniform(120, 240, n)),
                        Column("dec", "float64", rng.uniform(0, 20, n)),
                        Column("flux", "float64", rng.lognormal(1.0, 0.4, n)),
                    ],
                )
            )
        engine = SciBorq(
            catalog,
            interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
            rng=23,
        )
        engine.create_hierarchy("alpha", policy="uniform", layer_sizes=(1_500,))
        engine.create_hierarchy("beta", policy="uniform", layer_sizes=(1_500,))

        def probe(table_name: str) -> Query:
            return Query(
                table=table_name,
                predicate=RadialPredicate("ra", "dec", 180.0, 10.0, 8.0),
                aggregates=[AggregateSpec("avg", "flux")],
            )

        with SciBorqServer(engine, max_workers=4, batch_window=0.2) as server:
            one = server.open_session("one")
            two = server.open_session("two")
            outcomes = server.execute_many(
                [(one, probe("alpha")), (two, probe("beta"))]
            )
            stats = server.scheduler.stats
        assert all(outcome.result is not None for outcome in outcomes)
        # equal fingerprints, but different tables → no dedup possible
        assert stats.deduped_scans == 0

    def test_cancel_mid_batch_leaves_siblings_intact(self):
        """Cancelling one enrolled query never perturbs its convoy."""
        serial_engine = make_engine()
        query = cone(170.0, 9.0, 5.0)
        expected = serial_engine.execute(query, Contract.within_error(0.0))
        with SciBorqServer(
            make_engine(), max_workers=4, batch_window=0.1
        ) as server:
            sessions = [server.open_session(f"u{i}") for i in range(3)]
            handles = [
                session.submit(
                    query, session.contract(max_relative_error=0.0)
                )
                for session in sessions
            ]
            cancelled = handles[0].cancel()
            survivors = [handle.result() for handle in handles[1:]]
        for outcome in survivors:
            assert outcome.total_cost == expected.total_cost
            for name, estimate in outcome.result.estimates.items():
                assert estimate.value == expected.result.estimates[name].value
        # the cancelled climb stopped at some prefix of the ladder
        assert len(cancelled.attempts) <= len(expected.attempts)
        assert cancelled.total_cost <= expected.total_cost

    def test_session_opt_out_bypasses_scheduler(self):
        with SciBorqServer(make_engine(), max_workers=2) as server:
            loner = server.open_session("loner", shared_scans=False)
            loner.execute(cone(160.0, 8.0, 4.0), Contract.within_error(0.2))
            assert server.scheduler.stats.scans == 0
            joiner = server.open_session("joiner")
            # another cone: the loner's scans are in the cache
            joiner.execute(cone(200.0, 12.0, 4.0), Contract.within_error(0.2))
            assert server.scheduler.stats.scans > 0

    def test_context_flag_bypasses_scheduler_at_executor_level(self):
        rng = np.random.default_rng(3)
        table = blocked_table(rng, n=1_000)
        catalog = Catalog()
        catalog.add_table(table)
        from repro.columnstore.executor import Executor

        scheduler = SharedScanScheduler()
        executor = Executor(catalog, scheduler=scheduler)
        predicate = Comparison("x", "<", 40.0)
        opted_out = ExecutionContext(shared_scans=False)
        executor.select_indices(table, predicate, opted_out)
        assert scheduler.stats.scans == 0
        enrolled = ExecutionContext()
        executor.select_indices(table, predicate, enrolled)
        assert scheduler.stats.scans == 1
        assert opted_out.charged_units == enrolled.charged_units

    def test_scheduler_error_path_matches_solo(self):
        """A query with a broken predicate raises just like solo."""
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("oops")
            bad = Query(
                table="PhotoObjAll",
                predicate=Comparison("missing", ">", 0.0),
                aggregates=[AggregateSpec("count")],
            )
            with pytest.raises(UnknownColumnError):
                session.execute(bad, Contract.within_error(0.5))

    def test_scheduler_stats_describe(self):
        scheduler = SharedScanScheduler()
        snapshot = scheduler.stats
        assert snapshot.mean_batch_size == 0.0
        assert "0 batch(es)" in snapshot.describe()
        assert "window=0" in repr(scheduler)

    def test_memo_hits_do_not_inflate_convoy_size(self):
        """Cache hits never reach the scheduler: one evaluation, nine
        serves, and the convoy counters see only the evaluation."""
        from repro.columnstore.executor import Executor
        from repro.columnstore.recycler import Recycler

        rng = np.random.default_rng(41)
        table = blocked_table(rng, n=1_000)
        catalog = Catalog()
        catalog.add_table(table)
        scheduler = SharedScanScheduler()
        executor = Executor(catalog, recycler=Recycler(), scheduler=scheduler)
        predicate = Comparison("x", "<", 55.0)
        for _ in range(10):
            executor.select_indices(table, predicate, ExecutionContext())
        stats = scheduler.stats
        assert stats.scans == 1
        assert stats.batches == 1
        assert stats.convoy_scans == 1
        assert stats.mean_batch_size == 1.0
        assert stats.deduped_scans == 0
        assert executor.recycler.stats.hits == 9

    def test_shared_serves_do_not_poison_wall_throughput(self):
        """Cache-served charges must not count as observed work.

        A cache hit charges full solo cost in ~no wall time; if the
        wall-mode throughput calibration counted it, one shared serve
        would record a near-infinite tuples/sec rate and later time
        budgets would afford everything.
        """
        from repro.columnstore.executor import Executor
        from repro.columnstore.recycler import Recycler
        from repro.core.bounded import BoundedQueryProcessor
        from repro.util.clock import WallClock

        engine = make_engine()
        scheduler = SharedScanScheduler()
        engine.set_scan_scheduler(scheduler)
        processor = BoundedQueryProcessor(
            engine.catalog,
            engine.hierarchy("PhotoObjAll"),
            clock=WallClock(),
            executor=Executor(
                engine.catalog, recycler=Recycler(), scheduler=scheduler
            ),
        )
        query = cone(175.0, 9.0, 4.0)
        first_ctx = processor.new_context()
        processor.execute(query, context=first_ctx)
        calibrated = processor._throughput
        assert calibrated is not None and calibrated > 0
        # an identical query: every rung scan is served from the cache
        second_ctx = processor.new_context()
        processor.execute(query, context=second_ctx)
        assert second_ctx.shared_units > 0
        after = processor._throughput
        # a poisoned blend would jump orders of magnitude; shared
        # serves are excluded, so the rate stays the same order
        assert after <= calibrated * 10

    def test_convoyed_failures_are_distinct_exception_objects(self):
        """Deduped bad scans must not share one exception instance.

        ``execute_jobs`` annotates failures with their originating
        query/session; a shared instance would be last-writer-wins.
        """
        rng = np.random.default_rng(7)
        table = blocked_table(rng, n=1_000)
        scheduler = SharedScanScheduler(window=1.0)
        bad = Comparison("no_such_column", ">", 0.0)
        caught = []

        def submit():
            try:
                scheduler.scan(table, bad, ExecutionContext())
            except UnknownColumnError as exc:
                caught.append(exc)

        first = threading.Thread(target=submit)
        second = threading.Thread(target=submit)
        first.start()
        time.sleep(0.1)  # let the first lead and wait out its window
        second.start()
        first.join(timeout=10)
        second.join(timeout=10)
        assert len(caught) == 2
        assert caught[0] is not caught[1]

    def test_leader_consults_memo_for_scans_queued_behind_a_pass(self):
        """A scan enqueued while its twin executes must not re-scan.

        Both miss the selection cache at enrolment.  Lane passes are
        serialised and a pass stores its selections before the next one
        starts, so by the time the late arrival leads its own convoy the
        twin's result is in the cache — the leader serves it from there
        instead of re-reading the table ('read once per distinct
        predicate, no matter how arrivals interleave').
        """
        from repro.columnstore.executor import Executor
        from repro.columnstore.recycler import Recycler

        rng = np.random.default_rng(29)
        table = blocked_table(rng, n=2_000)
        catalog = Catalog()
        catalog.add_table(table)
        scheduler = SharedScanScheduler()
        executor = Executor(catalog, recycler=Recycler(), scheduler=scheduler)
        predicate = Comparison("x", "<", 60.0)
        in_pass = threading.Event()
        release = threading.Event()
        original = operators.select_shared
        calls = []

        def slow_select_shared(*args, **kwargs):
            calls.append(args[1])
            in_pass.set()
            assert release.wait(timeout=10)
            return original(*args, **kwargs)

        outcomes, contexts = [], []

        def submit():
            context = ExecutionContext()
            contexts.append(context)
            outcomes.append(executor.select_indices(table, predicate, context))

        import repro.core.scheduler as scheduler_module

        scheduler_module.operators.select_shared = slow_select_shared
        try:
            first = threading.Thread(target=submit)
            first.start()
            assert in_pass.wait(timeout=10)  # first pass is executing
            second = threading.Thread(target=submit)
            second.start()
            time.sleep(0.1)  # second misses the cache and enqueues
            release.set()
            first.join(timeout=10)
            second.join(timeout=10)
        finally:
            scheduler_module.operators.select_shared = original
        assert len(outcomes) == 2
        assert np.array_equal(outcomes[0][0], outcomes[1][0])
        assert outcomes[0][1] == outcomes[1][1]
        # the predicate was evaluated exactly once across both scans
        assert sum(len(preds) for preds in calls) == 1
        # a cache hit, counted once per scan; not a convoy dedup
        stats = executor.recycler.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert scheduler.stats.deduped_scans == 0
        assert scheduler.stats.scans == 2 and scheduler.stats.batches == 1
        assert sorted(c.shared_units for c in contexts) == [0, outcomes[0][1].cost]

    def test_dead_lanes_swept_on_generation_boundary(self):
        rng = np.random.default_rng(31)
        scheduler = SharedScanScheduler()
        predicate = Comparison("x", "<", 10.0)
        for _ in range(5):
            table = blocked_table(rng, n=512)
            scheduler.scan(table, predicate, ExecutionContext())
            del table  # this generation's table dies
        # each new-lane creation sweeps the dead ones: only the live
        # lane (if the last table were alive) or none remain
        assert len(scheduler._lanes) <= 1

    def test_a_context_without_shared_scans_never_enrols(self):
        rng = np.random.default_rng(37)
        table = blocked_table(rng, n=1_000)
        catalog = Catalog()
        catalog.add_table(table)
        from repro.columnstore.executor import Executor

        scheduler = SharedScanScheduler()
        executor = Executor(catalog, scheduler=scheduler)
        indices, op = executor.select_indices(
            table, Comparison("x", "<", 30.0), ExecutionContext(shared_scans=False)
        )
        assert scheduler.stats.scans == 0  # stayed on the solo path
        solo, solo_op = operators.select(table, Comparison("x", "<", 30.0))
        assert np.array_equal(indices, solo)
        assert op == solo_op

    def test_memo_is_byte_bounded(self):
        """Selections of every scan share one byte budget."""
        from repro.columnstore.executor import Executor
        from repro.columnstore.recycler import Recycler

        rng = np.random.default_rng(11)
        table = blocked_table(rng, n=1_000)
        catalog = Catalog()
        catalog.add_table(table)
        recycler = Recycler(capacity_bytes=32 * 1024)
        executor = Executor(
            catalog, recycler=recycler, scheduler=SharedScanScheduler()
        )
        context = ExecutionContext()
        for i in range(40):
            executor.select_indices(table, Comparison("x", ">=", float(i)), context)
        assert 0 < recycler.size_bytes <= recycler.capacity_bytes
        assert recycler.stats.evictions > 0

    def test_shutdown_does_not_clobber_a_later_scheduler(self):
        """One owner at a time: the later server starts only after the
        earlier one's exit, and that exit left nothing to come back."""
        engine = make_engine()
        first = SciBorqServer(engine, max_workers=1)
        first.shutdown()
        second = SciBorqServer(engine, max_workers=1)
        assert engine.scan_scheduler is second.scheduler
        first.shutdown()  # idempotent: must not touch the new owner
        assert engine.scan_scheduler is second.scheduler
        assert engine.server is second
        second.shutdown()
        assert engine.scan_scheduler is None

    def test_single_owner_shutdown_detaches_fully(self):
        engine = make_engine()
        with SciBorqServer(engine, max_workers=1):
            assert engine.scan_scheduler is not None
        assert engine.scan_scheduler is None

    def test_whole_pass_failure_falls_back_to_solo_scans(self):
        """A pass-level crash must not fan one exception to everyone."""
        rng = np.random.default_rng(43)
        table = blocked_table(rng, n=1_000)
        scheduler = SharedScanScheduler()
        predicate = Comparison("x", "<", 45.0)

        def broken_execute(*args, **kwargs):
            raise RuntimeError("pass blew up")

        scheduler._execute = broken_execute
        indices, stats = scheduler.scan(table, predicate, ExecutionContext())
        solo, solo_stats = operators.select(table, predicate)
        assert np.array_equal(indices, solo)
        assert stats == solo_stats

    def test_shared_scans_false_leaves_installed_scheduler_alone(self):
        engine = make_engine()
        scheduler = SharedScanScheduler()
        engine.set_scan_scheduler(scheduler)
        with SciBorqServer(engine, max_workers=1, shared_scans=False):
            assert engine.scan_scheduler is scheduler

    def test_execute_jobs_accepts_a_generator(self):
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("gen")
            queries = [cone(150.0, 8.0, 5.0), cone(200.0, 12.0, 4.0)]
            jobs = (
                (session, query, session.defaults, None) for query in queries
            )
            results = server.execute_jobs(jobs)
            assert len(results) == 2
            assert all(r.result is not None for r in results)


# ----------------------------------------------------------------------
# execute_jobs exception annotation (regression)
# ----------------------------------------------------------------------
class TestExecuteManyExceptions:
    def test_failed_job_carries_its_query_and_session(self):
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("mixed")
            good = cone(180.0, 10.0, 6.0)
            bad = Query(
                table="PhotoObjAll",
                predicate=Comparison("nope", ">", 1.0),
                aggregates=[AggregateSpec("count")],
            )
            results = session.execute_many(
                [good, bad, good], return_exceptions=True
            )
            assert results[0].result is not None
            assert results[2].result is not None
            failure = results[1]
            assert isinstance(failure, UnknownColumnError)
            assert failure.query is bad
            assert failure.session is session

    def test_raised_first_error_is_annotated_too(self):
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("strict")
            bad = Query(
                table="PhotoObjAll",
                predicate=Comparison("nope", ">", 1.0),
                aggregates=[AggregateSpec("count")],
            )
            with pytest.raises(UnknownColumnError) as excinfo:
                session.execute_many([cone(180.0, 10.0, 6.0), bad])
            assert excinfo.value.query is bad
            assert excinfo.value.session is session

    def test_good_jobs_still_complete_around_a_failure(self):
        with SciBorqServer(make_engine(), max_workers=2) as server:
            session = server.open_session("resilient")
            good = cone(200.0, 12.0, 5.0)
            bad = Query(
                table="PhotoObjAll",
                predicate=Comparison("nope", ">", 1.0),
                aggregates=[AggregateSpec("count")],
            )
            results = session.execute_many(
                [bad, good], return_exceptions=True
            )
            assert isinstance(results[0], UnknownColumnError)
            solo = make_engine().execute(good)
            assert results[1].total_cost == solo.total_cost
