"""The single scan path and the one executor behind it.

Every selection of every query — exact base scans and all rung scans
of the bounded ladder — runs through ``Executor.select_indices``, on
the one :class:`~repro.columnstore.executor.Executor` the engine owns.
Pinned here:

* over {recycler} x {scheduler} x {session ``shared_scans``} the same
  predicates give identical ``(indices, OperatorStats, charge)``, every
  miss stores back exactly once whichever back-end served it, and a hit
  returns and charges the solo scan's;
* a miss goes to ``scheduler.scan`` exactly when the context shares
  scans, and to ``operators.select`` otherwise;
* the engine's processors, their estimators, and the exact path hold
  the *same* executor, so a scheduler installed before or after
  ``create_hierarchy`` (or removed with ``None``) is what rung scans
  use;
* every scan consults the recycler — rung scans and the exact path
  alike — keyed by the live table object, so a new sampler generation
  with the same name and version never hits;
* every served selection equals a fresh ``operators.select`` of that
  table object over offer / ingest / maintain / demote interleavings;
* a scan — solo, in a convoy, or through a base cover — reads its
  blocks on the thread that asked, and starts no thread.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.executor import BaseCover, Executor
from repro.columnstore.expressions import And, Between, Comparison
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.recycler import Recycler
from repro.columnstore.table import DerivedTable, Table
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.scheduler import SharedScanScheduler
from repro.util.clock import ExecutionContext

BS = 256
N = 4096

PREDICATES = [
    Between("x", 10.0, 60.0),  # prunes blocks (x is sorted)
    Comparison("y", "<", 30.0),  # never prunes
    And([Between("x", 40.0, 90.0), Comparison("y", ">", 50.0)]),
]


@pytest.fixture(scope="module")
def world():
    """One catalog, one engine with two hierarchies."""
    rng = np.random.default_rng(7)
    table = Table(
        "T",
        [
            Column("x", "float64", np.sort(rng.uniform(0.0, 100.0, N)), block_size=BS),
            Column("y", "float64", rng.uniform(0.0, 100.0, N), block_size=BS),
        ],
    )
    catalog = Catalog()
    catalog.add_table(table)
    engine = SciBorq(catalog, interest_attributes={"x": (0.0, 100.0)}, rng=13)
    for name in ("early", "late"):
        engine.create_hierarchy(
            "T", policy="uniform", layer_sizes=(N // 4, N // 16), name=name
        )
        engine.rebuild("T", name)
    return catalog, table, engine


def count_query(predicate=PREDICATES[0]) -> Query:
    return Query("T", predicate=predicate, aggregates=(AggregateSpec("count"),))


def row_query(predicate=PREDICATES[0]) -> Query:
    return Query("T", predicate=predicate, select=("x", "y"))


# ----------------------------------------------------------------------
# Executor.select_indices: one order, one charge, one store-back
# ----------------------------------------------------------------------
class TestSelectIndices:
    @pytest.mark.parametrize(
        "recycler_on,scheduler_on,shared_scans",
        list(itertools.product((False, True), repeat=3)),
    )
    def test_every_combination_matches_the_solo_scan(
        self, world, recycler_on, scheduler_on, shared_scans
    ):
        catalog, table, _engine = world
        recycler = Recycler() if recycler_on else None
        scheduler = SharedScanScheduler() if scheduler_on else None
        executor = Executor(catalog, recycler=recycler, scheduler=scheduler)
        for predicate in PREDICATES:
            solo_indices, solo_op = operators.select(table, predicate)
            context = ExecutionContext(shared_scans=shared_scans)
            indices, op = executor.select_indices(table, predicate, context)
            np.testing.assert_array_equal(indices, solo_indices)
            assert op == solo_op
            assert context.spent == solo_op.cost
            assert context.shared_units == 0
        if scheduler_on:
            expected = len(PREDICATES) if shared_scans else 0
            assert scheduler.stats.scans == expected
        if recycler_on:
            # each miss stored back exactly once, whoever served it
            assert recycler.stats.misses == len(PREDICATES)
            assert recycler.stats.stored == len(PREDICATES)
            for predicate in PREDICATES:
                context = ExecutionContext(shared_scans=shared_scans)
                indices, op = executor.select_indices(table, predicate, context)
                solo_indices, solo_op = operators.select(table, predicate)
                np.testing.assert_array_equal(indices, solo_indices)
                # a hit is the solo scan: its stats, its charge, all shared
                assert op == solo_op
                assert context.spent == context.shared_units == solo_op.cost
            assert recycler.stats.hits == len(PREDICATES)
            assert recycler.stats.stored == len(PREDICATES)
            if scheduler_on:
                assert scheduler.stats.scans == expected  # hits never enrol

    def test_rung_scans_hit_and_a_new_generation_never_does(self, world):
        catalog, table, engine = world
        recycler = Recycler()
        executor = Executor(catalog, recycler=recycler)
        executor.select_indices(table, PREDICATES[0], ExecutionContext())
        executor.execute(count_query(), fact_table=table)  # a ladder's base rung
        executor.execute(count_query())  # the exact base-table path
        assert (recycler.stats.misses, recycler.stats.hits) == (1, 2)
        base = engine.catalog.table("T")
        impression = engine.hierarchy("T", "early").layer(0)
        rung = impression.materialise(base)
        first = ExecutionContext()
        executor.select_indices(rung, PREDICATES[0], first)
        again = ExecutionContext()
        executor.select_indices(rung, PREDICATES[0], again)
        assert again.spent == again.shared_units == first.spent > 0
        assert (recycler.stats.misses, recycler.stats.hits) == (2, 3)
        # a rebuild gives the rung a new sampler generation: a new table
        # object under the same name and version
        engine.rebuild("T", "early")
        fresh = impression.materialise(base)
        assert fresh is not rung
        assert (fresh.name, fresh.version) == (rung.name, rung.version)
        indices, _ = executor.select_indices(fresh, PREDICATES[0], ExecutionContext())
        assert (recycler.stats.misses, recycler.stats.hits) == (3, 3)
        np.testing.assert_array_equal(
            indices, operators.select(fresh, PREDICATES[0])[0]
        )

    def test_opt_outs_bypass_the_scheduler(self, world, monkeypatch):
        """A miss goes to ``scheduler.scan`` exactly when the context
        shares scans, else to ``operators.select`` — one of the two,
        once, same charge."""
        catalog, table, _engine = world
        scheduler = SharedScanScheduler()
        calls = []
        solo_select, shared_scan = operators.select, scheduler.scan

        def spy_select(*args, **kwargs):
            calls.append("select")
            return solo_select(*args, **kwargs)

        def spy_scan(*args, **kwargs):
            calls.append("scheduler")
            return shared_scan(*args, **kwargs)

        monkeypatch.setattr(operators, "select", spy_select)
        monkeypatch.setattr(scheduler, "scan", spy_scan)
        charges = set()
        for shared_scans in (False, True):
            executor = Executor(catalog, scheduler=scheduler)
            context = ExecutionContext(shared_scans=shared_scans)
            calls.clear()
            executor.select_indices(table, PREDICATES[1], context)
            assert calls == (["scheduler"] if shared_scans else ["select"])
            charges.add(context.spent)
        assert len(charges) == 1
        assert scheduler.stats.scans == 1
        calls.clear()
        Executor(catalog).select_indices(table, PREDICATES[1], ExecutionContext())
        assert calls == ["select"]  # no scheduler installed


# ----------------------------------------------------------------------
# SciBorq: one executor behind the exact path and every rung
# ----------------------------------------------------------------------
class TestOneExecutor:
    def test_processors_estimators_and_exact_path_share_it(self, world):
        _catalog, _table, engine = world
        for name in ("early", "late"):
            processor = engine.processor("T", name)
            assert processor.executor is engine.executor
            assert processor.estimator.executor is engine.executor
        assert engine.executor.recycler is engine.recycler

    def test_standalone_processor_builds_a_private_one(self, world):
        from repro.core.bounded import BoundedQueryProcessor

        catalog, _table, engine = world
        processor = BoundedQueryProcessor(catalog, engine.hierarchy("T", "early"))
        assert processor.executor is not engine.executor
        assert processor.estimator.executor is processor.executor
        assert processor.executor.recycler is None

    def _climb(self, engine, hierarchy):
        """A ladder to the base rung on ``hierarchy``: impression,
        delta, and complement scans all happen."""
        return engine.execute(
            count_query(PREDICATES[1]),
            Contract(max_relative_error=0.0, hierarchy=hierarchy),
        )

    def test_scheduler_installed_between_hierarchies_serves_both(self, world):
        catalog, _table, _engine = world
        # no cache: each repeated climb must reach the scheduler again
        engine = SciBorq(
            catalog, interest_attributes={"x": (0.0, 100.0)}, recycler_bytes=None, rng=13
        )
        engine.create_hierarchy("T", policy="uniform", layer_sizes=(N // 4,), name="early")
        scheduler = SharedScanScheduler()
        engine.set_scan_scheduler(scheduler)  # after 'early', before 'late'
        engine.create_hierarchy("T", policy="uniform", layer_sizes=(N // 4,), name="late")
        for name in ("early", "late"):
            engine.rebuild("T", name)
        assert engine.scan_scheduler is scheduler
        reference = self._climb(engine, "early").total_cost
        for name in ("early", "late"):
            before = scheduler.stats.scans
            assert self._climb(engine, name).total_cost == reference
            assert scheduler.stats.scans > before
        engine.set_scan_scheduler(None)
        before = scheduler.stats.scans
        for name in ("early", "late"):
            assert self._climb(engine, name).total_cost == reference
        assert scheduler.stats.scans == before
        assert engine.scan_scheduler is None

    def test_ladders_and_the_exact_path_share_the_recycler(self, world):
        _catalog, _table, engine = world
        # no other test scans PREDICATES[2]: the cache starts without it
        stats = engine.recycler.stats
        misses = stats.misses
        climbs = [
            engine.execute(query, Contract.within_error(0.0))
            for query in (count_query(PREDICATES[2]), row_query(PREDICATES[2]))
        ]
        assert all(climb.attempts[-1].source == "T" for climb in climbs)
        assert stats.misses > misses  # rung scans fill the cache
        hits = stats.hits
        again = engine.execute(row_query(PREDICATES[2]), Contract.within_error(0.0))
        # every rung of the repeat is served, and charged as the first
        assert stats.hits - hits == len(climbs[1].attempts)
        assert [a.cost for a in again.attempts] == [a.cost for a in climbs[1].attempts]
        first = engine.execute(count_query(PREDICATES[2]), Contract.exact())
        hits = stats.hits
        exact = engine.execute(count_query(PREDICATES[2]), Contract.exact())
        assert stats.hits > hits
        assert exact.result.estimates["count(*)"].value == (
            first.result.estimates["count(*)"].value
        )
        assert exact.total_cost == first.total_cost  # a hit charges the solo cost


# ----------------------------------------------------------------------
# execute_exact is a drain over submit: its accounting is the core's
# ----------------------------------------------------------------------
class TestExecuteExactAccounting:
    def test_concurrent_calls_each_log_their_own_charge(self, world):
        """The charge used to be a delta of the *shared* engine clock
        (``context=None``), wrong whenever another thread charged
        meanwhile."""
        catalog, table, _engine = world
        engine = SciBorq(
            catalog, interest_attributes={"x": (0.0, 100.0)}, recycler_bytes=None
        )
        queries = [
            count_query(Comparison("y", "<", bound))
            for bound in (20.0, 45.0, 70.0, 95.0)
        ]
        expected = {}
        for query in queries:
            scan = operators.select(table, query.predicate)[1]
            # the scan reads every row, the count reads the matches
            expected[query.fingerprint()] = float(scan.tuples_in + scan.tuples_out)
        barrier = threading.Barrier(len(queries))

        def run(query):
            barrier.wait(timeout=10.0)
            for _ in range(5):
                engine.execute_exact(query)

        threads = [threading.Thread(target=run, args=(q,)) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        entries = engine.query_log.snapshot()
        assert len(entries) == 5 * len(queries)
        for entry in entries:
            assert entry.settled
            assert entry.outcome.tuples_charged == expected[entry.query.fingerprint()]
        assert engine.clock.now == 5 * sum(expected.values())


# ----------------------------------------------------------------------
# a scan runs in the thread that asked for it
# ----------------------------------------------------------------------
class TestScansStartNoThread:
    ROWS = 400_000  # 7 morsels of 65 536 rows

    @pytest.fixture()
    def reads(self, monkeypatch):
        """The thread of every ``Column.read_range`` call."""
        seen: list[int] = []
        read_range = Column.read_range

        def spy(column, *args, **kwargs):
            seen.append(threading.get_ident())
            return read_range(column, *args, **kwargs)

        monkeypatch.setattr(Column, "read_range", spy)
        return seen

    @pytest.fixture()
    def big(self):
        rng = np.random.default_rng(41)
        table = Table(
            "B",
            [
                Column("x", "float64", rng.uniform(0.0, 100.0, self.ROWS)),
                Column("y", "float64", rng.uniform(0.0, 100.0, self.ROWS)),
            ],
        )
        catalog = Catalog()
        catalog.add_table(table)
        return catalog, table

    def test_solo_convoy_and_cover_scans_read_on_the_callers_thread(self, big, reads):
        catalog, table = big
        predicate = Between("y", 20.0, 70.0)
        want = operators.select(table, predicate)[0]
        assert len(operators._morsels(operators.scan_plan(table, predicate)[0])) >= 6
        threads_before = threading.active_count()
        me = threading.get_ident()

        # a solo scan
        del reads[:]
        solo = Executor(catalog)
        indices, _ = solo.select_indices(table, predicate, ExecutionContext())
        assert indices.tobytes() == want.tobytes()
        assert reads and set(reads) == {me}

        # a convoy: two callers share one pass, led by one of them (a
        # leader waits for its co-runner, however late it is scheduled)
        scheduler = SharedScanScheduler(window=5.0)
        executor = Executor(catalog, scheduler=scheduler)
        callers, found = set(), []
        barrier = threading.Barrier(2)

        def ask(bound):
            callers.add(threading.get_ident())
            barrier.wait(timeout=10.0)
            mine = Between("y", 20.0, bound)
            found.append(executor.select_indices(table, mine, ExecutionContext()))

        del reads[:]
        askers = [threading.Thread(target=ask, args=(b,)) for b in (70.0, 90.0)]
        for asker in askers:
            asker.start()
        for asker in askers:
            asker.join(timeout=30.0)
        assert len(found) == 2
        assert (scheduler.stats.batches, scheduler.stats.convoy_scans) == (1, 2)
        assert reads and len(set(reads)) == 1 and set(reads) <= callers

        # a base scan read through its cover: two halves of the base
        halves = (np.arange(0, self.ROWS, 2), np.arange(1, self.ROWS, 2))
        parts = tuple(
            DerivedTable(f"B{i}", table, ids, ["x", "y"])
            for i, ids in enumerate(halves)
        )
        cover = BaseCover(parts, self.ROWS)
        del reads[:]
        indices, op = executor.select_indices(
            table, predicate, ExecutionContext(), cover=cover
        )
        assert indices.tobytes() == want.tobytes() and op.tuples_in == self.ROWS
        assert reads and set(reads) == {me}

        assert threading.active_count() == threads_before


# ----------------------------------------------------------------------
# what the cache serves is what a fresh scan would return
# ----------------------------------------------------------------------
#: few predicates, so that repeats — the scans the cache serves — are
#: common; one on the cell attribute ``x`` (its base scans read the
#: cover), one off it (they read the base)
POOL = (PREDICATES[0], PREDICATES[1])
_OPERATION = {
    "offer": st.tuples(st.just("offer"), st.integers(1, 600)),
    "ingest": st.tuples(st.just("ingest"), st.integers(1, 600)),
    "maintain": st.just(("maintain",)),
    "demote": st.tuples(
        st.just("demote"),
        st.sampled_from(["x", "y"]),
        st.integers(0, 15),
        st.sampled_from(["warm", "cold"]),
    ),
    "query": st.tuples(
        st.just("query"),
        st.sampled_from(range(len(POOL))),
        st.sampled_from(["exact", "climb", "rows"]),
    ),
}
#: queries and demotions weighted up: a served scan needs a repeat, and
#: a stale one a tier change between the two (exact queries read warm
#: blocks raw, bounded ones dequantised)
OPERATIONS = st.lists(
    st.sampled_from(
        ["offer", "ingest", "maintain"] + ["demote"] * 3 + ["query"] * 6
    ).flatmap(_OPERATION.__getitem__),
    max_size=20,
)


@given(operations=OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_every_served_selection_is_a_fresh_scan(operations):
    rng = np.random.default_rng(5)

    def batch(rows):
        # whole numbers: many rows sit on a predicate's bound, where a
        # quantised value can fall on either side of it
        return {name: rng.integers(0, 100, rows).astype(float) for name in ("x", "y")}

    catalog = Catalog()
    catalog.add_table(
        Table("T", [Column(name, "float64", block_size=BS) for name in ("x", "y")])
    )
    engine = SciBorq(catalog, interest_attributes={"x": (0.0, 100.0)}, rng=3)
    engine.create_hierarchy("T", policy="uniform", layer_sizes=(N // 4, N // 16))
    engine.loader.load_batch("T", batch(N))
    base = catalog.table("T")
    recycler = engine.recycler
    lookup, served = recycler.lookup, []

    def checked_lookup(table, predicate, lossy):
        hit = lookup(table, predicate, lossy)
        if hit is not None:
            # what the asking scan reads: an exact one (tag ``()``) raw
            # values, a lossy one the warm blocks' codes
            indices, op = operators.select(
                table, predicate, raw=lossy == ()
            )
            np.testing.assert_array_equal(hit[0], indices)
            assert hit[1] == op
            served.append(table)
        return hit

    recycler.lookup = checked_lookup
    for operation in operations:
        kind = operation[0]
        if kind == "offer":
            engine.loader.load_batch("T", batch(operation[1]))
        elif kind == "ingest":
            engine.ingest("T", batch(operation[1]))
        elif kind == "maintain":
            engine.refresh("T")
        elif kind == "demote":
            base.column(operation[1]).demote(operation[2], operation[3])
        else:
            predicate = POOL[operation[1]]
            if operation[2] == "exact":
                engine.execute(count_query(predicate), Contract.exact())
            elif operation[2] == "climb":
                engine.execute(count_query(predicate), Contract.within_error(0.0))
            else:
                engine.execute(row_query(predicate), Contract.within_error(0.0))
