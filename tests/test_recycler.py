"""Tests for the selection cache (the recycler)."""

import gc
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.columnstore import operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.executor import Executor
from repro.columnstore.expressions import Between
from repro.columnstore.operators import OperatorStats
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.columnstore.recycler import Recycler, lossy_reads
from repro.columnstore.table import DerivedTable, Table
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.scheduler import SharedScanScheduler
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.util.clock import ExecutionContext
from table_helpers import table_from_arrays

EXACT = ()


@pytest.fixture
def table() -> Table:
    return table_from_arrays("t", {"x": np.arange(100, dtype=float)})


def op(rows: int = 100, out: int = 0) -> OperatorStats:
    return OperatorStats("select", rows, out)


def store(recycler, table, predicate, indices, lossy=EXACT):
    indices = np.asarray(indices)
    recycler.store(table, predicate, indices, op(out=indices.shape[0]), lossy)


def lookup(recycler, table, predicate, lossy=EXACT):
    hit = recycler.lookup(table, predicate, lossy)
    return None if hit is None else hit[0]


class TestLookupStore:
    def test_miss_then_hit(self, table):
        recycler = Recycler()
        predicate = Between("x", 10, 20)
        assert recycler.lookup(table, predicate, EXACT) is None
        stats = OperatorStats("select", 100, 11, blocks_scanned=1)
        recycler.store(table, predicate, np.arange(10, 21), stats, EXACT)
        indices, cached = recycler.lookup(table, predicate, EXACT)
        np.testing.assert_array_equal(indices, np.arange(10, 21))
        assert cached == stats  # the solo scan's stats, to the byte
        assert recycler.stats.hits == 1 and recycler.stats.misses == 1

    def test_different_predicates_do_not_collide(self, table):
        recycler = Recycler()
        store(recycler, table, Between("x", 0, 1), [0, 1])
        assert lookup(recycler, table, Between("x", 0, 2)) is None

    def test_version_change_invalidates(self, table):
        recycler = Recycler()
        predicate = Between("x", 0, 5)
        store(recycler, table, predicate, np.arange(6))
        table.append_batch({"x": [3.0]})
        assert lookup(recycler, table, predicate) is None

    def test_store_overwrites_same_key(self, table):
        recycler = Recycler()
        predicate = Between("x", 0, 5)
        store(recycler, table, predicate, np.arange(3))
        store(recycler, table, predicate, np.arange(6))
        assert lookup(recycler, table, predicate).shape[0] == 6
        assert len(recycler) == 1


class TestTableIdentity:
    """The key is the live object: names and versions are not enough."""

    def test_an_equal_twin_never_hits(self, table):
        recycler = Recycler()
        twin = table_from_arrays("t", {"x": np.arange(100, dtype=float)})
        assert (twin.name, twin.version) == (table.name, table.version)
        store(recycler, table, Between("x", 0, 5), np.arange(6))
        assert lookup(recycler, twin, Between("x", 0, 5)) is None

    def test_a_reused_id_never_hits(self):
        recycler = Recycler()
        predicate = Between("x", 0, 5)
        store(recycler, table_from_arrays("t", {"x": np.arange(10.0)}), predicate, [9])
        gc.collect()  # the table dies; its entry goes at the next call
        reused = table_from_arrays("t", {"x": np.arange(10.0)})
        # file the dead table's entry under the new table's id, as if
        # the allocator had handed the new table the same address
        ((_, version, fingerprint), entry), = recycler._entries.items()
        recycler._entries = OrderedDict({(id(reused), version, fingerprint): entry})
        assert entry.ref() is None
        assert lookup(recycler, reused, predicate) is None


class TestDeadGenerations:
    """Entries nothing can serve again leave at once, not by LRU."""

    def test_a_moved_on_version_leaves_at_the_next_store(self, table):
        recycler = Recycler()
        other = table_from_arrays("u", {"x": np.arange(10.0)})
        store(recycler, table, Between("x", 0, 5), np.arange(6))
        store(recycler, other, Between("x", 0, 5), np.arange(6))
        table.append_batch({"x": [3.0]})
        assert len(recycler) == 2  # nothing swept before the next store
        store(recycler, table, Between("x", 0, 9), np.arange(10))
        keys = sorted((key[0], key[1]) for key in recycler._entries)
        assert keys == sorted([(id(table), 1), (id(other), 0)])
        assert recycler.size_bytes == 6 * 8 + 10 * 8
        assert lookup(recycler, other, Between("x", 0, 5)) is not None

    def test_a_collected_table_s_entries_leave(self, table):
        recycler = Recycler()
        doomed = table_from_arrays("t", {"x": np.arange(10.0)})
        store(recycler, doomed, Between("x", 0, 5), np.arange(6))
        store(recycler, doomed, Between("x", 1, 5), np.arange(1, 6))
        store(recycler, table, Between("x", 0, 5), np.arange(6))
        del doomed
        gc.collect()
        assert len(recycler) == 1 and recycler.size_bytes == 6 * 8
        assert lookup(recycler, table, Between("x", 0, 5)) is not None
        assert recycler._versions == {id(table): 0}

    def test_a_dropped_derived_table_s_entries_leave(self, fresh_sky_engine):
        engine = fresh_sky_engine
        base = engine.catalog.table("PhotoObjAll")
        derived = DerivedTable(
            "d", base, np.arange(0, base.num_rows, 3), base.column_names
        )
        cone = RadialPredicate("ra", "dec", 180.0, 0.0, 20.0)
        context = engine.executor.new_context()
        engine.executor.select_indices(derived, cone, context)
        engine.executor.select_indices(base, cone, context)
        assert {key[0] for key in engine.recycler._entries} >= {id(derived)}
        del derived
        gc.collect()
        assert len(engine.recycler) == 1  # the call purges
        assert [key[0] for key in engine.recycler._entries] == [id(base)]

    @staticmethod
    def climb(engine, radius, contract):
        query = Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 180.0, 0.0, radius),
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
        )
        outcome = engine.execute(query, contract)
        return [attempt.cost for attempt in outcome.attempts]

    def stream(self, engine):
        """Cones, an ingest, the same cones again: what each query
        charged per rung, and the cache's hit count."""
        charges = []
        contracts = (Contract(), Contract.within_error(0.01), Contract.exact())
        for _ in range(2):
            for radius in (5.0, 10.0):
                for contract in contracts:
                    charges.append(self.climb(engine, radius, contract))
        engine.ingest("PhotoObjAll", SkyGenerator(rng=7).photoobj_batch(2_000))
        for radius in (5.0, 10.0):
            for contract in contracts:
                charges.append(self.climb(engine, radius, contract))
        return charges, engine.recycler.stats.hits

    @staticmethod
    def engine():
        engine = SciBorq(
            create_skyserver_catalog(),
            interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
            rng=201,
        )
        engine.create_hierarchy(
            "PhotoObjAll", policy="uniform", layer_sizes=(5_000, 500)
        )
        build_skyserver(20_000, generator=SkyGenerator(rng=202), loader=engine.loader)
        return engine

    def test_after_an_ingest_no_old_generation_entry_remains(self):
        engine = self.engine()
        self.stream(engine)
        gc.collect()
        recycler = engine.recycler
        assert len(recycler) > 0  # the call purges
        for (_, version, _), entry in recycler._entries.items():
            table = entry.ref()
            assert table is not None and table.version == version

    def test_hits_and_charges_are_those_of_a_cache_that_keeps_them(self, monkeypatch):
        charges, hits = self.stream(self.engine())
        monkeypatch.setattr(Recycler, "_sweep", lambda self: None)
        assert self.stream(self.engine()) == (charges, hits)
        assert hits > 0


class TestLossyEntries:
    """Tiering does not bump the version: the entry carries the tag."""

    @staticmethod
    def warm_table():
        column = Column("x", "float64", np.linspace(0.0, 50.0, 128), block_size=64)
        column.demote(0, "warm")
        return Table("t", [column]), column

    def test_entry_over_warm_blocks_is_refused_once_exact_again(self):
        table, column = self.warm_table()
        predicate = Between("x", 10, 20)
        recycler = Recycler()
        assert column.max_value_error() > 0
        lossy = lossy_reads(table, predicate)
        assert lossy != EXACT
        store(recycler, table, predicate, np.arange(5), lossy)  # a lossy evaluation
        # a scan that would read the same warm blocks may reuse it
        assert lookup(recycler, table, predicate, lossy_reads(table, predicate)) is not None
        column.promote_all()
        # promoted: same object, version and fingerprint — still refused
        assert lossy_reads(table, predicate) == EXACT
        assert lookup(recycler, table, predicate) is None
        assert len(recycler) == 1  # refused, not dropped
        store(recycler, table, predicate, np.arange(7))  # the exact rescan
        assert lookup(recycler, table, predicate).shape == (7,)
        assert len(recycler) == 1
        assert (recycler.stats.hits, recycler.stats.misses) == (2, 1)

    def test_an_exact_entry_is_refused_once_a_block_it_reads_is_demoted(self):
        table, column = self.warm_table()
        column.promote_all()
        predicate = Between("x", 10, 20)
        recycler = Recycler()
        store(recycler, table, predicate, np.arange(5))
        column.demote(0, "warm")
        assert lookup(recycler, table, predicate, lossy_reads(table, predicate)) is None

    def test_tag_is_taken_before_the_scan(self, monkeypatch):
        """A block promoted while the scan runs must not turn its lossy
        evaluation into an entry an exact scan reuses."""
        table, column = self.warm_table()
        catalog = Catalog()
        catalog.add_table(table)
        executor = Executor(catalog, recycler=Recycler())
        query = Query("t", predicate=Between("x", 10, 20), aggregates=[AggregateSpec("count")])
        select, scanned = operators.select, []

        def promoting_select(target, predicate, **kwargs):
            result = select(target, predicate, **kwargs)  # over the warm block
            column.promote_all()  # a concurrent exact reader promotes it
            scanned.append(target)
            return result

        monkeypatch.setattr(operators, "select", promoting_select)
        executor.execute(query)
        assert column.max_value_error() == 0.0
        exact = executor.execute(query)
        assert scanned == [table, table]  # the exact scan was not served the entry
        values = np.linspace(0.0, 50.0, 128)
        expected = int(((values >= 10) & (values <= 20)).sum())
        assert exact.scalar("count(*)") == expected


class TestRawReads:
    """An exact contract's scan reads warm predicate blocks' raw bytes
    from the spill, beside bounded scans that read their codes: each
    gets its own solo selection, in sequence and in one convoy, and the
    cache never serves the exact scan a dequantised one."""

    PREDICATE = Between("x", 30.0, 60.0)
    COUNT = Query("t", predicate=PREDICATE, aggregates=[AggregateSpec("count")])

    @staticmethod
    def warm_engine(scheduler=None):
        """Whole numbers on warm blocks: many rows sit on a bound, where
        a dequantised value falls on either side of it."""
        values = np.random.default_rng(7).integers(0, 100, 16 * 64).astype(float)
        catalog = Catalog()
        catalog.add_table(Table("t", [Column("x", "float64", values, block_size=64)]))
        engine = SciBorq(catalog, interest_attributes={"x": (0.0, 100.0)}, rng=1)
        column = catalog.table("t").column("x")
        for block in range(16):
            column.demote(block, "warm")
        if scheduler is not None:
            engine.set_scan_scheduler(scheduler)
        return engine, catalog.table("t"), values

    def solo(self, table, raw):
        return operators.select(table, self.PREDICATE, raw=raw)[0]

    def test_raw_and_dequantised_scans_differ_here(self):
        _, table, values = self.warm_engine()
        exact = self.solo(table, raw=True)
        np.testing.assert_array_equal(
            exact, np.flatnonzero((values >= 30.0) & (values <= 60.0))
        )
        assert not np.array_equal(exact, self.solo(table, raw=False))
        assert lossy_reads(table, self.PREDICATE) != EXACT

    @pytest.mark.parametrize("exact_first", [True, False])
    def test_one_after_the_other_each_gets_its_solo_selection(self, exact_first):
        engine, table, _ = self.warm_engine()
        tiers = [table.column("x").tier_of(b) for b in range(16)]
        want = {raw: self.solo(table, raw) for raw in (True, False)}
        stats = engine.recycler.stats
        first, second = (True, False) if exact_first else (False, True)
        # a repeat is served from the cache; an entry of the other
        # reading never serves a scan
        for raw, served in ((first, 0), (first, 1), (second, 0), (second, 1)):
            hits = stats.hits
            got, _ = engine.executor.select_indices(
                table, self.PREDICATE, ExecutionContext(), raw=raw
            )
            np.testing.assert_array_equal(got, want[raw])
            assert stats.hits - hits == served
        answer = engine.execute(self.COUNT, Contract.exact())
        assert answer.result.exact
        assert answer.result.estimates["count(*)"].value == want[True].shape[0]
        assert answer.result.estimates["count(*)"].value_error == 0.0
        assert [table.column("x").tier_of(b) for b in range(16)] == tiers

    def test_the_cache_never_serves_the_exact_scan_a_dequantised_selection(self):
        engine, table, _ = self.warm_engine()
        recycler = engine.recycler
        lossy = lossy_reads(table, self.PREDICATE)
        engine.executor.select_indices(table, self.PREDICATE, ExecutionContext())
        assert recycler.lookup(table, self.PREDICATE, lossy) is not None
        assert recycler.lookup(table, self.PREDICATE, EXACT) is None
        hits = recycler.stats.hits
        got, _ = engine.executor.select_indices(
            table, self.PREDICATE, ExecutionContext(), raw=True
        )
        assert recycler.stats.hits == hits  # a miss: rescanned raw
        np.testing.assert_array_equal(got, self.solo(table, raw=True))
        assert recycler.lookup(table, self.PREDICATE, EXACT) is not None

    def test_in_one_convoy_each_gets_its_solo_selection(self):
        scheduler = SharedScanScheduler(window=0.5)
        engine, table, _ = self.warm_engine(scheduler)
        want = {raw: self.solo(table, raw) for raw in (True, False)}
        answers = {}

        def exact():
            answers["exact"] = engine.execute(self.COUNT, Contract.exact())

        def bounded():
            answers["bounded"] = engine.executor.select_indices(
                table, self.PREDICATE, ExecutionContext()
            )[0]

        first = threading.Thread(target=exact)
        second = threading.Thread(target=bounded)
        first.start()
        time.sleep(0.1)  # the exact scan leads and waits out its window
        second.start()
        first.join(timeout=10)
        second.join(timeout=10)
        stats = scheduler.stats
        assert (stats.batches, stats.convoy_scans) == (1, 2)  # one convoy
        outcome = answers["exact"]
        assert outcome.result.exact
        assert outcome.result.estimates["count(*)"].value == want[True].shape[0]
        np.testing.assert_array_equal(answers["bounded"], want[False])


class TestEviction:
    def test_lru_eviction_under_pressure(self, table):
        recycler = Recycler(capacity_bytes=3 * 80)  # three 10-int entries
        predicates = [Between("x", i, i + 9) for i in range(5)]
        for p in predicates:
            store(recycler, table, p, np.arange(10))
        assert len(recycler) <= 3
        assert recycler.stats.evictions >= 2
        # the most recent entry must still be present
        assert lookup(recycler, table, predicates[-1]) is not None

    def test_lookup_refreshes_lru_position(self, table):
        recycler = Recycler(capacity_bytes=2 * 80)
        a, b, c = (Between("x", i, i + 1) for i in range(3))
        store(recycler, table, a, np.arange(10))
        store(recycler, table, b, np.arange(10))
        lookup(recycler, table, a)  # refresh a; b becomes LRU
        store(recycler, table, c, np.arange(10))
        assert lookup(recycler, table, a) is not None
        assert lookup(recycler, table, b) is None

    def test_oversized_entry_not_stored(self, table):
        recycler = Recycler(capacity_bytes=8)
        store(recycler, table, Between("x", 0, 50), np.arange(51))
        assert len(recycler) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            Recycler(capacity_bytes=0)

    def test_hit_rate(self, table):
        recycler = Recycler()
        predicate = Between("x", 0, 1)
        lookup(recycler, table, predicate)
        store(recycler, table, predicate, [0])
        lookup(recycler, table, predicate)
        assert recycler.stats.hit_rate == pytest.approx(0.5)


class TestOversizeRejection:
    def test_oversize_entry_is_counted_not_silently_dropped(self, table):
        recycler = Recycler(capacity_bytes=64)
        predicate = Between("x", 0, 99)
        oversize = np.arange(100)  # 800 bytes > 64-byte budget
        store(recycler, table, predicate, oversize)
        # regression: the drop used to be invisible in the stats
        assert recycler.stats.rejected == 1
        assert recycler.stats.stored == 0
        assert len(recycler) == 0 and recycler.size_bytes == 0
        assert lookup(recycler, table, predicate) is None

    def test_fitting_entries_are_never_rejected(self, table):
        recycler = Recycler(capacity_bytes=1024)
        store(recycler, table, Between("x", 0, 5), np.arange(6))
        assert recycler.stats.rejected == 0
        assert recycler.stats.stored == 1


def test_concurrent_readers_and_writers_keep_the_books():
    """Eight threads look up, re-check and store over one small cache
    under a short switch interval: every lookup counts exactly once,
    and the byte count is the entries' and never above the budget."""
    import sys
    import threading

    table = table_from_arrays("t", {"x": np.arange(100, dtype=float)})
    recycler = Recycler(capacity_bytes=40 * 80)  # forty 10-int entries
    predicates = [Between("x", i, i + 9) for i in range(64)]
    lookups_per_thread = 400
    barrier = threading.Barrier(8)

    def work(seed):
        rng = np.random.default_rng(seed)
        barrier.wait(timeout=10)
        for _ in range(lookups_per_thread):
            predicate = predicates[int(rng.integers(len(predicates)))]
            if recycler.lookup(table, predicate, EXACT) is None:
                if recycler.recheck(table, predicate, EXACT) is None:
                    store(recycler, table, predicate, np.arange(10))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = recycler.stats
    assert stats.hits + stats.misses == 8 * lookups_per_thread
    assert stats.evictions > 0
    entries = recycler._entries.values()
    assert recycler.size_bytes == sum(entry.indices.nbytes for entry in entries)
    assert recycler.size_bytes <= recycler.capacity_bytes
