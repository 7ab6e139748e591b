"""Tests for the intermediate-result recycler."""

import numpy as np
import pytest

from repro.columnstore.expressions import Between
from repro.columnstore.recycler import Recycler
from repro.columnstore.table import Table


@pytest.fixture
def table() -> Table:
    return Table.from_arrays("t", {"x": np.arange(100, dtype=float)})


class TestLookupStore:
    def test_miss_then_hit(self, table):
        recycler = Recycler()
        predicate = Between("x", 10, 20)
        assert recycler.lookup(table, predicate) is None
        recycler.store(table, predicate, np.arange(10, 21))
        hit = recycler.lookup(table, predicate)
        np.testing.assert_array_equal(hit, np.arange(10, 21))
        assert recycler.stats.hits == 1 and recycler.stats.misses == 1

    def test_different_predicates_do_not_collide(self, table):
        recycler = Recycler()
        recycler.store(table, Between("x", 0, 1), np.array([0, 1]))
        assert recycler.lookup(table, Between("x", 0, 2)) is None

    def test_version_change_invalidates(self, table):
        recycler = Recycler()
        predicate = Between("x", 0, 5)
        recycler.store(table, predicate, np.arange(6))
        table.append_batch({"x": [3.0]})
        assert recycler.lookup(table, predicate) is None

    def test_store_overwrites_same_key(self, table):
        recycler = Recycler()
        predicate = Between("x", 0, 5)
        recycler.store(table, predicate, np.arange(3))
        recycler.store(table, predicate, np.arange(6))
        assert recycler.lookup(table, predicate).shape[0] == 6
        assert len(recycler) == 1


class TestLossyEntries:
    """Tiering does not bump the version: the entry carries the tag."""

    def test_entry_over_warm_blocks_is_refused_once_exact_again(self):
        from repro.columnstore.column import Column

        column = Column("x", "float64", np.linspace(0.0, 50.0, 128), block_size=64)
        table = Table("t", [column])
        predicate = Between("x", 10, 20)
        recycler = Recycler()
        column.demote(0, "warm")
        assert column.max_value_error() > 0
        recycler.store(table, predicate, np.arange(5))  # a lossy evaluation
        # a scan that would read the same warm blocks may reuse it
        assert recycler.lookup(table, predicate) is not None
        column.promote_all()
        # promoted: same name, version and fingerprint — still refused
        assert recycler.lookup(table, predicate) is None
        assert recycler.peek(table, predicate) is not None
        recycler.store(table, predicate, np.arange(7))  # the exact rescan
        assert recycler.lookup(table, predicate).shape == (7,)
        assert len(recycler) == 1
        assert (recycler.stats.hits, recycler.stats.misses) == (2, 1)


class TestEviction:
    def test_lru_eviction_under_pressure(self, table):
        recycler = Recycler(capacity_bytes=3 * 80)  # three 10-int entries
        predicates = [Between("x", i, i + 9) for i in range(5)]
        for p in predicates:
            recycler.store(table, p, np.arange(10))
        assert len(recycler) <= 3
        assert recycler.stats.evictions >= 2
        # the most recent entry must still be present
        assert recycler.lookup(table, predicates[-1]) is not None

    def test_lookup_refreshes_lru_position(self, table):
        recycler = Recycler(capacity_bytes=2 * 80)
        a, b, c = (Between("x", i, i + 1) for i in range(3))
        recycler.store(table, a, np.arange(10))
        recycler.store(table, b, np.arange(10))
        recycler.lookup(table, a)  # refresh a; b becomes LRU
        recycler.store(table, c, np.arange(10))
        assert recycler.lookup(table, a) is not None
        assert recycler.lookup(table, b) is None

    def test_oversized_entry_not_stored(self, table):
        recycler = Recycler(capacity_bytes=8)
        recycler.store(table, Between("x", 0, 50), np.arange(51))
        assert len(recycler) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            Recycler(capacity_bytes=0)

    def test_clear_keeps_counters(self, table):
        recycler = Recycler()
        recycler.store(table, Between("x", 0, 1), np.array([0]))
        recycler.lookup(table, Between("x", 0, 1))
        recycler.clear()
        assert len(recycler) == 0 and recycler.size_bytes == 0
        assert recycler.stats.hits == 1

    def test_hit_rate(self, table):
        recycler = Recycler()
        predicate = Between("x", 0, 1)
        recycler.lookup(table, predicate)
        recycler.store(table, predicate, np.array([0]))
        recycler.lookup(table, predicate)
        assert recycler.stats.hit_rate == pytest.approx(0.5)


class TestOversizeRejection:
    def test_oversize_entry_is_counted_not_silently_dropped(self, table):
        recycler = Recycler(capacity_bytes=64)
        predicate = Between("x", 0, 99)
        oversize = np.arange(100)  # 800 bytes > 64-byte budget
        recycler.store(table, predicate, oversize)
        # regression: the drop used to be invisible in the stats
        assert recycler.stats.rejected == 1
        assert recycler.stats.stored == 0
        assert len(recycler) == 0 and recycler.size_bytes == 0
        assert recycler.lookup(table, predicate) is None

    def test_fitting_entries_are_never_rejected(self, table):
        recycler = Recycler(capacity_bytes=1024)
        recycler.store(table, Between("x", 0, 5), np.arange(6))
        assert recycler.stats.rejected == 0
        assert recycler.stats.stored == 1
