"""Tests for the load pipeline and its observer hooks."""

import pytest

from repro.columnstore.catalog import Catalog
from repro.columnstore.loader import Loader, LoadObserver
from repro.columnstore.table import Table


class RecordingObserver(LoadObserver):
    """Captures every (table, start_row, count) notification."""

    def __init__(self):
        self.calls = []

    def on_batch(self, table_name, start_row, batch):
        count = next(iter(batch.values())).shape[0]
        self.calls.append((table_name, start_row, count))


@pytest.fixture
def loader() -> Loader:
    catalog = Catalog()
    catalog.add_table(Table("t", {"a": "int64", "b": "float64"}))
    return Loader(catalog)


class TestLoadBatch:
    def test_appends_and_counts(self, loader):
        count = loader.load_batch("t", {"a": [1, 2], "b": [0.1, 0.2]})
        assert count == 2
        assert loader.catalog.table("t").num_rows == 2

    def test_observer_sees_start_row(self, loader):
        observer = RecordingObserver()
        loader.register("t", observer)
        loader.load_batch("t", {"a": [1], "b": [0.1]})
        loader.load_batch("t", {"a": [2, 3], "b": [0.2, 0.3]})
        assert observer.calls == [("t", 0, 1), ("t", 1, 2)]

    def test_observer_only_notified_for_its_table(self, loader):
        loader.catalog.add_table(Table("u", {"a": "int64"}))
        observer = RecordingObserver()
        loader.register("t", observer)
        loader.load_batch("u", {"a": [1]})
        assert observer.calls == []

    def test_multiple_observers_all_notified(self, loader):
        first, second = RecordingObserver(), RecordingObserver()
        loader.register("t", first)
        loader.register("t", second)
        loader.load_batch("t", {"a": [1], "b": [0.1]})
        assert first.calls == second.calls == [("t", 0, 1)]


class TestRegistry:
    def test_register_rejects_non_observer(self, loader):
        with pytest.raises(TypeError, match="LoadObserver"):
            loader.register("t", object())

    def test_observers_of_returns_copy(self, loader):
        observer = RecordingObserver()
        loader.register("t", observer)
        listed = loader.observers_of("t")
        listed.clear()
        assert loader.observers_of("t") == [observer]
