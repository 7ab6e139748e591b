"""Tests for the Table relation primitive."""

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.columnstore.table import Table
from repro.errors import LoadError, SchemaError, UnknownColumnError
from table_helpers import table_from_arrays


@pytest.fixture
def table() -> Table:
    return table_from_arrays(
        "t", {"a": np.arange(4), "b": np.array([1.0, 2.0, 3.0, 4.0])}
    )


class TestConstruction:
    def test_from_dtype_mapping(self):
        t = Table("t", {"a": "int64", "b": "float64"})
        assert t.num_rows == 0
        assert t.column_names == ["a", "b"]

    def test_from_columns(self):
        t = Table("t", [Column("a", "int64", [1, 2])])
        assert t.num_rows == 2

    def test_rejects_ragged_columns(self):
        with pytest.raises(SchemaError, match="ragged"):
            Table("t", [Column("a", "int64", [1]), Column("b", "int64", [1, 2])])

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Table("t", [Column("a", "int64"), Column("a", "int64")])

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError, match="non-empty"):
            Table("", {"a": "int64"})


class TestAccess:
    def test_getitem_returns_values(self, table):
        np.testing.assert_array_equal(table["a"], np.arange(4))

    def test_unknown_column(self, table):
        with pytest.raises(UnknownColumnError, match="nope"):
            table.column("nope")

    def test_nbytes_positive(self, table):
        assert table.nbytes() == 4 * 8 * 2


class TestAppend:
    def test_append_batch_bumps_version(self, table):
        v0 = table.version
        count = table.append_batch({"a": [4, 5], "b": [5.0, 6.0]})
        assert count == 2
        assert table.num_rows == 6
        assert table.version == v0 + 1

    def test_missing_column_rejected_atomically(self, table):
        with pytest.raises(LoadError, match="missing"):
            table.append_batch({"a": [1]})
        assert table.num_rows == 4  # nothing partially appended

    def test_extra_column_rejected(self, table):
        with pytest.raises(LoadError, match="unexpected"):
            table.append_batch({"a": [1], "b": [1.0], "c": [2]})

    def test_ragged_batch_rejected(self, table):
        with pytest.raises(LoadError, match="ragged"):
            table.append_batch({"a": [1, 2], "b": [1.0]})


class TestDerivation:
    def test_take_materialises(self, table):
        sub = table.take(np.array([3, 0]))
        np.testing.assert_array_equal(sub["a"], [3, 0])
        table.append_batch({"a": [10], "b": [1.0]})
        assert sub.num_rows == 2  # unaffected by later appends

    def test_take_column_subset_in_the_order_given(self, table):
        sub = table.take(np.array([3, 0]), "sub", columns=["b"])
        assert sub.name == "sub" and sub.column_names == ["b"]
        np.testing.assert_array_equal(sub["b"], table["b"][[3, 0]])
        assert table.take(np.array([1]), columns=["b", "a"]).column_names == ["b", "a"]
        with pytest.raises(UnknownColumnError):
            table.take(np.array([0]), columns=["zzz"])

    def test_empty_like(self, table):
        empty = table.empty_like()
        assert empty.num_rows == 0
        assert empty.column_names == table.column_names
