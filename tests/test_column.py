"""Tests for the Column storage primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.column import Column
from repro.errors import SchemaError


class TestConstruction:
    def test_empty(self):
        col = Column("x", "float64")
        assert len(col) == 0
        assert col.dtype == np.float64

    def test_with_values(self):
        col = Column("x", "int64", [1, 2, 3])
        np.testing.assert_array_equal(col.values, [1, 2, 3])

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError, match="non-empty"):
            Column("", "float64")

    def test_string_dtype(self):
        col = Column("s", "<U8", ["abc", "de"])
        assert col[0] == "abc"


class TestAppend:
    def test_append_scalar(self):
        col = Column("x", "float64")
        col.extend(np.array(1.5))  # a 0-d array is a one-row batch
        assert len(col) == 1 and col[0] == 1.5

    def test_extend_array(self):
        col = Column("x", "float64")
        col.extend(np.arange(5, dtype=float))
        assert len(col) == 5

    def test_growth_across_capacity_boundary(self):
        col = Column("x", "int64")
        for i in range(100):  # forces several regrows past _MIN_CAPACITY
            col.extend([i])
        np.testing.assert_array_equal(col.values, np.arange(100))

    def test_extend_casts_int_to_float(self):
        col = Column("x", "float64")
        col.extend(np.array([1, 2], dtype=np.int64))
        assert col.dtype == np.float64

    def test_extend_rejects_2d(self):
        with pytest.raises(SchemaError, match="1-d"):
            Column("x", "float64").extend(np.zeros((2, 2)))

    def test_extend_rejects_incompatible_dtype(self):
        with pytest.raises(SchemaError):
            Column("x", "int64").extend(np.array([1.5, 2.5]))


class TestAccess:
    def test_values_view_is_readonly(self):
        col = Column("x", "float64", [1.0])
        with pytest.raises(ValueError):
            col.values[0] = 2.0

    def test_negative_indexing(self):
        col = Column("x", "int64", [10, 20, 30])
        assert col[-1] == 30

    def test_out_of_range_raises(self):
        col = Column("x", "int64", [1])
        with pytest.raises(IndexError, match="out of range"):
            col[5]

    def test_slice_access(self):
        col = Column("x", "int64", [0, 1, 2, 3])
        np.testing.assert_array_equal(col[1:3], [1, 2])


class TestDerivation:
    def test_take(self):
        col = Column("x", "int64", [10, 20, 30])
        taken = col.take(np.array([2, 0]))
        np.testing.assert_array_equal(taken.values, [30, 10])

    @pytest.mark.parametrize("demoted", [False, True])
    def test_derived_columns_own_their_values_and_still_append(self, demoted):
        # take adopts the gathered array instead of copying it a second
        # time: the result must neither alias the source nor lose the
        # append path
        source = Column("x", "float64", np.arange(40.0), block_size=16)
        if demoted:
            source.demote(0, "warm")
        expected = source.values.copy()
        derived = source.take(np.array([30, 2, 2]))
        assert not np.shares_memory(derived.values, source.values)
        assert derived.block_size == 16
        derived.extend(np.array([-1.0]))
        derived.extend(np.array([-2.0, -3.0]))
        np.testing.assert_array_equal(
            derived.values, np.concatenate([expected[[30, 2, 2]], [-1.0, -2.0, -3.0]])
        )
        assert derived.max_value_error() == source.max_value_error()
        np.testing.assert_array_equal(source.values.copy(), expected)
        assert len(source) == 40

    def test_nbytes_tracks_live_size_not_capacity(self):
        col = Column("x", "int64", [1])
        assert col.nbytes() == 8


class TestPropertyBased:
    @given(st.lists(st.integers(-(2**40), 2**40), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_extend_preserves_contents(self, values):
        col = Column("x", "int64")
        col.extend(np.array(values, dtype=np.int64))
        np.testing.assert_array_equal(col.values, values)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_two_extends_equal_one(self, first, second):
        a = Column("x", "float64")
        a.extend(np.array(first + second, dtype=float))
        b = Column("x", "float64")
        b.extend(np.array(first, dtype=float))
        b.extend(np.array(second, dtype=float))
        np.testing.assert_array_equal(a.values, b.values)
