"""Tests for the cold tier's anonymous raw-block spill store."""

import numpy as np
import pytest

from repro.columnstore.spill import ColumnBlockStore
from repro.errors import ImpressionError


class TestColumnBlockStore:
    def test_anonymous_store_round_trips(self):
        store = ColumnBlockStore()
        values = np.arange(64, dtype=np.float64)
        store.put("x#0", values)
        assert store.contains("x#0")
        got = store.read("x#0", np.float64, 64)
        np.testing.assert_array_equal(np.asarray(got), values)

    def test_keys_are_write_once(self):
        store = ColumnBlockStore()
        store.put("k", np.arange(4.0))
        with pytest.raises(ImpressionError, match="already spilled"):
            store.put("k", np.arange(4.0))

    def test_dtype_mismatch_rejected(self):
        store = ColumnBlockStore()
        store.put("k", np.arange(4, dtype=np.float64))
        with pytest.raises(ImpressionError, match="spilled as"):
            store.read("k", np.int32, 4)
