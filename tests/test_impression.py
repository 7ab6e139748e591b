"""Tests for Impression objects."""

import numpy as np
import pytest

from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.table import Table
from repro.core.impression import PI_COLUMN, Impression
from repro.errors import ImpressionError
from repro.sampling.reservoir import ReservoirR
from table_helpers import table_from_arrays


@pytest.fixture
def base() -> Table:
    return table_from_arrays(
        "base",
        {
            "id": np.arange(1000),
            "x": np.linspace(0, 1, 1000),
            "y": np.linspace(10, 20, 1000),
        },
    )


@pytest.fixture
def impression(base) -> Impression:
    sampler = ReservoirR(100, rng=0)
    sampler.offer_batch(np.arange(base.num_rows))
    return Impression("base/test/L0", "base", sampler)


class TestConstruction:
    def test_metadata(self, impression):
        assert impression.capacity == 100
        assert impression.size == 100
        assert impression.layer == 0

    def test_name_required(self):
        with pytest.raises(ImpressionError, match="non-empty"):
            Impression("", "base", ReservoirR(10))

    def test_negative_layer_rejected(self):
        with pytest.raises(ImpressionError, match="layer"):
            Impression("i", "base", ReservoirR(10), layer=-1)


class TestMaterialise:
    def test_contains_sampled_rows_and_pi(self, base, impression):
        table = impression.materialise(base)
        assert table.num_rows == 100
        assert PI_COLUMN in table.column_names
        np.testing.assert_array_equal(
            np.sort(table["id"]), np.sort(impression.row_ids)
        )
        np.testing.assert_allclose(table[PI_COLUMN], 0.1)

    def test_cache_hit_returns_same_object(self, base, impression):
        assert impression.materialise(base) is impression.materialise(base)

    def test_cache_invalidated_by_sampler_progress(self, base, impression):
        first = impression.materialise(base)
        base.append_batch({"id": [1000], "x": [0.5], "y": [15.0]})
        impression.sampler.offer_batch(np.array([1000]))
        second = impression.materialise(base)
        assert second is not first

    def test_column_subset(self, base):
        sampler = ReservoirR(50, rng=1)
        sampler.offer_batch(np.arange(1000))
        imp = Impression("i", "base", sampler, columns=("x",))
        table = imp.materialise(base)
        assert table.column_names == ["x", PI_COLUMN]

    def test_stale_row_ids_detected(self, base):
        sampler = ReservoirR(10, rng=2)
        sampler.offer_batch(np.arange(5000))  # ids beyond base!
        imp = Impression("i", "base", sampler)
        with pytest.raises(ImpressionError, match="beyond"):
            imp.materialise(base)


class TestCovers:
    def test_full_impression_covers_base_columns(self, base, impression):
        q = Query(table="base", aggregates=[AggregateSpec("avg", "x")])
        assert impression.covers(q, base)

    def test_wrong_table_not_covered(self, base, impression):
        q = Query(table="other")
        assert not impression.covers(q, base)

    def test_column_subset_limits_coverage(self, base):
        sampler = ReservoirR(50, rng=3)
        sampler.offer_batch(np.arange(1000))
        imp = Impression("i", "base", sampler, columns=("x",))
        assert imp.covers(Query(table="base", aggregates=[AggregateSpec("avg", "x")]), base)
        assert not imp.covers(
            Query(table="base", aggregates=[AggregateSpec("avg", "y")]), base
        )


class TestInclusionOverride:
    def test_override_roundtrip(self, base, impression):
        override = np.full(impression.size, 0.05)
        impression.set_inclusion_override(override)
        np.testing.assert_array_equal(
            impression.inclusion_probabilities(), override
        )
        impression.set_inclusion_override(None)
        np.testing.assert_allclose(impression.inclusion_probabilities(), 0.1)

    def test_override_length_checked(self, impression):
        with pytest.raises(ImpressionError, match="length"):
            impression.set_inclusion_override(np.ones(3))

    def test_override_invalidates_cache(self, base, impression):
        first = impression.materialise(base)
        impression.set_inclusion_override(np.full(impression.size, 0.5))
        second = impression.materialise(base)
        assert second is not first
        np.testing.assert_allclose(second[PI_COLUMN], 0.5)

    def test_memory_bytes_positive(self, base, impression):
        assert impression.memory_bytes(base) > 0
