"""Tests for the impression builder riding the load pipeline."""

import numpy as np
import pytest

from repro.columnstore.catalog import Catalog
from repro.columnstore.loader import Loader
from repro.columnstore.table import Table
from repro.core.builder import ImpressionBuilder
from repro.core.impression import Impression
from repro.core.policy import UniformPolicy, build_hierarchy
from repro.sampling.biased import BiasedReservoir
from repro.sampling.reservoir import ReservoirR


@pytest.fixture
def setting():
    catalog = Catalog()
    catalog.add_table(Table("t", {"id": "int64", "x": "float64"}))
    loader = Loader(catalog)
    builder = ImpressionBuilder({"x": (0.0, 1.0)})
    loader.register("t", builder)
    return catalog, loader, builder


def load(loader, n, start=0):
    loader.load_batch(
        "t",
        {
            "id": np.arange(start, start + n),
            "x": np.linspace(0, 1, n),
        },
    )


class TestCells:
    def test_rows_are_keyed_from_the_batch_and_shared_by_attached_impressions(
        self, setting
    ):
        _, loader, builder = setting
        first, second = (
            Impression(f"t/u/L{i}", "t", ReservoirR(8, rng=i)) for i in range(2)
        )
        builder.attach(first)
        builder.attach(second)
        load(loader, 5)
        cells = builder.cells_of("t")
        assert first.cells is cells and second.cells is cells
        # one interest attribute: 256 slices of x's domain
        np.testing.assert_array_equal(cells.of(np.arange(5)), [0, 64, 128, 192, 255])
        assert builder.cells_of("other").of(np.arange(3)).tolist() == [0, 0, 0]


class TestRouting:
    def test_impressions_fed_during_load(self, setting):
        catalog, loader, builder = setting
        imp = Impression("t/u/L0", "t", ReservoirR(50, rng=0))
        builder.attach(imp)
        load(loader, 500)
        assert imp.sampler.seen == 500
        assert imp.size == 50
        assert builder.tuples_processed == 500

    def test_hierarchy_attach_feeds_every_layer(self, setting):
        catalog, loader, builder = setting
        hierarchy = build_hierarchy("t", UniformPolicy(layer_sizes=(100, 10)), rng=1)
        builder.attach_hierarchy(hierarchy)
        load(loader, 1000)
        assert all(l.sampler.seen == 1000 for l in hierarchy.layers)

    def test_row_ids_match_base_positions(self, setting):
        catalog, loader, builder = setting
        imp = Impression("t/u/L0", "t", ReservoirR(20, rng=2))
        builder.attach(imp)
        load(loader, 100)
        load(loader, 100, start=100)
        base = catalog.table("t")
        ids = imp.row_ids
        np.testing.assert_array_equal(base["id"][ids], ids)

    def test_biased_sampler_receives_values(self, setting):
        catalog, loader, builder = setting
        seen_batches = []

        def mass(batch):
            seen_batches.append(sorted(batch))
            return np.ones(batch["x"].shape[0])

        imp = Impression("t/b/L0", "t", BiasedReservoir(10, mass, rng=3))
        builder.attach(imp)
        load(loader, 50)  # fills
        load(loader, 50, start=50)  # triggers mass computation
        assert seen_batches and seen_batches[0] == ["id", "x"]

    def test_detach_stops_feeding(self, setting):
        catalog, loader, builder = setting
        imp = Impression("t/u/L0", "t", ReservoirR(10, rng=4))
        builder.attach(imp)
        builder.detach(imp)
        load(loader, 100)
        assert imp.sampler.seen == 0

    def test_unrelated_tables_ignored(self, setting):
        catalog, loader, builder = setting
        catalog.add_table(Table("u", {"id": "int64"}))
        imp = Impression("t/u/L0", "t", ReservoirR(10, rng=5))
        builder.attach(imp)
        loader.load_batch("u", {"id": np.arange(10)})
        assert imp.sampler.seen == 0
