"""Tests for impression hierarchies."""

import numpy as np
import pytest

from repro.columnstore.expressions import RadialPredicate
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.table import Table
from repro.core.engine import SciBorq
from repro.core.hierarchy import ImpressionHierarchy
from repro.core.impression import Impression
from repro.core.maintenance import refresh_hierarchy
from repro.errors import ImpressionError
from repro.sampling.reservoir import ReservoirR
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from table_helpers import table_from_arrays


@pytest.fixture
def base() -> Table:
    return table_from_arrays(
        "base", {"id": np.arange(10_000), "x": np.zeros(10_000)}
    )


def make_layer(capacity: int, base: Table, seed: int, columns=None) -> Impression:
    sampler = ReservoirR(capacity, rng=seed)
    sampler.offer_batch(np.arange(base.num_rows))
    return Impression(f"base/L{capacity}", "base", sampler, columns=columns)


@pytest.fixture
def hierarchy(base) -> ImpressionHierarchy:
    layers = [make_layer(c, base, i) for i, c in enumerate((1000, 100, 10))]
    return ImpressionHierarchy("base/h", "base", layers)


class TestConstruction:
    def test_layers_ordered_and_indexed(self, hierarchy):
        assert hierarchy.depth == 3
        assert [l.capacity for l in hierarchy.layers] == [1000, 100, 10]
        assert [l.layer for l in hierarchy.layers] == [0, 1, 2]

    def test_requires_layers(self):
        with pytest.raises(ImpressionError, match="at least one"):
            ImpressionHierarchy("h", "base", [])

    def test_rejects_non_decreasing_capacities(self, base):
        layers = [make_layer(100, base, 0), make_layer(100, base, 1)]
        with pytest.raises(ImpressionError, match="strictly decrease"):
            ImpressionHierarchy("h", "base", layers)

    def test_rejects_foreign_layers(self, base):
        stranger = Impression("other/L0", "other", ReservoirR(10, rng=0))
        with pytest.raises(ImpressionError, match="samples"):
            ImpressionHierarchy("h", "base", [stranger])


class TestIteration:
    def test_from_smallest(self, hierarchy):
        sizes = [l.capacity for l in hierarchy.from_smallest()]
        assert sizes == [10, 100, 1000]

    def test_from_largest(self, hierarchy):
        sizes = [l.capacity for l in hierarchy.layers]
        assert sizes == [1000, 100, 10]
        assert list(reversed(hierarchy.layers)) == list(hierarchy.from_smallest())

    def test_layer_lookup(self, hierarchy):
        assert hierarchy.layer(0).capacity == 1000
        with pytest.raises(ImpressionError, match="no layer"):
            hierarchy.layer(5)


class TestCandidates:
    def test_all_layers_for_full_columns(self, hierarchy, base):
        q = Query(table="base", aggregates=[AggregateSpec("avg", "x")])
        candidates = hierarchy.candidates_for(q, base)
        assert [c.capacity for c in candidates] == [10, 100, 1000]

    def test_column_subset_layers_excluded(self, base):
        layers = [
            make_layer(1000, base, 0),
            make_layer(100, base, 1, columns=("id",)),  # no 'x'
        ]
        hierarchy = ImpressionHierarchy("h", "base", layers)
        q = Query(table="base", aggregates=[AggregateSpec("avg", "x")])
        candidates = hierarchy.candidates_for(q, base)
        assert [c.capacity for c in candidates] == [1000]


class TestBudgetSelection:
    def test_describe_mentions_layers(self, hierarchy):
        text = hierarchy.describe()
        assert "layer 0" in text and "layer 2" in text


class TestLadderSizes:
    """Sizes never decrease along :meth:`ImpressionHierarchy.
    candidates_for`: the ladder runs cheapest-first and every sampler
    fills before it replaces.  The bounded climb relies on it — with no
    rung answered yet, the rung at hand is the smallest, so it runs
    whatever it costs."""

    @pytest.mark.parametrize("policy", ["uniform", "biased", "last-seen"])
    def test_sizes_never_decrease_along_the_ladder(self, policy):
        engine = SciBorq(
            create_skyserver_catalog(),
            interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
            rng=5,
        )
        hierarchy = engine.create_hierarchy(
            "PhotoObjAll",
            policy=policy,
            layer_sizes=(2_000, 500, 100),
            daily_ingest=300 if policy == "last-seen" else None,
        )
        query = Query(
            table="PhotoObjAll",
            predicate=RadialPredicate("ra", "dec", 150.0, 10.0, 5.0),
            aggregates=[AggregateSpec("count")],
        )

        def ladder():
            base = engine.catalog.table("PhotoObjAll")
            return [i.size for i in hierarchy.candidates_for(query, base)]

        # the first load fills the smallest layer and part of the others
        build_skyserver(300, generator=SkyGenerator(rng=6), loader=engine.loader)
        seen = [ladder()]
        generator = SkyGenerator(rng=7)
        for count in (150, 1_000, 4_000):
            engine.ingest("PhotoObjAll", generator.photoobj_batch(count))
            seen.append(ladder())
        refresh_hierarchy(hierarchy, engine.catalog.table("PhotoObjAll"))
        seen.append(ladder())
        assert seen[0][0] == 100 and seen[0][-1] < 2_000, seen
        for sizes in seen:
            assert len(sizes) == 3 and sizes == sorted(sizes), seen
