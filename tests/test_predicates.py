"""Tests for predicate-set extraction."""

import numpy as np
import pytest

from repro.columnstore.expressions import Between, RadialPredicate, col_eq
from repro.columnstore.query import Query
from repro.workload.predicates import PredicateSetCollector


def cone(ra: float, dec: float) -> Query:
    return Query(table="t", predicate=RadialPredicate("ra", "dec", ra, dec, 2.0))


class TestCollection:
    def test_whitelisted_attributes_only(self):
        collector = PredicateSetCollector(("ra", "dec"))
        collector.observe(
            Query(
                table="t",
                predicate=RadialPredicate("ra", "dec", 185, 0, 2)
                & col_eq("metadata_flag", 7),
            )
        )
        np.testing.assert_array_equal(collector.values("ra"), [185.0])
        np.testing.assert_array_equal(collector.values("dec"), [0.0])
        with pytest.raises(KeyError, match="not a collected attribute"):
            collector.values("metadata_flag")

    def test_accumulates_across_queries(self):
        collector = PredicateSetCollector(("ra",))
        for ra in (150.0, 151.0, 152.0):
            collector.observe(cone(ra, 0.0))
        np.testing.assert_array_equal(collector.values("ra"), [150, 151, 152])
        assert collector.predicate_set_size("ra") == 3
        assert collector.queries_observed == 3

    def test_observe_returns_extracted(self):
        collector = PredicateSetCollector(("ra",))
        extracted = collector.observe(cone(185.0, 0.0))
        assert list(extracted) == ["ra"]

    def test_queries_without_interesting_predicates(self):
        collector = PredicateSetCollector(("ra",))
        collector.observe(Query(table="t", predicate=Between("mjd", 0, 1)))
        assert collector.predicate_set_size("ra") == 0

    def test_observe_all(self, workload):
        collector = PredicateSetCollector(("ra", "dec"))
        for query in workload.queries(50):
            collector.observe(query)
        assert collector.queries_observed == 50
        assert collector.predicate_set_size("ra") > 0

    def test_requires_attributes(self):
        with pytest.raises(ValueError, match="at least one"):
            PredicateSetCollector(())


class TestConsumers:
    def test_consumers_see_each_extraction(self):
        collector = PredicateSetCollector(("ra",))
        seen = []
        collector.subscribe(lambda attr, values: seen.append((attr, values.tolist())))
        collector.observe(cone(185.0, 0.0))
        assert seen == [("ra", [185.0])]
