"""A rung with no match does not settle as an exact zero.

SkyServer's ``fGetNearbyObjEq`` (paper §2.1) asks for arcminute cones,
so a selective cone can hold no row of the smallest impression.  A
normal interval over no match has zero width, and the ladder would
take ``0 ± 0`` as meeting any error bound.  The estimators give such a
sample an exact one-sided bound instead (``Estimate.one_sided_bound``),
so the zero has an infinite relative error and the ladder climbs.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.stats.estimators import ht_count, ht_sum, srs_count, srs_sum

ROWS = 20_000


@functools.cache
def engine() -> SciBorq:
    """A uniform engine whose smallest rung (200 rows) misses most
    sub-degree cones."""
    built = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=3,
    )
    built.create_hierarchy("PhotoObjAll", policy="uniform", layer_sizes=(5_000, 1_000, 200))
    build_skyserver(ROWS, generator=SkyGenerator(rng=4), loader=built.loader)
    return built


def count_cone(row: int, radius: float) -> Query:
    """A ``count`` cone centred 0.5° in ra off base row ``row``."""
    base = engine().catalog.table("PhotoObjAll")
    return Query(
        table="PhotoObjAll",
        predicate=RadialPredicate(
            "ra", "dec", float(base["ra"][row]) + 0.5, float(base["dec"][row]), radius
        ),
        aggregates=[AggregateSpec("count")],
    )


@given(row=st.integers(0, ROWS - 1), radius=st.floats(0.01, 0.2))
@settings(max_examples=60, deadline=None)
def test_a_selective_count_never_settles_on_a_false_zero_width_interval(row, radius):
    query = count_cone(row, radius)
    truth = engine().execute(query, Contract.exact()).result.estimates["count(*)"].value
    outcome = engine().execute(query, Contract.within_error(0.05))
    estimate = outcome.result.estimates["count(*)"]
    if outcome.met_quality and estimate.half_width == 0.0:
        assert estimate.value == truth, (
            f"settled {estimate} on {outcome.attempts[-1].source}, truth {truth}"
        )


class TestNoSpreadBound:
    def test_no_match_has_the_rule_of_three_upper_end(self):
        estimate = srs_count(0, 2_000, 200_000)
        assert estimate.value == 0.0 and estimate.se == 0.0
        assert estimate.half_width == pytest.approx(3 * 200_000 / 2_000, rel=0.01)
        assert estimate.relative_error == np.inf

    def test_every_row_matching_bounds_the_count_from_below(self):
        estimate = srs_count(500, 500, 50_000, confidence=0.99)
        # 0.01 ** (1 / 500): the Clopper–Pearson end for 500 of 500
        low = 50_000 * 0.01 ** (1 / 500)
        assert estimate.ci[0] == pytest.approx(low)
        assert 0.0 < estimate.relative_error < 0.01

    def test_a_sample_of_the_whole_population_stays_exact(self):
        assert srs_count(0, 1_000, 1_000).half_width == 0.0
        assert srs_sum(np.array([]), 1_000, 1_000).half_width == 0.0

    def test_sums_and_biased_samples_over_no_match_are_unbounded(self):
        for estimate in (
            srs_sum(np.array([]), 2_000, 200_000),
            ht_sum(np.array([]), np.array([])),
            ht_count(np.array([]), population_size=200_000),
        ):
            assert estimate.value == 0.0 and estimate.relative_error == np.inf
