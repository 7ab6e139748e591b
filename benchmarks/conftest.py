"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper artefact (see the README's
"Layout of claims to evidence") and *prints* the corresponding
rows/series — run with ``-s`` to see them.
Shape assertions inside the benchmarks encode the qualitative claims
("who wins, by roughly what factor"), so a green benchmark run is
itself the reproduction check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import build_experiment_context
from repro.skyserver.schema import DEC_RANGE, RA_RANGE

#: The paper's Figure-7 scale: >600 000 base tuples, 10 000 per sample.
FIGURE7_BASE_ROWS = 600_000
FIGURE7_SAMPLE = 10_000


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, fixed-seed generator per benchmark."""
    return np.random.default_rng(13579)


@pytest.fixture(scope="session")
def medium_context():
    """200k-row uniform-hierarchy context shared by several benches."""
    return build_experiment_context(
        n_objects=200_000,
        policy="uniform",
        layer_sizes=(20_000, 2_000, 200),
        warmup_queries=0,
        rng=2024,
    )


@pytest.fixture(scope="session")
def figure7_samples():
    """Base data + 10k uniform and biased impressions at paper scale.

    Interest comes from a 400-query workload (the paper's Figure-4
    predicate sets feed its Figure-7 bias).
    """
    ctx = build_experiment_context(
        n_objects=FIGURE7_BASE_ROWS,
        policy="uniform",
        layer_sizes=(FIGURE7_SAMPLE, 1_000),
        warmup_queries=400,
        rng=31,
    )
    engine = ctx.engine
    base = {
        "ra": engine.catalog.table("PhotoObjAll")["ra"].copy(),
        "dec": engine.catalog.table("PhotoObjAll")["dec"].copy(),
    }
    uniform_layer = engine.hierarchy("PhotoObjAll").layer(0)
    uniform_ids = uniform_layer.row_ids
    uniform = {
        "ra": base["ra"][uniform_ids],
        "dec": base["dec"][uniform_ids],
    }
    engine.create_hierarchy(
        "PhotoObjAll", policy="biased", layer_sizes=(FIGURE7_SAMPLE, 1_000)
    )
    engine.rebuild("PhotoObjAll")
    biased_ids = engine.hierarchy("PhotoObjAll").layer(0).row_ids
    biased = {
        "ra": base["ra"][biased_ids],
        "dec": base["dec"][biased_ids],
    }
    domains = {"ra": RA_RANGE, "dec": DEC_RANGE}
    interest = {
        attr: engine.interest.interest_for(attr) for attr in ("ra", "dec")
    }
    return {
        "engine": engine,
        "context": ctx,
        "base": base,
        "uniform": uniform,
        "biased": biased,
        "domains": domains,
        "interest": interest,
    }
