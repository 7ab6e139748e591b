"""Shared fixtures: small, seeded SkyServer instances and engines.

Sizes are kept small (tens of thousands of rows) so the whole suite
runs in seconds; statistical assertions use tolerances appropriate to
those sizes and fixed seeds so they are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore import Catalog, Loader, Table
from repro.columnstore.column import Column
from repro.core.engine import SciBorq
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.skyserver.workload_gen import WorkloadGenerator


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, fixed-seed generator per test."""
    return np.random.default_rng(987654321)


@pytest.fixture
def small_catalog() -> Catalog:
    """A two-table toy catalog: fact(id, x, grp) + dim(grp, label)."""
    catalog = Catalog()
    fact = Table("fact", {"id": "int64", "x": "float64", "grp": "int64"})
    dim = Table("dim", {"grp": "int64", "label_code": "int64"})
    catalog.add_table(fact)
    catalog.add_table(dim)
    loader = Loader(catalog)
    gen = np.random.default_rng(7)
    n = 1000
    loader.load_batch(
        "fact",
        {
            "id": np.arange(n),
            "x": gen.normal(10.0, 2.0, n),
            "grp": gen.integers(0, 8, n),
        },
    )
    loader.load_batch(
        "dim",
        {"grp": np.arange(8), "label_code": np.arange(8) * 100},
    )
    return catalog


@pytest.fixture(scope="session")
def sky_engine() -> SciBorq:
    """A populated SkyServer engine with a uniform hierarchy.

    Session-scoped: building 60k rows once keeps the suite fast.
    Tests must not mutate it (use ``fresh_sky_engine`` for that).
    """
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=101,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(10_000, 1_000, 100)
    )
    build_skyserver(
        60_000, generator=SkyGenerator(rng=102), loader=engine.loader
    )
    return engine


@pytest.fixture
def fresh_sky_engine() -> SciBorq:
    """A smaller, function-scoped engine safe to mutate."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=201,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(5_000, 500)
    )
    build_skyserver(
        30_000, generator=SkyGenerator(rng=202), loader=engine.loader
    )
    return engine


@pytest.fixture
def workload() -> WorkloadGenerator:
    """A seeded default workload generator."""
    return WorkloadGenerator(rng=303)


@pytest.fixture
def gathered(monkeypatch) -> list[str]:
    """Names of the columns ``Column.gather_with_error`` is asked for,
    in order — every gather, raw (a derived table's first touch) or
    not (a working set's ``take``, a fold's carried values); the width
    guards count these."""
    names: list[str] = []
    original = Column.gather_with_error

    def counting(self, indices, raw=False):
        names.append(self.name)
        return original(self, indices, raw)

    monkeypatch.setattr(Column, "gather_with_error", counting)
    return names
