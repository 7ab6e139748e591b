"""The ladder dump: every number a bounded execution reports, as text.

Two slivers x delta/scratch x three budgets, run on a nested ladder
and again after an ingest has made every cached table stale, on hot
data.  ``tests/data/ladder_dump.json`` holds what this module printed
once derived tables' zones were sized by their share of the base;
``tests/test_lazy_impressions.py`` holds the current code to it, float
for float (``float.hex``).  ``tests/data/ladder_dump_64_zones.json`` is
the dump from when every derived table had 64 zones of at least 1 024
rows, which ``tests/test_base_cover.py`` holds the current dump to:
every answer identical, no charge higher.
``tests/data/ladder_dump_load_order_base.json``
is the dump from when every base rung scanned the base in load order,
which ``tests/test_base_cover.py`` holds the cover to: every answer
identical, no charge higher.  ``tests/data/ladder_dump_id_order.json`` is
the dump of the last row-id-ordered layout (unchanged since the eager
materialisation), which ``tests/test_cell_layout.py`` holds the cell
layout to: the same counts, answers within 1e-12, no charge higher.
Regenerate only when answers are meant to change::

    PYTHONPATH=<checkout>/src python tests/ladder_dump.py > tests/data/ladder_dump.json
"""

from __future__ import annotations

import json

import numpy as np

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import Between, RadialPredicate
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog

TABLE = "PhotoObjAll"
ROWS = 30_000
LAYERS = (6_000, 1_500, 300)
INGEST_ROWS = 2_000
BUDGETS = {
    "tight": Contract(time_budget=150),
    "hybrid": Contract(max_relative_error=0.02, time_budget=9_000),
    "error-only": Contract.within_error(1e-9),
}


def _hex(value):
    return None if value is None else float(value).hex()


def _estimate(estimate) -> dict:
    return {
        "value": _hex(estimate.value),
        "se": _hex(estimate.se),
        "value_error": _hex(estimate.value_error),
        "method": estimate.method,
        "sample_size": int(estimate.sample_size),
    }


def _attempt(attempt) -> dict:
    return {
        "source": attempt.source,
        "rows": int(attempt.rows),
        "cost": _hex(attempt.cost),
        "relative_error": _hex(attempt.relative_error),
        "satisfied": bool(attempt.satisfied),
        "delta_rows": attempt.delta_rows,
    }


def _answer(result) -> dict | None:
    if result is None:
        return None
    return {
        "source": result.source,
        "exact": bool(result.exact),
        "estimates": {n: _estimate(e) for n, e in (result.estimates or {}).items()},
        "operators": [
            [op.operator, int(op.tuples_in), int(op.tuples_out)]
            for op in result.stats.operators
        ],
        "charged": _hex(result.stats.charged),
    }


def _run(processor: BoundedQueryProcessor, query: Query, contract: Contract) -> dict:
    stream = processor.run(query, contract)
    updates = []
    while True:
        try:
            update = next(stream)
        except StopIteration as stop:
            outcome = stop.value
            break
        updates.append(
            {
                "rung": update.rung,
                "source": update.source,
                "answer": _answer(update.result),
                "achieved_error": _hex(update.achieved_error),
                "best_error": _hex(update.best_error),
                "satisfied": bool(update.satisfied),
                "spent": _hex(update.spent),
                "remaining": _hex(update.remaining),
                "attempt": _attempt(update.attempt),
            }
        )
    return {
        "updates": updates,
        "attempts": [_attempt(a) for a in outcome.attempts],
        "answer": _answer(outcome.result),
        "met_quality": bool(outcome.met_quality),
        "met_budget": bool(outcome.met_budget),
        "total_cost": _hex(outcome.total_cost),
    }


def _slivers(engine: SciBorq) -> dict:
    """A sliver of ``ra`` the smallest layer holds no row of, and a cone
    every layer holds some of."""
    base = engine.catalog.table(TABLE)
    smallest = engine.hierarchy(TABLE).layers[-1]
    sampled = set(smallest.row_ids.tolist())
    order = np.argsort(base["ra"], kind="stable")
    start = next(
        i
        for i in range(len(order) - 2)
        if not sampled & set(order[i : i + 3].tolist())
    )
    return {
        "unsampled": Query(
            table=TABLE,
            predicate=Between(
                "ra", base["ra"][order[start]], base["ra"][order[start + 2]]
            ),
            aggregates=[AggregateSpec("avg", "r_mag")],
        ),
        "cone": Query(
            table=TABLE,
            predicate=RadialPredicate("ra", "dec", 185.0, 30.0, 6.0),
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
        ),
    }


def dump() -> dict:
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=61,
    )
    engine.create_hierarchy(TABLE, policy="uniform", layer_sizes=LAYERS)
    generator = SkyGenerator(rng=62)
    build_skyserver(ROWS, generator=generator, loader=engine.loader)
    engine.refresh(TABLE)  # nested: delta rungs really are deltas
    cases = {}
    for state in ("nested", "after-ingest"):
        slivers = _slivers(engine)
        for sliver, query in slivers.items():
            for mode in ("delta", "scratch"):
                processor = BoundedQueryProcessor(
                    engine.catalog,
                    engine.hierarchy(TABLE),
                    delta_escalation=mode == "delta",
                )
                for budget, contract in BUDGETS.items():
                    cases[f"{state}/{sliver}/{mode}/{budget}"] = _run(
                        processor, query, contract
                    )
        engine.ingest(TABLE, generator.photoobj_batch(INGEST_ROWS))
    return cases


if __name__ == "__main__":
    print(json.dumps(dump(), indent=1, sort_keys=True))
