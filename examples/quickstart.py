"""Quickstart: build a synthetic SkyServer, ask bounded questions.

Run:  python examples/quickstart.py

Covers the core loop in ~40 lines of user code: create the engine,
declare a hierarchy of impressions, load data (impressions build
during the load), then query with an error bound and watch the engine
escalate layers until the bound holds.
"""

from repro import AggregateSpec, Contract, Query, RadialPredicate, SciBorq
from repro.skyserver import build_skyserver, create_skyserver_catalog
from repro.skyserver.schema import DEC_RANGE, RA_RANGE


def main() -> None:
    # 1. An engine over the SkyServer schema; ra/dec are the
    #    attributes of scientific interest (paper §4).
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=42,
    )

    # 2. Three impression layers: memory-sized, cache-sized, tiny.
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(20_000, 2_000, 200)
    )

    # 3. Load 200k synthetic observations; every batch streams through
    #    the impression builders on its way into the base table.
    build_skyserver(200_000, loader=engine.loader, rng=43)
    print(engine.report().render())
    print()

    # 4. A cone search near a known cluster, with a 5% error bound.
    query = Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", 150.0, 10.0, 4.0),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "r_mag")],
    )
    result = engine.execute(query, Contract.within_error(0.05))
    print("--- bounded execution trace ---")
    print(result.describe())
    print()
    print("--- answer ---")
    print(result.result.describe())
    print()

    # 5. Compare with the exact (full-scan) answer.
    exact = engine.execute_exact(query)
    print("--- exact answer (full scan) ---")
    for name, value in exact.scalars.items():
        print(f"  {name} = {value:.6g}")
    print(f"  cost: {exact.stats.total_cost} tuples touched")


if __name__ == "__main__":
    main()
