"""Runtime and quality bounds in action (paper §3.2).

Run:  python examples/bounded_exploration.py

Demonstrates both halves of "Bounds On Runtime and Quality":

* quality-bounded: sweep the error bound from loose to zero and watch
  execution escalate layer by layer down to the base columns;
* time-bounded: "give me the most representative result you can
  obtain within <budget>" — sweep budgets and watch the achieved
  error fall as the budget rises;
* strict mode: contracts that raise instead of degrading.
"""

from repro import AggregateSpec, Contract, Query, RadialPredicate, SciBorq
from repro.errors import QualityBoundError
from repro.skyserver import build_skyserver, create_skyserver_catalog
from repro.skyserver.schema import DEC_RANGE, RA_RANGE
from repro.util.textplot import format_table


def main() -> None:
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=17,
    )
    engine.create_hierarchy(
        "PhotoObjAll", policy="uniform", layer_sizes=(40_000, 4_000, 400)
    )
    build_skyserver(400_000, loader=engine.loader, rng=18)

    query = Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", 205.0, 40.0, 5.0),
        aggregates=[AggregateSpec("count")],
    )
    processor = engine.processor("PhotoObjAll")

    # --- error-bound sweep --------------------------------------------
    print("=== quality-bounded: error target sweep ===")
    rows = []
    for target in (0.5, 0.1, 0.05, 0.01, 0.0):
        outcome = processor.execute(query, Contract.within_error(target))
        rows.append(
            [
                target,
                outcome.attempts[-1].source,
                len(outcome.attempts),
                outcome.total_cost,
                outcome.achieved_error,
            ]
        )
    print(
        format_table(
            ["target", "answered from", "attempts", "cost", "achieved"], rows
        )
    )
    print()

    # --- time-budget sweep ----------------------------------------------
    print("=== time-bounded: budget sweep (cost units = tuples touched) ===")
    rows = []
    for budget in (500, 5_000, 50_000, 500_000, 2_000_000):
        outcome = processor.execute(
            query,
            Contract.within_error(0.0) & Contract.within_budget(budget),
        )
        rows.append(
            [
                budget,
                outcome.total_cost,
                outcome.achieved_error,
                "yes" if outcome.met_budget else "NO",
            ]
        )
    print(format_table(["budget", "spent", "achieved error", "in budget"], rows))
    print()

    # --- strict contracts ------------------------------------------------
    print("=== strict mode ===")
    try:
        processor.execute(
            query,
            (
                Contract.within_error(0.001) & Contract.within_budget(2_000)
            ).strictly(),
        )
    except QualityBoundError as error:
        print(f"  refused as promised: {error}")


if __name__ == "__main__":
    main()
