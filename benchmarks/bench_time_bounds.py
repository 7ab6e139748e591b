"""E6 — §3.2 claim: time-bounded answering — "give me the most
representative result you can obtain within 5 minutes."

Sweep the cost budget and print, per budget, the cost actually spent
and the achieved error.  Shape checks: spending respects the budget
(up to the mandatory smallest-layer answer), quality improves
monotonically with budget, and an unbounded budget reaches exactness.
"""

import numpy as np

from repro.columnstore import AggregateSpec, Query
from repro.columnstore.expressions import RadialPredicate
from repro.core.contracts import Contract

BUDGETS = (300, 3_000, 30_000, 300_000, None)


def test_quality_vs_time_budget(benchmark, medium_context):
    engine = medium_context.engine
    processor = engine.processor("PhotoObjAll")
    query = Query(
        table="PhotoObjAll",
        predicate=RadialPredicate("ra", "dec", 150.0, 10.0, 5.0),
        aggregates=[AggregateSpec("count")],
    )

    def run():
        rows = []
        for budget in BUDGETS:
            outcome = processor.execute(
                query,
                Contract(max_relative_error=0.0, time_budget=budget),
            )
            rows.append(
                (
                    budget if budget is not None else float("inf"),
                    outcome.total_cost,
                    outcome.achieved_error,
                    outcome.met_budget,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=2, iterations=1)

    print("== E6: achieved error vs cost budget ==")
    print("  budget     spent      achieved   met-budget")
    for budget, spent, achieved, met in rows:
        print(f"  {budget:<10g} {spent:<10g} {achieved:<10.4g} {met}")

    budgets = np.array([r[0] for r in rows])
    spent = np.array([r[1] for r in rows])
    achieved = np.array([r[2] for r in rows])

    # more budget -> more spend allowed -> error never increases
    assert (np.diff(achieved) <= 1e-12).all()
    # unbounded budget reaches the exact answer
    assert achieved[-1] == 0.0
    # bounded budgets (beyond the smallest-layer floor) are respected
    for budget, cost in zip(budgets[1:-1], spent[1:-1]):
        assert cost <= budget
