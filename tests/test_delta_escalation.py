"""Delta escalation: pay only for the rows each rung adds.

Covers the row-level fold state (:mod:`repro.columnstore.aggstate`),
the impression-level delta/complement machinery, and the bounded
processor's incremental ladder: folded delta scans must equal
from-scratch recomputation, the execution context must be charged only
delta rows on nested ladders, and non-nested hierarchies must fall
back to from-scratch scans with identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore.aggstate import FoldState
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.expressions import Between, TruePredicate
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.table import Table
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.impression import PI_COLUMN
from repro.core.maintenance import rebuild_from_base, refresh_hierarchy
from repro.core.policy import BiasedPolicy, UniformPolicy, build_hierarchy
from repro.errors import ImpressionError, QueryError
from repro.workload.interest import InterestModel


# ----------------------------------------------------------------------
# the fold state
# ----------------------------------------------------------------------
class TestFoldState:
    def test_fold_keeps_sorted_invariant(self):
        a = FoldState.from_scan(
            np.array([7, 2, 9]), {"v": np.array([70.0, 20.0, 90.0])}, 10
        )
        b = FoldState.from_scan(
            np.array([5, 1]), {"v": np.array([50.0, 10.0])}, 4
        )
        merged = a.fold(b)
        np.testing.assert_array_equal(merged.row_ids, [1, 2, 5, 7, 9])
        np.testing.assert_array_equal(
            merged.columns["v"], [10.0, 20.0, 50.0, 70.0, 90.0]
        )
        assert merged.scanned_rows == 14
        assert merged.matched == 5

    def test_fold_rejects_mismatched_columns(self):
        a = FoldState.from_scan(np.array([1]), {"v": np.array([1.0])}, 1)
        b = FoldState.from_scan(np.array([2]), {"w": np.array([2.0])}, 1)
        with pytest.raises(QueryError):
            a.fold(b)


# ----------------------------------------------------------------------
# impression-level deltas
# ----------------------------------------------------------------------
def _nested_setup(n=6_000, layer_sizes=(3_000, 1_500, 700), seed=11):
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.add_table(
        Table(
            "T",
            [
                Column("x", "float64", rng.uniform(0.0, 100.0, n)),
                Column("v", "float64", rng.lognormal(1.0, 0.5, n)),
                Column("g", "int64", rng.integers(0, 4, n)),
            ],
        )
    )
    base = catalog.table("T")
    hierarchy = build_hierarchy(
        "T", UniformPolicy(layer_sizes=layer_sizes), rng=seed + 1
    )
    rebuild_from_base(hierarchy, base)
    refresh_hierarchy(hierarchy, base)  # makes upper layers nested
    return catalog, base, hierarchy


class TestImpressionDeltas:
    def test_nested_delta_is_exact_set_difference(self):
        _, _, hierarchy = _nested_setup()
        small, large = hierarchy.layer(2), hierarchy.layer(1)
        delta = large.delta_row_ids(small)
        assert delta is not None
        assert np.all(np.diff(delta) > 0)  # sorted, unique
        expected = np.setdiff1d(large.row_ids, small.row_ids)
        np.testing.assert_array_equal(delta, expected)
        assert set(small.row_ids) | set(delta) == set(large.row_ids)

    def test_non_nested_returns_none(self):
        catalog, base, _ = _nested_setup()
        independent = build_hierarchy(
            "T", UniformPolicy(layer_sizes=(3_000, 700)), rng=99
        )
        rebuild_from_base(independent, base)  # layers sampled independently
        small, large = independent.layer(1), independent.layer(0)
        assert large.delta_row_ids(small) is None
        assert not independent.is_nested()

    def test_hierarchy_escalation_deltas(self):
        _, _, hierarchy = _nested_setup()
        deltas = hierarchy.escalation_deltas()
        sizes = [imp.size for imp in hierarchy.from_smallest()]
        assert deltas[0] == sizes[0]
        assert all(d is not None for d in deltas)
        assert hierarchy.is_nested()
        for k in range(1, len(sizes)):
            assert deltas[k] == sizes[k] - sizes[k - 1]

    def test_materialise_delta_carries_current_pis(self):
        catalog, base, hierarchy = _nested_setup()
        small, large = hierarchy.layer(2), hierarchy.layer(1)
        delta_table = large.materialise_delta(base, small)
        delta = large.delta_row_ids(small)
        np.testing.assert_array_equal(delta_table.row_ids, delta)
        assert delta_table.num_rows == delta.shape[0]
        np.testing.assert_array_equal(delta_table["x"], base["x"][delta])
        expected_pis = large.materialise(base)[PI_COLUMN][large.positions_of(delta)]
        np.testing.assert_array_equal(delta_table[PI_COLUMN], expected_pis)

    def test_complement_partitions_base(self):
        catalog, base, hierarchy = _nested_setup()
        top = hierarchy.layer(0)
        table = top.materialise_complement(base)
        complement = table.row_ids
        assert complement.shape[0] == base.num_rows - top.size
        assert np.intersect1d(complement, top.row_ids).size == 0
        assert table.num_rows == complement.shape[0]
        np.testing.assert_array_equal(table["v"], base["v"][complement])

    def test_positions_of_rejects_foreign_rows(self):
        _, _, hierarchy = _nested_setup()
        small = hierarchy.layer(2)
        missing = np.setdiff1d(
            np.arange(10_000), small.row_ids
        )[:3]
        with pytest.raises(ImpressionError):
            small.positions_of(missing)

    def test_memory_bytes_is_analytic(self, gathered):
        """Accounting never gathered: ``memory_bytes``, the memory report
        and a governor pass read resident columns and nothing else."""
        from repro.core.engine import SciBorq
        from repro.core.server import SciBorqServer

        catalog, base, hierarchy = _nested_setup()
        impression = hierarchy.layer(1)
        pi_bytes = 8 * impression.size
        # nothing materialised: nothing forced, the would-be _pi counted
        impression._invalidate()
        assert impression.memory_bytes(base) == pi_bytes
        assert impression._cached is None and gathered == []
        # a live table: its resident columns, _pi among them
        table = impression.materialise(base)
        assert impression.memory_bytes(base) == pi_bytes == table.nbytes()
        table.column("v")
        assert gathered == ["v"]
        assert [c.name for c in table.resident_columns()] == [PI_COLUMN, "v"]
        assert impression.memory_bytes(base) == pi_bytes + 8 * impression.size
        assert impression.memory_bytes(base) == table.nbytes()
        # a budgeted server: the install pass, a query epilogue and an
        # explicit pass demote base blocks — a rung table's blocks never
        # demote, its gathered columns may be dropped — and gather none
        rng = np.random.default_rng(3)
        catalog = Catalog()
        catalog.add_table(
            Table(
                "S",
                [
                    Column(n, "float64", rng.uniform(0.0, 100.0, 6_000), block_size=256)
                    for n in ("x", "v", "w")
                ],
            )
        )
        engine = SciBorq(catalog, interest_attributes={"x": (0.0, 100.0)}, rng=5)
        engine.create_hierarchy("S", policy="uniform", layer_sizes=(3_000, 700))
        for layer in engine.hierarchy("S").layers:
            layer.sampler.offer_batch(np.arange(6_000))
        query = Query(
            table="S",
            predicate=Between("x", 10.0, 60.0),
            aggregates=[AggregateSpec("avg", "v")],
        )
        engine.execute(query, Contract.within_error(1e-4))  # every rung gathered x, v
        top = engine.hierarchy("S").layer(0).cached_table()
        assert [c.name for c in top.resident_columns()] == [PI_COLUMN, "x", "v"]
        del gathered[:]
        budget = engine.memory_report()["ram_total"] // 3
        with SciBorqServer(engine, max_workers=1, memory_budget=budget) as server:
            governor = server.memory_governor
            assert governor.stats.demotions_warm > 0 and top.is_fully_hot
            assert not catalog.table("S").is_fully_hot
            assert gathered == []
            server.open_session().execute(query, Contract.within_error(0.5))
            assert set(gathered) <= {"x", "v", PI_COLUMN}  # the query's own reads
            del gathered[:]
            governor.enforce(engine)
            assert engine.memory_report()["ram_total"] == governor.stats.last_footprint
        assert gathered == []
        assert top.is_fully_hot
        assert [c.name for c in top.resident_columns()][0] == PI_COLUMN
        assert {c.name for c in top.resident_columns()} <= {PI_COLUMN, "x", "v"}

# ----------------------------------------------------------------------
# bounded execution: delta vs from-scratch recomputation
# ----------------------------------------------------------------------
def _assert_same_outcome(delta_outcome, scratch_outcome):
    assert len(delta_outcome.attempts) == len(scratch_outcome.attempts)
    for mine, theirs in zip(delta_outcome.attempts, scratch_outcome.attempts):
        assert mine.source == theirs.source
        assert mine.rows == theirs.rows
        assert mine.relative_error == theirs.relative_error
    a, b = delta_outcome.result, scratch_outcome.result
    assert a.exact == b.exact
    if a.estimates is not None:
        assert b.estimates is not None
        for name, estimate in a.estimates.items():
            assert estimate.value == b.estimates[name].value
            assert estimate.se == b.estimates[name].se
    if a.groups is not None:
        assert b.groups is not None
        assert a.groups.column_names == b.groups.column_names
        for name in a.groups.column_names:
            np.testing.assert_array_equal(a.groups[name], b.groups[name])
    if a.group_estimates is not None:
        for name, estimates in a.group_estimates.items():
            for mine, theirs in zip(estimates, b.group_estimates[name]):
                assert mine.value == theirs.value
                assert mine.se == theirs.se


FOLDABLE_FUNCTIONS = ("count", "sum", "avg", "min", "max", "var", "std")


def _random_query(rng) -> Query:
    if rng.random() < 0.3:
        predicate = TruePredicate()
    else:
        lo = float(rng.uniform(0, 80))
        predicate = Between("x", lo, lo + float(rng.uniform(5, 40)))
    fns = list(rng.choice(FOLDABLE_FUNCTIONS, size=rng.integers(1, 3), replace=False))
    aggregates = [
        AggregateSpec(fn, None if fn == "count" else "v") for fn in fns
    ]
    group_by = ("g",) if rng.random() < 0.4 else ()
    return Query(
        table="T",
        predicate=predicate,
        aggregates=aggregates,
        group_by=group_by,
    )


class TestDeltaMatchesScratch:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_nested_ladders_and_queries(self, seed):
        """Property: on random nested reservoirs × random aggregate /
        group-by queries, the merged delta states reproduce from-scratch
        recomputation exactly, rung by rung."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3_000, 6_000))
        l0 = int(rng.integers(n // 3, (3 * n) // 4))
        l1 = int(rng.integers(l0 // 4, l0 // 2))
        l2 = int(rng.integers(50, l1 // 2))
        catalog, base, hierarchy = _nested_setup(
            n=n, layer_sizes=(l0, l1, l2), seed=seed + 100
        )
        delta = BoundedQueryProcessor(catalog, hierarchy)
        scratch = BoundedQueryProcessor(
            catalog, hierarchy, delta_escalation=False
        )
        for _ in range(6):
            query = _random_query(rng)
            contract = Contract(max_relative_error=0.0)
            delta_ctx, scratch_ctx = delta.new_context(), scratch.new_context()
            delta_outcome = delta.execute(query, contract, context=delta_ctx)
            scratch_outcome = scratch.execute(query, contract, context=scratch_ctx)
            _assert_same_outcome(delta_outcome, scratch_outcome)
            assert delta_ctx.spent <= scratch_ctx.spent

    def test_biased_hierarchy_ht_reweighting(self):
        """The Horvitz–Thompson path: a biased (unequal-π) nested
        ladder must yield identical estimates, because the fold is
        re-weighted with each rung's own inclusion probabilities."""
        rng = np.random.default_rng(5)
        n = 6_000
        catalog = Catalog()
        catalog.add_table(
            Table(
                "T",
                [
                    Column("x", "float64", rng.uniform(0.0, 100.0, n)),
                    Column("v", "float64", rng.lognormal(1.0, 0.5, n)),
                    Column("g", "int64", rng.integers(0, 4, n)),
                ],
            )
        )
        base = catalog.table("T")
        interest = InterestModel({"x": (0.0, 100.0)})
        interest.observe_values("x", rng.uniform(20.0, 40.0, 500))
        hierarchy = build_hierarchy(
            "T", BiasedPolicy(interest, layer_sizes=(3_000, 1_200, 400)), rng=6
        )
        rebuild_from_base(hierarchy, base)
        refresh_hierarchy(hierarchy, base)
        assert hierarchy.is_nested()
        pis = hierarchy.layer(0).inclusion_probabilities()
        assert np.unique(pis).size > 1  # genuinely unequal weights
        delta = BoundedQueryProcessor(catalog, hierarchy)
        scratch = BoundedQueryProcessor(
            catalog, hierarchy, delta_escalation=False
        )
        query = Query(
            table="T",
            predicate=Between("x", 25.0, 35.0),
            aggregates=[AggregateSpec("avg", "v"), AggregateSpec("count")],
        )
        contract = Contract(max_relative_error=0.0)
        _assert_same_outcome(
            delta.execute(query, contract), scratch.execute(query, contract)
        )

    def test_non_nested_falls_back_to_scratch_with_same_results(self):
        """Independently-sampled layers are not nested: every
        impression rung must be scanned in full (delta_rows == rung
        size) yet results must match the scratch ladder exactly."""
        rng = np.random.default_rng(17)
        n = 5_000
        catalog = Catalog()
        catalog.add_table(
            Table(
                "T",
                [
                    Column("x", "float64", rng.uniform(0.0, 100.0, n)),
                    Column("v", "float64", rng.lognormal(1.0, 0.5, n)),
                    Column("g", "int64", rng.integers(0, 4, n)),
                ],
            )
        )
        base = catalog.table("T")
        hierarchy = build_hierarchy(
            "T", UniformPolicy(layer_sizes=(2_000, 800)), rng=18
        )
        rebuild_from_base(hierarchy, base)  # NOT refreshed: independent
        assert not hierarchy.is_nested()
        delta = BoundedQueryProcessor(catalog, hierarchy)
        scratch = BoundedQueryProcessor(
            catalog, hierarchy, delta_escalation=False
        )
        query = Query(
            table="T",
            predicate=Between("x", 10.0, 60.0),
            aggregates=[AggregateSpec("sum", "v")],
        )
        contract = Contract(max_relative_error=0.0)
        outcome = delta.execute(query, contract)
        _assert_same_outcome(outcome, scratch.execute(query, contract))
        # both impression rungs were scanned from scratch...
        assert outcome.attempts[0].delta_rows == hierarchy.layer(1).size
        assert outcome.attempts[1].delta_rows == hierarchy.layer(0).size
        # ...but the base rung still deltas against the largest layer
        assert (
            outcome.attempts[2].delta_rows
            == base.num_rows - hierarchy.layer(0).size
        )


class TestDeltaCharging:
    def test_context_charged_only_delta_rows(self):
        """Regression: across a nested escalation the context pays the
        entry rung once and then only each rung's delta (plus the final
        exact aggregation), never the cumulative rung sizes."""
        catalog, base, hierarchy = _nested_setup(
            n=6_000, layer_sizes=(3_000, 1_500, 700)
        )
        processor = BoundedQueryProcessor(catalog, hierarchy)
        query = Query(
            table="T",
            predicate=Between("x", 20.0, 45.0),
            aggregates=[AggregateSpec("count")],
        )
        context = processor.new_context()
        outcome = processor.execute(
            query, Contract(max_relative_error=0.0), context=context
        )
        sizes = [imp.size for imp in hierarchy.from_smallest()]
        expected_deltas = [
            sizes[0],
            sizes[1] - sizes[0],
            sizes[2] - sizes[1],
            base.num_rows - sizes[2],
        ]
        assert [a.delta_rows for a in outcome.attempts] == expected_deltas
        # impression rungs cost exactly their delta scan
        for attempt, delta_rows in zip(outcome.attempts[:-1], expected_deltas):
            assert attempt.cost == delta_rows
        # the exact rung adds the aggregation over all matching rows
        matched = int(
            np.count_nonzero((base["x"] >= 20.0) & (base["x"] <= 45.0))
        )
        assert outcome.attempts[-1].cost == expected_deltas[-1] + matched
        assert context.spent == sum(expected_deltas) + matched
        # the scratch ladder would have paid the cumulative sizes
        scratch_cost = sum(sizes) + base.num_rows + matched
        assert context.spent < scratch_cost

    def test_deeper_rung_reached_under_same_budget(self):
        """The point of the optimisation: a budget too small for the
        from-scratch ladder's base rung affords it via deltas."""
        catalog, base, hierarchy = _nested_setup(
            n=6_000, layer_sizes=(4_000, 2_000, 900)
        )
        query = Query(
            table="T",
            predicate=Between("x", 20.0, 45.0),
            aggregates=[AggregateSpec("count")],
        )
        budget = 1.35 * base.num_rows  # < scratch ladder total, > delta total
        contract = Contract(max_relative_error=0.0, time_budget=budget)
        delta = BoundedQueryProcessor(catalog, hierarchy)
        scratch = BoundedQueryProcessor(
            catalog, hierarchy, delta_escalation=False
        )
        delta_outcome = delta.execute(query, contract)
        scratch_outcome = scratch.execute(query, contract)
        assert delta_outcome.met_quality and delta_outcome.result.exact
        assert not scratch_outcome.met_quality
        assert len(delta_outcome.attempts) > len(scratch_outcome.attempts)

    def test_describe_surfaces_delta_rows(self):
        catalog, base, hierarchy = _nested_setup()
        processor = BoundedQueryProcessor(catalog, hierarchy)
        outcome = processor.execute(
            Query(
                table="T",
                predicate=Between("x", 30.0, 50.0),
                aggregates=[AggregateSpec("avg", "v")],
            ),
            Contract(max_relative_error=0.0),
        )
        text = outcome.describe()
        assert "(Δ)" in text and "scanned=" in text

    def test_row_queries_and_joins_not_folded(self):
        """Non-foldable query shapes keep the from-scratch ladder
        (delta_rows is None on every attempt)."""
        catalog, base, hierarchy = _nested_setup()
        processor = BoundedQueryProcessor(catalog, hierarchy)
        outcome = processor.execute(
            Query(table="T", predicate=Between("x", 0.0, 50.0), select=("x",)),
            Contract(max_relative_error=0.5),
        )
        assert all(a.delta_rows is None for a in outcome.attempts)
