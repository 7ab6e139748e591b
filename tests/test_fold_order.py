"""A rung's answer keeps its scan's order.

On a ladder whose rungs are not nested — independent reservoirs, the
shape a freshly built uniform hierarchy has — every impression rung is
scanned from scratch, and its fold answers in the order the scan
produced it: no row-id sort, no slot lookup, row ids and πs read off
the one table the scan read.  These tests hold that path to the
from-scratch ladder float for float, count the sorts and lookups it no
longer makes, and pin the race its single table read closes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore import AggregateSpec, Query
from repro.columnstore import aggstate
from repro.columnstore.expressions import And, Between, RadialPredicate
from repro.core import bounded
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.impression import Impression
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog

TABLE = "PhotoObjAll"


def _engine(seed: int = 31, rows: int = 20_000):
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=seed,
    )
    engine.create_hierarchy(
        TABLE, policy="uniform", layer_sizes=(rows // 4, rows // 20, rows // 100)
    )
    generator = SkyGenerator(rng=seed + 1)
    build_skyserver(rows, generator=generator, loader=engine.loader)
    return engine, generator


def _processors(engine):
    return {
        mode: BoundedQueryProcessor(
            engine.catalog, engine.hierarchy(TABLE), delta_escalation=mode == "delta"
        )
        for mode in ("delta", "scratch")
    }


PREDICATES = {
    "cone": RadialPredicate("ra", "dec", 185.0, 30.0, 6.0),
    "range": And([Between("r_mag", 17.0, 18.5), Between("petro_rad", 1.0, 3.5)]),
}
SHAPES = {
    "count": ([AggregateSpec("count")], ()),
    "sum": ([AggregateSpec("sum", "r_mag")], ()),
    "avg": ([AggregateSpec("avg", "g_mag")], ()),
    "var": ([AggregateSpec("var", "r_mag")], ()),
    "group-by": (
        [AggregateSpec("count"), AggregateSpec("avg", "g_mag")],
        ("obj_type",),
    ),
}
CONTRACTS = {
    "to-the-base": Contract.within_error(1e-9),
    "part-way": Contract.within_error(0.05),
}


def _queries():
    for predicate_name, predicate in PREDICATES.items():
        for shape_name, (aggregates, group_by) in SHAPES.items():
            query = Query(
                table=TABLE,
                predicate=predicate,
                aggregates=aggregates,
                group_by=group_by,
            )
            yield f"{predicate_name}/{shape_name}", query


def _hex(value):
    return None if value is None else float(value).hex()


def _estimate(estimate) -> tuple:
    return (
        _hex(estimate.value),
        _hex(estimate.se),
        _hex(estimate.value_error),
        estimate.method,
        int(estimate.sample_size),
    )


def _answer(result):
    """Everything an answer reports except what its scan charged."""
    if result is None:
        return None
    groups = None
    if result.groups is not None:
        groups = {
            name: result.groups[name].tobytes() for name in result.groups.column_names
        }
    group_estimates = None
    if result.group_estimates is not None:
        group_estimates = {
            name: [_estimate(e) for e in estimates]
            for name, estimates in result.group_estimates.items()
        }
    return {
        "source": result.source,
        "exact": bool(result.exact),
        "estimates": {n: _estimate(e) for n, e in (result.estimates or {}).items()},
        "groups": groups,
        "group_estimates": group_estimates,
    }


def _charges(update) -> tuple:
    result = update.result
    if result is None:
        operators, charged = None, None
    else:
        operators = [
            (op.operator, op.tuples_in, op.tuples_out) for op in result.stats.operators
        ]
        charged = _hex(result.stats.charged)
    return (_hex(update.attempt.cost), _hex(update.spent), operators, charged)


def _trace(processor, query, contract):
    stream = processor.run(query, contract)
    updates = []
    while True:
        try:
            update = next(stream)
        except StopIteration as stop:
            return updates, stop.value
        updates.append(update)


def _from_scratch(hierarchy, sources) -> list[bool]:
    """Per rung: whether the delta ladder scanned it whole as well."""
    layers = {imp.name: imp for imp in hierarchy.layers}
    flags = [True]
    for previous, current in zip(sources, sources[1:]):
        rung, consumed = layers.get(current), layers.get(previous)
        flags.append(
            flags[-1]
            and rung is not None
            and consumed is not None
            and rung.delta_row_ids(consumed) is None
        )
    return flags


def _assert_delta_equals_scratch(engine, label):
    processors = _processors(engine)
    hierarchy = engine.hierarchy(TABLE)
    for name, query in _queries():
        for contract_name, contract in CONTRACTS.items():
            case = f"{label}/{name}/{contract_name}"
            delta_updates, delta = _trace(processors["delta"], query, contract)
            scratch_updates, scratch = _trace(processors["scratch"], query, contract)
            assert len(delta_updates) == len(scratch_updates), case
            whole = _from_scratch(hierarchy, [u.source for u in delta_updates])
            for mine, theirs, scanned_whole in zip(
                delta_updates, scratch_updates, whole
            ):
                assert (
                    mine.rung,
                    mine.source,
                    _answer(mine.result),
                    _hex(mine.achieved_error),
                    _hex(mine.best_error),
                    mine.satisfied,
                    mine.remaining,
                    mine.attempt.source,
                    mine.attempt.rows,
                    _hex(mine.attempt.relative_error),
                    mine.attempt.satisfied,
                ) == (
                    theirs.rung,
                    theirs.source,
                    _answer(theirs.result),
                    _hex(theirs.achieved_error),
                    _hex(theirs.best_error),
                    theirs.satisfied,
                    theirs.remaining,
                    theirs.attempt.source,
                    theirs.attempt.rows,
                    _hex(theirs.attempt.relative_error),
                    theirs.attempt.satisfied,
                ), case
                if scanned_whole:
                    # the same rows scanned the same way: the same charges
                    assert _charges(mine) == _charges(theirs), case
                else:
                    assert mine.attempt.cost <= theirs.attempt.cost, case
            assert _answer(delta.result) == _answer(scratch.result), case
            assert (delta.met_quality, delta.met_budget) == (
                scratch.met_quality,
                scratch.met_budget,
            ), case
            assert delta.total_cost <= scratch.total_cost, case


class TestScanOrderMatchesScratch:
    def test_independent_and_nested_ladders_through_ingest_and_maintain(self):
        """Answers, attempts and every progress update of the delta
        ladder equal the from-scratch ladder's, float for float: on the
        independent ladder a uniform hierarchy is built as, after an
        ingest (still independent), after a maintain (refreshed from
        below: nested), and round again; charges are equal wherever
        both ladders scanned a rung whole."""
        engine, generator = _engine()
        hierarchy = engine.hierarchy(TABLE)
        rng = np.random.default_rng(5)
        assert not hierarchy.is_nested()
        _assert_delta_equals_scratch(engine, "independent")
        for focus, shift in ((150.0, 230.0), (230.0, 150.0)):
            engine.ingest(TABLE, generator.photoobj_batch(2_000))
            assert not hierarchy.is_nested()
            _assert_delta_equals_scratch(engine, f"ra~{focus}/after-ingest")
            # a workload shift makes maintain refresh: layers derived from below
            for centre, rounds in ((focus, 6), (shift, 3)):
                for _ in range(rounds):
                    engine.planner.observe("ra", rng.normal(centre, 2.0, 100))
            assert TABLE in engine.maintain()
            assert hierarchy.is_nested()
            _assert_delta_equals_scratch(engine, f"ra~{shift}/after-maintain")


def test_a_merged_fold_is_ordered_like_the_rungs_table(monkeypatch):
    """On a nested ladder each impression rung answers from a merged
    fold; its working set must be the rung table's matching rows in
    that table's (interest-cell) order, πs included — the order a
    from-scratch scan of the table produces — so delta ≡ scratch holds
    float for float."""
    engine, _ = _engine()
    engine.refresh(TABLE)
    base = engine.catalog.table(TABLE)
    processor = _processors(engine)["delta"]
    seen = []
    original = processor.estimator.estimate_from_working

    def recording(query, impression, working, stats, confidence=None):
        seen.append((impression, working))
        return original(query, impression, working, stats, confidence)

    monkeypatch.setattr(processor.estimator, "estimate_from_working", recording)
    query = TestNoSortRoundTrip.QUERY
    outcome = processor.execute(query, Contract.within_error(1e-9))
    assert [a.delta_rows is not None for a in outcome.attempts] == [True] * 4
    assert len(seen) == 3
    for rung, working in seen:
        table = rung.materialise(base)
        assert not np.all(np.diff(table.row_ids) > 0)  # cell order, not id order
        matches = np.flatnonzero(query.predicate.evaluate(table))
        for name in ("g_mag", "_pi"):
            assert working[name].tobytes() == table[name][matches].tobytes(), name


class _CountingNumpy:
    """numpy, with its ``argsort`` calls counted."""

    def __init__(self) -> None:
        self.argsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self.argsorts += 1
        return np.argsort(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Argsorts in the fold and in the ladder, and slot lookups."""
    fold_np, ladder_np = _CountingNumpy(), _CountingNumpy()
    monkeypatch.setattr(aggstate, "np", fold_np)
    monkeypatch.setattr(bounded, "np", ladder_np)
    lookups: list[str] = []
    positions_of = Impression.positions_of

    def counting(self, row_ids):
        lookups.append(self.name)
        return positions_of(self, row_ids)

    monkeypatch.setattr(Impression, "positions_of", counting)

    def read():
        counts = (fold_np.argsorts, ladder_np.argsorts, len(lookups))
        fold_np.argsorts = ladder_np.argsorts = 0
        lookups.clear()
        return counts

    return read


class TestNoSortRoundTrip:
    QUERY = Query(
        table=TABLE,
        predicate=RadialPredicate("ra", "dec", 185.0, 30.0, 6.0),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "g_mag")],
    )

    def test_independent_ladder_sorts_only_to_merge(self, counted):
        engine, _ = _engine()
        assert not engine.hierarchy(TABLE).is_nested()
        processor = _processors(engine)["delta"]
        counted()
        # answered on the first rung: nothing sorted, nothing looked up
        outcome = processor.execute(self.QUERY, Contract())
        assert len(outcome.attempts) == 1
        assert counted() == (0, 0, 0)
        # the whole climb: one sort, where the complement is folded in
        outcome = processor.execute(self.QUERY, Contract.within_error(1e-9))
        assert len(outcome.attempts) == 4 and outcome.result.exact
        assert counted() == (1, 0, 0)
        # a lone base scan: one sort, where the exact answer is finished
        outcome = processor.execute(self.QUERY, Contract.exact())
        assert len(outcome.attempts) == 1 and outcome.result.exact
        assert counted() == (1, 0, 0)

    def test_nested_ladder_keeps_the_slot_lookup(self, counted):
        engine, _ = _engine()
        engine.refresh(TABLE)
        assert engine.hierarchy(TABLE).is_nested()
        processor = _processors(engine)["delta"]
        counted()
        outcome = processor.execute(self.QUERY, Contract.within_error(1e-9))
        assert len(outcome.attempts) == 4 and outcome.result.exact
        fold_sorts, ladder_sorts, lookups = counted()
        # two nested deltas and the complement are folded in; each
        # nested rung re-orders its merged fold to the rung table's order
        assert (fold_sorts, ladder_sorts) == (3, 2)
        assert lookups >= 2


class TestSingleTableRead:
    QUERY = Query(
        table=TABLE,
        predicate=RadialPredicate("ra", "dec", 185.0, 30.0, 8.0),
        aggregates=[
            AggregateSpec("count"),
            AggregateSpec("sum", "r_mag"),
            AggregateSpec("avg", "g_mag"),
        ],
    )

    @pytest.fixture
    def racing(self, monkeypatch):
        """An engine whose smallest rung takes a sampler offer right
        after each table it builds — a concurrent ingest without the
        server's lock — and the list of tables its scans read."""
        engine, generator = _engine()
        base = engine.catalog.table(TABLE)
        rung = engine.hierarchy(TABLE).layers[-1]
        assert rung.size == rung.capacity  # full: offers swap slots
        materialise = rung.materialise

        def materialise_then_offer(table):
            built = materialise(table)
            start = base.num_rows
            base.append_batch(generator.photoobj_batch(10_000))
            rung.sampler.offer_batch(np.arange(start, base.num_rows))
            return built

        monkeypatch.setattr(rung, "materialise", materialise_then_offer)
        processor = _processors(engine)["delta"]
        scanned = []
        select_indices = processor.executor.select_indices

        def recording(source, predicate, context, cover=None, raw=False):
            scanned.append(source)
            return select_indices(source, predicate, context, cover, raw)

        monkeypatch.setattr(processor.executor, "select_indices", recording)
        return engine, rung, processor, scanned

    def test_fold_ids_are_the_scanned_tables(self, racing):
        engine, rung, processor, scanned = racing
        base = engine.catalog.table(TABLE)
        fold, _, _, _, table = processor._scan_foldable(
            self.QUERY, rung, None, None, base, processor.new_context()
        )
        assert scanned == [table]
        assert not np.array_equal(rung.row_ids, table.row_ids)  # the offer landed
        np.testing.assert_array_equal(fold.row_ids, table.row_ids[fold.slots])

    def test_answer_is_an_estimate_over_the_scanned_table(self, racing):
        engine, rung, processor, scanned = racing
        outcome = processor.execute(self.QUERY, Contract())
        assert [a.source for a in outcome.attempts] == [rung.name]
        (table,) = scanned  # one scan, no fallback re-scan
        assert not np.array_equal(rung.row_ids, table.row_ids)
        working, stats = processor.executor.working_set(self.QUERY, table)
        expected = processor.estimator.estimate_from_working(
            self.QUERY, rung, working, stats
        )
        assert {
            name: _estimate(e) for name, e in outcome.result.estimates.items()
        } == {name: _estimate(e) for name, e in expected.estimates.items()}
