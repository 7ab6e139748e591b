"""Base scans read the largest rung plus its complement.

The largest impression's table and its complement hold every base row
exactly once, both in (interest cell, row id) order on their own zone
grids.  ``ImpressionHierarchy.base_cover`` decides when a base scan
reads those two instead of the base, and ``Executor.select_indices``
merges the two part scans into the index vector a scan of the base
returns.  Pinned here:

* the merged indices equal ``operators.select(base, …)`` index for index
  over offer / ingest / maintain interleavings, NaN rows included, and a
  cover the rule picks charges fewer rows than the base's own plan;
* which predicates plan a cover at all;
* exact aggregates and LIMIT row queries through a server equal a
  hierarchy-less twin's byte for byte, over recycler x scheduler x
  session ``shared_scans``, and a repeated exact query meets the
  recycler as the twin's does: every scan of the repeat is served, and
  charged as the first;
* under a memory budget the cover's columns stay exact copies of the
  base rows, so an exact query still reads it and answers like the twin;
* the planner prices a base rung's select step as the scan charges it;
* the ladder dump gives the load-order dump's answers, no charge higher.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import operators
from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.executor import BaseCover
from repro.columnstore.expressions import And, Between, Comparison, Or, RadialPredicate
from repro.columnstore.operators import scan_plan
from repro.columnstore.plan import estimate_cost
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.recycler import lossy_reads
from repro.columnstore.table import Table
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.governor import MemoryGovernor
from repro.core.server import SciBorqServer
from repro.util.clock import ExecutionContext

TABLE = "T"
COLUMNS = ("ra", "dec", "mjd", "r_mag")
RA, DEC = (120.0, 240.0), (-5.0, 25.0)
ROWS = 20_000
LAYERS = (5_000, 1_000)
CONE = RadialPredicate("ra", "dec", 180.0, 10.0, 2.0)


def sky_batch(rng, rows: int, first_mjd: float, nan_share: float = 0.0) -> dict:
    """Rows in random sky order, observed in time order (``mjd`` rises
    with the row id, so the base's own zone maps prune time ranges)."""
    values = {
        "ra": rng.uniform(*RA, rows),
        "dec": rng.uniform(*DEC, rows),
        "mjd": first_mjd + np.arange(rows, dtype=np.float64),
        "r_mag": rng.uniform(14.0, 22.0, rows),
    }
    if nan_share:
        for name in COLUMNS:
            values[name][rng.random(rows) < nan_share] = np.nan
    return values


def make_engine(
    seed: int,
    hierarchy: bool = True,
    recycler: bool = True,
    columns=None,
    nan_share: float = 0.01,
):
    """``ROWS`` rows loaded in random sky order on 1 024-row base blocks;
    with ``hierarchy`` a uniform two-rung ladder the builder lays out by
    (ra, dec) cell.  Engines of one seed hold identical data."""
    catalog = Catalog()
    catalog.add_table(
        Table(TABLE, [Column(name, "float64", block_size=1024) for name in COLUMNS])
    )
    engine = SciBorq(
        catalog,
        interest_attributes={"ra": RA, "dec": DEC},
        recycler_bytes=16 * 1024 * 1024 if recycler else None,
        rng=seed,
    )
    if hierarchy:
        engine.create_hierarchy(
            TABLE, policy="uniform", layer_sizes=LAYERS, columns=columns
        )
    rng = np.random.default_rng([seed, 1])
    engine.loader.load_batch(TABLE, sky_batch(rng, ROWS, 0.0, nan_share))
    return engine, rng


def assert_same_answer(got, want) -> None:
    """Byte-identical exact answers: scalars by ``float.hex``, row
    tables column by column."""
    assert got.exact and want.exact
    if want.estimates is not None:
        assert {n: e.value.hex() for n, e in got.estimates.items()} == {
            n: e.value.hex() for n, e in want.estimates.items()
        }
    else:
        assert got.rows.column_names == want.rows.column_names
        for name in want.rows.column_names:
            assert got.rows[name].tobytes() == want.rows[name].tobytes(), name


# ----------------------------------------------------------------------
# the merged scan is the base scan
# ----------------------------------------------------------------------
_coordinate = dict(allow_nan=False, allow_infinity=False)
_cones = st.builds(
    RadialPredicate,
    st.just("ra"),
    st.just("dec"),
    st.floats(115.0, 245.0, **_coordinate),
    st.floats(-8.0, 28.0, **_coordinate),
    st.floats(0.0, 20.0, **_coordinate),
)
_ranges = st.builds(
    lambda column, lo, width: Between(column, lo, lo + width),
    st.sampled_from(["ra", "dec"]),
    st.floats(-10.0, 250.0, **_coordinate),
    st.floats(0.0, 40.0, **_coordinate),
)
_sky = st.one_of(_cones, _ranges)
_other = st.one_of(
    st.builds(
        lambda lo, width: Between("mjd", lo, lo + width),
        st.floats(0.0, 30_000.0, **_coordinate),
        st.floats(0.0, 5_000.0, **_coordinate),
    ),
    st.builds(
        Comparison,
        st.just("r_mag"),
        st.sampled_from(["<", ">=", "!="]),
        st.floats(14.0, 22.0, **_coordinate),
    ),
)
PREDICATES = st.one_of(
    _sky,
    st.builds(lambda a, b: And([a, b]), _sky, _other),
    st.builds(lambda a, b: Or([a, b]), _sky, _other),
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.integers(1, 3_000)),
        st.tuples(st.just("ingest"), st.integers(1, 3_000)),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("query"), PREDICATES),
    ),
    max_size=8,
)


def check_cover(engine: SciBorq, predicate) -> None:
    """The cover's merged indices are the base scan's; a cover the rule
    picks charges less than the base plan."""
    base = engine.catalog.table(TABLE)
    hierarchy = engine.hierarchy(TABLE)
    expected, base_op = operators.select(base, predicate)
    parts = hierarchy.layer(0).cover(base)
    assert parts is not None
    assert sorted(np.concatenate([p.row_ids for p in parts]).tolist()) == list(
        range(base.num_rows)
    )
    rows = sum(scan_plan(part, predicate)[1] for part in parts)
    context = ExecutionContext()
    indices, op = engine.executor.select_indices(
        base, predicate, context, cover=BaseCover(parts, rows)
    )
    assert indices.dtype == expected.dtype
    np.testing.assert_array_equal(indices, expected)
    assert op.operator == "select" and op.tuples_out == base_op.tuples_out
    assert context.spent == op.tuples_in == rows
    chosen = hierarchy.base_cover(predicate, base)
    if chosen is not None:
        assert chosen.parts == parts
        assert chosen.scan_rows == rows < base_op.tuples_in


@given(operations=OPERATIONS, last=PREDICATES)
@settings(max_examples=30, deadline=None)
def test_cover_indices_are_the_base_scan_over_interleavings(operations, last):
    engine, rng = make_engine(17, recycler=False)
    base = engine.catalog.table(TABLE)
    for operation in operations:
        kind = operation[0]
        if kind in ("offer", "ingest"):
            batch = sky_batch(rng, operation[1], float(base.num_rows), nan_share=0.05)
            if kind == "offer":
                engine.loader.load_batch(TABLE, batch)  # the builder offers it
            else:
                engine.ingest(TABLE, batch)
        elif kind == "refresh":
            engine.refresh(TABLE)
        elif kind == "rebuild":
            engine.rebuild(TABLE)
        else:
            check_cover(engine, operation[1])
    check_cover(engine, last)


# ----------------------------------------------------------------------
# the access-path rule
# ----------------------------------------------------------------------
class TestAccessPathRule:
    @pytest.fixture(scope="class")
    def engine(self):
        return make_engine(23)[0]

    def test_a_selective_sky_predicate_reads_the_cover(self, engine):
        base = engine.catalog.table(TABLE)
        for predicate in (CONE, And([Between("dec", 3.0, 4.0), Between("ra", 150.0, 160.0)])):
            cover = engine.hierarchy(TABLE).base_cover(predicate, base)
            assert cover is not None
            assert cover.scan_rows < scan_plan(base, predicate)[1] == base.num_rows

    def test_a_predicate_off_the_cell_attributes_scans_the_base(self, engine):
        base = engine.catalog.table(TABLE)
        hierarchy = engine.hierarchy(TABLE)
        for predicate in (
            Between("r_mag", 16.0, 17.0),
            Between("mjd", 100.0, 900.0),
            And([Between("r_mag", 16.0, 17.0), Between("mjd", 0.0, 5e3)]),
        ):
            assert hierarchy.base_cover(predicate, base) is None

    def test_a_time_range_the_base_prunes_better_scans_the_base(self, engine):
        """Load order wins where the base is clustered: a narrow ``mjd``
        window reads one base block, and the cover cannot beat it."""
        base = engine.catalog.table(TABLE)
        predicate = And([Between("ra", 120.0, 200.0), Between("mjd", 2_100.0, 2_900.0)])
        assert scan_plan(base, predicate)[1] == 1024
        assert engine.hierarchy(TABLE).base_cover(predicate, base) is None

    @pytest.mark.parametrize(
        "sky, lo, width, path",
        [
            (CONE, 2_100.0, 800.0, "base"),
            (CONE, 2_100.0, 2_000.0, "base"),
            (CONE, 5_000.0, 3_000.0, "base"),
            (CONE, 100.0, 10_000.0, "cover"),
            (Between("ra", 120.0, 200.0), 5_000.0, 3_000.0, "base"),
            (Between("ra", 120.0, 200.0), 100.0, 10_000.0, "base"),
            (Between("dec", 3.0, 4.0), 5_000.0, 3_000.0, "base"),
            (Between("dec", 3.0, 4.0), 0.0, 6_000.0, "cover"),
        ],
    )
    def test_an_mjd_window_reads_the_cheaper_plan_and_is_charged_its_price(
        self, sky, lo, width, path
    ):
        """Sky predicates narrowed to a time window, on a grid of the
        rung's share of 1 024 base rows per zone: windows of up to four
        base blocks stay on the base, whose load order prunes time best;
        a cone over a 10 000-row window and a dec band over 6 000 rows
        now read the cover (on 64 zones of 1 024 rows both scanned the
        base).  Whichever path the rule picks, an exact query's select
        is charged exactly the rows it priced."""
        engine, _ = make_engine(23, recycler=False)
        base = engine.catalog.table(TABLE)
        predicate = And([sky, Between("mjd", lo, lo + width)])
        cover = engine.hierarchy(TABLE).base_cover(predicate, base)
        base_rows = scan_plan(base, predicate)[1]
        assert ("base" if cover is None else "cover") == path
        priced = base_rows if cover is None else cover.scan_rows
        assert priced <= base_rows
        query = Query(TABLE, predicate=predicate, aggregates=[AggregateSpec("count")])
        outcome = engine.execute(query, Contract.exact())
        select = outcome.result.stats.operators[0]
        assert select.operator == "select" and select.tuples_in == priced

    def test_a_column_the_largest_layer_lacks_scans_the_base(self):
        engine, _ = make_engine(23, columns=("ra", "dec", "r_mag"))
        base = engine.catalog.table(TABLE)
        hierarchy = engine.hierarchy(TABLE)
        assert hierarchy.base_cover(And([CONE, Between("r_mag", 14.0, 20.0)]), base)
        assert hierarchy.base_cover(And([CONE, Between("mjd", 0.0, 1e6)]), base) is None


# ----------------------------------------------------------------------
# through a server: byte for byte a hierarchy-less twin
# ----------------------------------------------------------------------
AGGREGATES = [
    Query(
        TABLE,
        predicate=CONE,
        aggregates=[
            AggregateSpec("count"),
            AggregateSpec("avg", "r_mag"),
            AggregateSpec("sum", "mjd"),
        ],
    ),
    Query(
        TABLE,
        predicate=And([Between("dec", 3.0, 4.5), Comparison("r_mag", "<", 19.0)]),
        aggregates=[AggregateSpec("count"), AggregateSpec("max", "mjd")],
    ),
]
ROW_QUERIES = [
    Query(
        TABLE,
        predicate=RadialPredicate("ra", "dec", 210.0, 17.0, 2.5),
        select=("ra", "dec", "r_mag"),
        limit=25,
    ),
    Query(
        TABLE,
        predicate=Or([Between("ra", 200.0, 201.0), RadialPredicate("ra", "dec", 140.0, 0.0, 1.0)]),
        select=("mjd", "ra"),
        limit=40,
    ),
]


@pytest.mark.parametrize(
    "recycler_on,scheduler_on,shared_scans",
    list(itertools.product((False, True), repeat=3)),
)
def test_answers_match_a_hierarchy_less_twin(recycler_on, scheduler_on, shared_scans):
    engine, _ = make_engine(5, recycler=recycler_on)
    twin, _ = make_engine(5, hierarchy=False, recycler=recycler_on)
    with SciBorqServer(engine, shared_scans=scheduler_on) as server, SciBorqServer(
        twin, shared_scans=scheduler_on
    ) as twin_server:
        session = server.open_session("cells", shared_scans=shared_scans)
        twin_session = twin_server.open_session("twin", shared_scans=shared_scans)
        exact = {}
        for query in AGGREGATES + ROW_QUERIES:
            want = twin_session.execute(query, Contract.exact())
            got = session.execute(query, Contract.exact())
            assert_same_answer(got.result, want.result)
            assert got.total_cost < want.total_cost  # the cover pruned
            exact[query.fingerprint()] = want
        for query in ROW_QUERIES:
            # a row query climbs to the base rung, which reads the cover
            climbed = session.execute(query, Contract.within_error(0.0))
            assert climbed.attempts[-1].source == TABLE
            want = exact[query.fingerprint()]
            assert_same_answer(climbed.result, want.result)
            assert climbed.attempts[-1].cost < want.total_cost


def test_concurrent_first_reads_of_the_cover_answer_like_the_twin():
    """Eight sessions race to build and gather a fresh cover (its two
    tables, their ``ra``/``dec`` columns and zones) under a short switch
    interval: every answer still equals the twin's."""
    engine, _ = make_engine(13, recycler=False)
    twin, _ = make_engine(13, hierarchy=False, recycler=False)
    queries = AGGREGATES + ROW_QUERIES
    want = {q.fingerprint(): twin.execute(q, Contract.exact()).result for q in queries}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SciBorqServer(engine, max_workers=8) as server:
            sessions = [server.open_session(f"s{i}") for i in range(8)]
            barrier = threading.Barrier(len(sessions))
            results = []

            def run(session, offset):
                barrier.wait(timeout=10.0)
                for k in range(len(queries)):
                    query = queries[(offset + k) % len(queries)]
                    results.append((query, session.execute(query, Contract.exact())))

            threads = [
                threading.Thread(target=run, args=(s, i)) for i, s in enumerate(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(sessions) * len(queries)
    for query, outcome in results:
        assert_same_answer(outcome.result, want[query.fingerprint()])


def test_a_repeated_exact_query_meets_the_recycler_as_the_twin_does():
    engine, _ = make_engine(7)
    twin, _ = make_engine(7, hierarchy=False)
    query = AGGREGATES[0]
    base = engine.catalog.table(TABLE)
    cover = engine.hierarchy(TABLE).base_cover(CONE, base)
    for e, scans in ((engine, len(cover.parts)), (twin, 1)):
        costs = {e.execute(query, Contract.exact()).total_cost for _ in range(3)}
        assert len(costs) == 1  # a hit charges the solo cost
        stats = e.recycler.stats
        assert (stats.hits, stats.misses, stats.stored) == (2 * scans, scans, scans)
    # an exact scan reads raw bytes: its entries carry the empty lossy tag
    found = [engine.recycler.lookup(part, CONE, ())[0] for part in cover.parts]
    cached, _ = twin.recycler.lookup(twin.catalog.table(TABLE), CONE, ())
    np.testing.assert_array_equal(cover.merge(found), cached)


# ----------------------------------------------------------------------
# under a memory budget the cover stays exact, and is read
# ----------------------------------------------------------------------
def test_a_memory_budget_leaves_the_cover_exact_and_the_cover_is_read(monkeypatch):
    # no NaN rows: a block holding one cannot quantise, only go cold;
    # no selection cache, so the exact query's scans are its own
    engine, _ = make_engine(9, recycler=False, nan_share=0.0)
    twin, _ = make_engine(9, hierarchy=False, recycler=False, nan_share=0.0)
    base = engine.catalog.table(TABLE)
    query = AGGREGATES[0]
    engine.set_memory_governor(MemoryGovernor(base.nbytes() * 6 // 10))
    assert base.column("ra").max_value_error() > 0.0  # demoted to warm
    # a climb to the base gathers the cover's columns from demoted blocks
    engine.execute(query, Contract.within_error(1e-9))
    parts = engine.hierarchy(TABLE).layer(0).cover(base)
    assert not any(lossy_reads(part, CONE) for part in parts)
    for part in parts:
        for name in ("ra", "dec"):
            column = part.column(name)
            assert column.max_value_error() == 0.0
            raw = twin.catalog.table(TABLE)[name][part.row_ids]
            assert column.values.tobytes() == raw.tobytes()
    scanned = []
    select = operators.select

    def spy(table, predicate, **kwargs):
        scanned.append(table)
        return select(table, predicate, **kwargs)

    monkeypatch.setattr(operators, "select", spy)
    got = engine.execute(query, Contract.exact())
    assert scanned == list(parts)  # no base scan
    want = twin.execute(query, Contract.exact())
    assert_same_answer(got.result, want.result)
    assert got.total_cost < want.total_cost


# ----------------------------------------------------------------------
# the planner prices the path the executor takes
# ----------------------------------------------------------------------
class TestPlannerPricesTheCover:
    ROWS = Query(TABLE, predicate=CONE, select=("ra", "dec"))

    def test_a_cones_predicted_select_is_its_charged_select(self):
        engine, _ = make_engine(3)
        base = engine.catalog.table(TABLE)
        hierarchy = engine.hierarchy(TABLE)
        processor = BoundedQueryProcessor(engine.catalog, hierarchy)
        cover = hierarchy.base_cover(CONE, base)
        assert cover is not None
        predicted = processor._predicted_cost(self.ROWS, None, base)
        assert predicted == cover.scan_rows < estimate_cost(self.ROWS, engine.catalog)
        outcome = processor.execute(self.ROWS, Contract.exact())
        (select,) = outcome.result.stats.operators
        assert select.tuples_in == outcome.total_cost == predicted

    def test_a_budget_for_the_cover_but_not_the_base_reaches_the_base_rung(self):
        engine, _ = make_engine(3)
        base = engine.catalog.table(TABLE)
        hierarchy = engine.hierarchy(TABLE)
        processor = BoundedQueryProcessor(engine.catalog, hierarchy)
        unbounded = processor.execute(self.ROWS, Contract(max_relative_error=0.0))
        *rungs, last = unbounded.attempts
        assert [a.source for a in rungs] == [layer.name for layer in hierarchy.from_smallest()]
        assert last.source == TABLE
        below = sum(a.cost for a in rungs)
        cover_rows = hierarchy.base_cover(CONE, base).scan_rows
        base_rows = estimate_cost(self.ROWS, engine.catalog)
        budget = below + (cover_rows + base_rows) / 2
        assert below + base_rows > budget  # the base's own plan would not fit
        bounded = processor.execute(
            self.ROWS, Contract(max_relative_error=0.0, time_budget=budget)
        )
        assert [a.source for a in bounded.attempts] == [a.source for a in unbounded.attempts]
        assert bounded.met_quality and bounded.met_budget
        assert bounded.total_cost == below + cover_rows


# ----------------------------------------------------------------------
# the ladder dump: the same answers as the load-order base, no charge higher
# ----------------------------------------------------------------------
#: what a rung or ladder paid: may only fall
CHARGES = {"charged", "cost", "total_cost", "spent", "delta_rows"}


def _number(value):
    return float.fromhex(value) if isinstance(value, str) and "0x" in value else value


def _compare(old, new, path, field, lower):
    if isinstance(old, dict):
        assert sorted(old) == sorted(new), path
        for key in old:
            _compare(old[key], new[key], f"{path}/{key}", key, lower)
    elif isinstance(old, list):
        assert len(old) == len(new), path
        for index, (a, b) in enumerate(zip(old, new)):
            if field == "operators":
                # [operator, tuples_in (a charge), tuples_out (a count)]
                assert (a[0], a[2]) == (b[0], b[2]) and b[1] <= a[1], f"{path}[{index}]"
                lower.append(b[1] < a[1])
            else:
                _compare(a, b, f"{path}[{index}]", field, lower)
    elif field in CHARGES and old is not None:
        assert _number(new) <= _number(old), path
        lower.append(_number(new) < _number(old))
    elif field == "remaining" and old is not None:
        assert _number(new) >= _number(old), path
    else:
        assert new == old, path


def test_the_cover_dump_keeps_the_load_order_dumps_answers():
    """Every case of :mod:`ladder_dump` against the dump taken when base
    rungs scanned the base in load order: the same ladders, answers,
    estimates and verdicts to the bit, every charge no higher — and the
    scratch base rungs' lower."""
    data = Path(__file__).parent / "data"
    old = json.loads((data / "ladder_dump_load_order_base.json").read_text())
    new = json.loads((data / "ladder_dump.json").read_text())
    assert sorted(old) == sorted(new)
    lower = []
    for case in old:
        _compare(old[case], new[case], case, case, lower)
    assert any(lower)


def test_the_share_sized_grid_keeps_the_64_zone_dumps_answers():
    """Every case of :mod:`ladder_dump` against the dump taken when every
    derived table had 64 zones of at least 1 024 rows: the same ladders,
    answers, estimates and verdicts to the bit, every charge no higher —
    and cone scans lower, because a zone now holds a table's share of
    1 024 base rows."""
    data = Path(__file__).parent / "data"
    old = json.loads((data / "ladder_dump_64_zones.json").read_text())
    new = json.loads((data / "ladder_dump.json").read_text())
    assert sorted(old) == sorted(new)
    lower = []
    for case in old:
        _compare(old[case], new[case], case, case, lower)
    assert any(lower)
