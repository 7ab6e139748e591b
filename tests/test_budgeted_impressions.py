"""Impressions stay exact copies of base rows under a memory budget.

SciBORQ's impressions are samples *of the base data* (paper §3.1), so a
derived table — rung, delta or base complement — gathers the raw values
of its rows whatever tier the governor left their base blocks in: warm
and cold blocks are read from the spill, which always holds their raw
bytes.  Pinned here:

* over interleavings of demote / promote / governor enforce / ingest /
  maintain / refresh and queries, every column of every rung, delta and
  complement table equals the raw base values at its ``row_ids`` byte
  for byte and declares no value error, and every impression rung
  answers exactly as on an unbudgeted twin;
* under a budget an exact cone still reads the base cover: it charges
  less than the base plan, answers byte for byte like a hierarchy-less
  twin, and leaves every block's tier alone — the columns it carries
  past the selection, and an uncovered predicate, are read as raw
  bytes from the spill, never promoted;
* a bounded climb's base rung under a budget counts like the
  unbudgeted twin's;
* after a budgeted stream of queries and ingests through a server, the
  memory report — the governor's footprint, read from each column's
  tier tally — equals a walk over every block, and no exact query
  promoted a block.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.catalog import Catalog
from repro.columnstore.column import Column
from repro.columnstore.expressions import And, Between, RadialPredicate
from repro.columnstore.operators import scan_plan
from repro.columnstore.query import AggregateSpec, Query
from repro.columnstore.table import Table
from repro.core.bounded import BoundedQueryProcessor
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.governor import MemoryGovernor
from repro.core.impression import PI_COLUMN
from repro.core.server import SciBorqServer
from tier_oracle import walked_memory_report

TABLE = "T"
COLUMNS = ("ra", "dec", "mjd", "r_mag")
RA, DEC = (120.0, 240.0), (-5.0, 25.0)
BLOCK = 1024
ROWS = 12_000
LAYERS = (3_000, 600)
CONE = RadialPredicate("ra", "dec", 180.0, 10.0, 6.0)
CONE_QUERY = Query(
    TABLE,
    predicate=CONE,
    aggregates=[
        AggregateSpec("count"),
        AggregateSpec("avg", "r_mag"),
        AggregateSpec("sum", "mjd"),
    ],
)
CONE_COUNT = Query(TABLE, predicate=CONE, aggregates=[AggregateSpec("count")])


def sky_batch(rng, rows: int, first_mjd: float) -> dict:
    """Rows in random sky order, observed in time order; no NaNs, so
    every float block can quantise."""
    return {
        "ra": rng.uniform(*RA, rows),
        "dec": rng.uniform(*DEC, rows),
        "mjd": first_mjd + np.arange(rows, dtype=np.float64),
        "r_mag": rng.uniform(14.0, 22.0, rows),
    }


def make_engine(seed: int, hierarchy: bool = True, budget: float | None = None):
    """``ROWS`` rows on ``BLOCK``-row base blocks; with ``hierarchy`` a
    uniform two-rung ladder laid out by (ra, dec) cell; with ``budget``
    a governor capping RAM at that share of the loaded footprint.
    Engines of one seed hold identical data and samples."""
    catalog = Catalog()
    catalog.add_table(
        Table(TABLE, [Column(name, "float64", block_size=BLOCK) for name in COLUMNS])
    )
    engine = SciBorq(catalog, interest_attributes={"ra": RA, "dec": DEC}, rng=seed)
    if hierarchy:
        engine.create_hierarchy(TABLE, policy="uniform", layer_sizes=LAYERS)
    rng = np.random.default_rng([seed, 1])
    engine.loader.load_batch(TABLE, sky_batch(rng, ROWS, 0.0))
    if budget is not None:
        total = engine.memory_report()["ram_total"]
        engine.set_memory_governor(MemoryGovernor(int(total * budget)))
    return engine, rng


def derived_tables(engine: SciBorq) -> list:
    """Every rung table, every nested delta and every layer's complement."""
    base = engine.catalog.table(TABLE)
    layers = engine.hierarchy(TABLE).layers
    tables = [layer.materialise(base) for layer in layers]
    tables += [layer.materialise_complement(base) for layer in layers]
    for larger, smaller in zip(layers, layers[1:]):
        delta = larger.materialise_delta(base, smaller)
        if delta is not None:
            tables.append(delta)
    return tables


def assert_exact_copies(engine: SciBorq, raw: Table) -> None:
    """Each derived table's every base column is ``raw`` at its row ids,
    byte for byte, with no declared value error."""
    for table in derived_tables(engine):
        for name in table.column_names:
            if name == PI_COLUMN:
                continue
            column = table.column(name)
            assert column.max_value_error() == 0.0, (table.name, name)
            want = raw[name][table.row_ids]
            assert column.values.tobytes() == want.tobytes(), (table.name, name)


def impression_answers(engine: SciBorq, query: Query) -> list:
    """``(source, estimates)`` of every impression rung of a climb."""
    handle = engine.submit(query, Contract.within_error(1e-9))
    return [
        (update.source, update.result.estimates)
        for update in handle
        if update.source != TABLE and update.result is not None
    ]


# ----------------------------------------------------------------------
# the property: interleavings never make a derived table lossy
# ----------------------------------------------------------------------
_coordinate = dict(allow_nan=False, allow_infinity=False)
PREDICATES = st.one_of(
    st.builds(
        RadialPredicate,
        st.just("ra"),
        st.just("dec"),
        st.floats(125.0, 235.0, **_coordinate),
        st.floats(-3.0, 23.0, **_coordinate),
        st.floats(2.0, 15.0, **_coordinate),
    ),
    st.builds(
        lambda lo, width: And([Between("dec", lo, lo + width), Between("r_mag", 15.0, 21.0)]),
        st.floats(-5.0, 20.0, **_coordinate),
        st.floats(1.0, 10.0, **_coordinate),
    ),
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("demote"),
            st.sampled_from(COLUMNS),
            st.integers(0, ROWS // BLOCK - 1),
            st.sampled_from(["warm", "cold"]),
        ),
        st.tuples(st.just("promote"), st.sampled_from(COLUMNS), st.integers(0, ROWS // BLOCK - 1)),
        st.tuples(st.just("enforce"), st.sampled_from([0.2, 0.4, 0.7, 2.0])),
        st.tuples(st.just("ingest"), st.integers(1, 2_500)),
        st.tuples(st.just("maintain")),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("query"), PREDICATES, st.booleans()),
        st.tuples(st.just("check")),
    ),
    max_size=10,
)


@given(operations=OPERATIONS, seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_derived_tables_stay_exact_copies_under_any_interleaving(operations, seed):
    engine, rng = make_engine(seed, budget=0.5)
    twin, twin_rng = make_engine(seed)  # never demoted
    base = engine.catalog.table(TABLE)
    raw = twin.catalog.table(TABLE)
    governor = engine.memory_governor
    for operation in operations + [("check",)]:
        kind = operation[0]
        if kind == "demote":
            _, name, block, tier = operation
            base.column(name).demote(block, tier)
        elif kind == "promote":
            _, name, block = operation
            base.column(name).promote(block)
        elif kind == "enforce":
            governor.budget_bytes = max(
                1, int(engine.memory_report()["ram_total"] * operation[1])
            )
            engine.enforce_memory()
        elif kind == "ingest":
            batch = sky_batch(rng, operation[1], float(base.num_rows))
            engine.ingest(TABLE, batch)
            twin.ingest(TABLE, sky_batch(twin_rng, operation[1], float(raw.num_rows)))
        elif kind == "maintain":
            engine.maintain()
            twin.maintain()
        elif kind == "refresh":
            engine.refresh(TABLE)
            twin.refresh(TABLE)
        elif kind == "query":
            _, predicate, exact = operation
            query = Query(TABLE, predicate=predicate, aggregates=CONE_QUERY.aggregates)
            if exact:
                got = engine.execute(query, Contract.exact()).result
                want = twin.execute(query, Contract.exact()).result
                assert got.exact and want.exact
                assert {n: e.value.hex() for n, e in got.estimates.items()} == {
                    n: e.value.hex() for n, e in want.estimates.items()
                }
            else:
                assert impression_answers(engine, query) == impression_answers(twin, query)
        else:
            assert_exact_copies(engine, raw)


# ----------------------------------------------------------------------
# exact contracts read the cover, and the spill for what they carry
# ----------------------------------------------------------------------
def tiers(column: Column) -> list[str]:
    return [column.tier_of(block) for block in range(column.num_blocks)]


def table_tiers(table: Table) -> dict[str, list[str]]:
    return {name: tiers(table.column(name)) for name in table.column_names}


def test_an_exact_cone_under_a_budget_reads_the_cover_and_promotes_no_predicate_column():
    engine, _ = make_engine(31, budget=0.4)
    twin, _ = make_engine(31, hierarchy=False)
    base = engine.catalog.table(TABLE)
    cover = engine.hierarchy(TABLE).base_cover(CONE, base)
    assert cover is not None and cover.scan_rows < scan_plan(base, CONE)[1]
    before = table_tiers(base)
    assert any(t != "hot" for name in ("ra", "dec") for t in before[name])
    assert not base.column("mjd").is_fully_hot
    want = twin.execute(CONE_QUERY, Contract.exact())
    processor = BoundedQueryProcessor(engine.catalog, engine.hierarchy(TABLE))
    # the engine's exact stream, and the ladder's exact branch
    for got in (
        engine.execute(CONE_QUERY, Contract.exact()),
        processor.execute(CONE_QUERY, Contract.exact()),
    ):
        assert got.result.exact
        assert {n: e.value.hex() for n, e in got.result.estimates.items()} == {
            n: e.value.hex() for n, e in want.result.estimates.items()
        }
        assert all(e.value_error == 0.0 for e in got.result.estimates.values())
        assert got.total_cost < want.total_cost  # the cover pruned
        # carried columns read raw from the spill: every block's tier
        # is unchanged
        assert table_tiers(base) == before
    raw = engine.execute_exact(CONE_QUERY).scalars
    assert {n: v.hex() for n, v in raw.items()} == {
        n: e.value.hex() for n, e in want.result.estimates.items()
    }


def test_an_exact_query_off_the_cell_attributes_reads_its_predicate_raw():
    engine, _ = make_engine(37, budget=0.4)
    twin, _ = make_engine(37, hierarchy=False)
    base = engine.catalog.table(TABLE)
    query = Query(
        TABLE,
        predicate=Between("r_mag", 16.0, 17.5),
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "mjd")],
    )
    assert engine.hierarchy(TABLE).base_cover(query.predicate, base) is None
    assert not base.column("r_mag").is_fully_hot
    before = table_tiers(base)
    got = engine.execute(query, Contract.exact())
    want = twin.execute(query, Contract.exact())
    assert got.result.exact and got.total_cost == want.total_cost
    assert {n: e.value.hex() for n, e in got.result.estimates.items()} == {
        n: e.value.hex() for n, e in want.result.estimates.items()
    }
    assert all(e.value_error == 0.0 for e in got.result.estimates.values())
    # the predicate was evaluated on raw bytes from the spill: every
    # block's tier is unchanged
    assert table_tiers(base) == before


# ----------------------------------------------------------------------
# a bounded base rung under a budget
# ----------------------------------------------------------------------
def test_a_bounded_base_rung_under_a_budget_counts_like_the_unbudgeted_twin():
    engine, _ = make_engine(41, budget=0.4)
    twin, _ = make_engine(41)
    base = engine.catalog.table(TABLE)
    assert base.column("ra").max_value_error() > 0.0
    # delta ladders end on the complement; from-scratch ladders' base
    # rung selects through the cover
    scratch = [
        BoundedQueryProcessor(e.catalog, e.hierarchy(TABLE), delta_escalation=False)
        for e in (engine, twin)
    ]
    for budgeted, unbudgeted in ((engine, twin), tuple(scratch)):
        got = budgeted.execute(CONE_COUNT, Contract.within_error(0.0))
        want = unbudgeted.execute(CONE_COUNT, Contract.within_error(0.0))
        assert got.attempts[-1].source == want.attempts[-1].source == TABLE
        assert got.result.exact and want.result.exact
        assert (
            got.result.estimates["count(*)"].value
            == want.result.estimates["count(*)"].value
        )
    # the base's predicate blocks were never promoted for it
    assert base.column("ra").max_value_error() > 0.0


# ----------------------------------------------------------------------
# the footprint the governor reads is the block walk's
# ----------------------------------------------------------------------
def test_after_a_budgeted_stream_the_memory_report_is_a_fresh_block_walk():
    engine, rng = make_engine(43)
    base = engine.catalog.table(TABLE)
    budget = int(engine.memory_report()["ram_total"] * 0.4)
    contracts = [Contract.exact(), Contract.within_error(0.05), Contract.within_error(1e-9)]
    with SciBorqServer(engine, max_workers=1, memory_budget=budget) as server:
        governor = server.memory_governor
        session = server.open_session()
        for i in range(24):
            if i % 8 == 7:
                server.ingest(TABLE, sky_batch(rng, 700, float(base.num_rows)))
                continue
            predicate = RadialPredicate(
                "ra", "dec", float(rng.uniform(130, 230)), float(rng.uniform(0, 20)), 5.0
            )
            query = Query(TABLE, predicate=predicate, aggregates=CONE_QUERY.aggregates)
            contract = contracts[i % len(contracts)]
            before, promotions = table_tiers(base), governor.stats.promotions
            server.execute(session, query, contract)
            after = table_tiers(base)
            promoted = sum(
                old != "hot" and new == "hot"
                for name in before
                for old, new in zip(before[name], after[name])
            )
            # the governor's own headroom promotions are the only ones
            assert promoted == governor.stats.promotions - promotions
        report = engine.memory_report()
        walked = walked_memory_report(engine)
        assert {key: report[key] for key in walked} == walked
        assert report["tables"][TABLE] == walked["tiers"]
        assert walked["tiers"]["warm"] + walked["cold_bytes"] > 0  # governed
