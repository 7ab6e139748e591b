"""Late materialisation: a selection gathers only what the plan reads.

Narrowing the gather must change nothing a caller can observe.  The
identity matrix below runs every plan shape on the base table, on an
impression (the from-scratch rung: ``ImpressionEstimator.estimate``,
what the ladder runs with ``delta_escalation=False``) and over warm
(quantised) blocks of both, and compares answers, operator records,
charges and value-error bounds with a reference that carries **whole
rows**: every column of the matching rows, gathered and joined here
with plain numpy.  The width guards count actual column gathers, so a
regression to whole-row gathers fails tier-1 rather than a timed run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import AggregateSpec, Catalog, Loader, Query, Table
from repro.columnstore import operators
from repro.columnstore.column import Column
from repro.columnstore.executor import ExecutionStats, Executor, expand_view
from repro.columnstore.expressions import Between, RadialPredicate
from repro.columnstore.operators import OperatorStats
from repro.columnstore.query import JoinSpec
from repro.core.contracts import Contract
from repro.core.engine import SciBorq
from repro.core.impression import PI_COLUMN
from repro.core.quality import ImpressionEstimator
from repro.errors import QueryError, UnknownColumnError
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import (
    DEC_RANGE,
    GALAXY,
    RA_RANGE,
    create_skyserver_catalog,
    photoobj_schema,
)
from repro.skyserver.views import register_skyserver_views

BS = 1024  # rows per block: base and impression both span several
ROWS = 12_000
SAMPLE = 4_000
#: unclustered, about a third of the rows
CUT = Between("r_mag", 17.0, 19.5)
PHOTOZ = JoinSpec("Photoz", "objID", "pz_objID", ("z_est", "z_err"))

CASES = {
    "scalar": Query(
        table="PhotoObjAll",
        predicate=CUT,
        aggregates=[
            AggregateSpec("count"),
            AggregateSpec("avg", "g_mag"),
            AggregateSpec("sum", "petro_rad"),
            AggregateSpec("std", "r_mag"),
        ],
    ),
    "count_only": Query(
        table="PhotoObjAll", predicate=CUT, aggregates=[AggregateSpec("count")]
    ),
    "grouped": Query(
        table="PhotoObjAll",
        predicate=CUT,
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "g_mag")],
        group_by=["fieldID"],
        order_by="count(*)",
        descending=True,
        limit=5,
    ),
    "rows_whole": Query(table="PhotoObjAll", predicate=CUT, limit=40),
    "rows_select": Query(
        table="PhotoObjAll", predicate=CUT, select=("objID", "ra", "dec", "r_mag")
    ),
    "rows_order_outside_select": Query(
        table="PhotoObjAll",
        predicate=CUT,
        select=("dec", "objID"),
        order_by="g_mag",
        descending=True,
        limit=30,
    ),
    "join_select_right": Query(
        table="PhotoObjAll",
        predicate=CUT,
        joins=[PHOTOZ],
        select=("ra", "z_est"),
        order_by="z_est",
        limit=25,
    ),
    "join_qualified_name": Query(
        table="PhotoObjAll",
        predicate=CUT,
        joins=[JoinSpec("Field", "fieldID", "fieldID", ("fieldID", "airmass"))],
        select=("objID", "Field.fieldID", "airmass"),
    ),
    "galaxy_view": Query(
        table="Galaxy",
        predicate=CUT,
        aggregates=[AggregateSpec("count"), AggregateSpec("avg", "z_est")],
    ),
}


def build_engine(warm: bool) -> SciBorq:
    """A SkyServer engine whose fact table has small blocks; ``warm``
    quantises most blocks of the base table and of the impression."""
    catalog = Catalog()
    catalog.add_table(
        Table(
            "PhotoObjAll",
            [Column(n, d, block_size=BS) for n, d in photoobj_schema().items()],
        )
    )
    dimensions = create_skyserver_catalog()
    for name in ("Field", "Frame", "Photoz"):
        catalog.add_table(dimensions.table(name))
    register_skyserver_views(catalog)
    engine = SciBorq(
        catalog, interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE}, rng=41
    )
    engine.create_hierarchy("PhotoObjAll", policy="uniform", layer_sizes=(SAMPLE,))
    build_skyserver(ROWS, generator=SkyGenerator(rng=42), loader=engine.loader)
    if warm:
        base = catalog.table("PhotoObjAll")
        sample = engine.hierarchy("PhotoObjAll").layer(0).materialise(base)
        # base first: the sample's columns are then first touched (and
        # gathered, raw) over warm base blocks, the late-gather case;
        # its own blocks quantised after are what its scans read
        for table in (base, sample):
            for name in table.column_names:
                for block in range(1, table.num_rows // BS):
                    # floats quantise; ints and the hidden _pi go cold
                    table.column(name).demote(block, "warm")
        assert base.max_value_error() > 0.0 and sample.max_value_error() > 0.0
    return engine


@pytest.fixture(scope="module")
def engines() -> dict[str, SciBorq]:
    return {"hot": build_engine(warm=False), "warm": build_engine(warm=True)}


# ----------------------------------------------------------------------
# the reference: whole rows, plain numpy
# ----------------------------------------------------------------------
def whole_rows(catalog: Catalog, query: Query, source: Table):
    """Selection and joins of ``query`` over ``source`` carrying every
    column of the matching rows, plus the operator records charged."""
    mask = np.asarray(query.predicate.evaluate(source), dtype=bool)
    idx = np.flatnonzero(mask)
    _, select_op = operators.select(source, query.predicate)
    assert select_op.tuples_out == idx.shape[0] > 0
    columns = {}
    for name in source.column_names:
        col = source.column(name)
        out = Column(name, col.dtype, col.values.copy()[idx])
        touched = np.unique(idx // col.block_size)
        out.declare_value_error(
            max((col.block_value_error(int(b)) for b in touched), default=0.0)
        )
        columns[name] = out
    ops = [select_op]
    for join in query.joins:
        right = catalog.table(join.right_table)
        left_keys = columns[join.left_on].values
        right_keys = right[join.right_on]  # a key: unique
        order = np.argsort(right_keys, kind="stable")
        pos = np.searchsorted(right_keys[order], left_keys)
        pos = np.minimum(pos, right_keys.shape[0] - 1)
        found = right_keys[order][pos] == left_keys
        ops.append(
            OperatorStats(
                "join", left_keys.shape[0] + right.num_rows, int(found.sum())
            )
        )
        joined = {}
        for name, col in columns.items():
            out = Column(name, col.dtype, col.values[found])
            out.declare_value_error(col.max_value_error())
            joined[name] = out
        for name in join.projection:
            out_name = name if name not in joined else f"{right.name}.{name}"
            values = right[name][order[pos[found]]]
            joined[out_name] = Column(out_name, values.dtype, values)
        columns = joined
    return Table(f"{source.name}#ref", list(columns.values())), ops


NUMPY_AGGREGATE = {
    "count": lambda values, n: float(n),
    "sum": lambda values, n: float(values.sum()),
    "avg": lambda values, n: float(values.mean()),
    "std": lambda values, n: float(values.std(ddof=1)),
}


def sort_limit(query: Query, arrays: dict) -> dict:
    """ORDER BY (stable either way) and LIMIT over parallel arrays."""
    n = len(next(iter(arrays.values())))
    order = np.arange(n)
    if query.order_by:
        keys = arrays[query.order_by]
        order = np.argsort(-keys if query.descending else keys, kind="stable")
    if query.limit is not None:
        order = order[: query.limit]
    return {name: values[order] for name, values in arrays.items()}


def assert_tables_equal(got: Table, want_names, want_arrays, want_errors=None):
    assert got.column_names == list(want_names)  # order included
    for name in want_names:
        np.testing.assert_array_equal(got[name], want_arrays[name])
        if want_errors is not None:
            assert got.column(name).max_value_error() == want_errors[name]


def assert_exact_identity(catalog, query, source, result, context):
    """``result`` (from the executor) against numpy over whole rows."""
    query = expand_view(catalog, query)
    whole, ops = whole_rows(catalog, query, source)
    matched = whole.num_rows
    arrays = {n: whole[n] for n in whole.column_names}
    if query.group_by:
        (key,) = query.group_by
        keys = np.unique(arrays[key])
        groups = {key: keys}
        for spec in query.aggregates:
            groups[spec.output_name] = np.array(
                [
                    NUMPY_AGGREGATE[spec.fn](
                        None if spec.column is None
                        else arrays[spec.column][arrays[key] == k],
                        int((arrays[key] == k).sum()),
                    )
                    for k in keys
                ]
            )
        ops.append(OperatorStats("groupby", matched, keys.shape[0]))
        ops.append(OperatorStats("sort", keys.shape[0], keys.shape[0]))
        ops.append(OperatorStats("limit", keys.shape[0], query.limit))
        want = sort_limit(query, groups)
        assert result.rows.column_names == list(want)
        for name, values in want.items():
            # per-group sums add in another order than ``reduceat``
            np.testing.assert_allclose(result.rows[name], values, rtol=1e-12)
        np.testing.assert_array_equal(result.rows[key], want[key])
    elif query.aggregates:
        want = {
            spec.output_name: NUMPY_AGGREGATE[spec.fn](
                None if spec.column is None else arrays[spec.column], matched
            )
            for spec in query.aggregates
        }
        assert result.scalars == want
        ops.append(OperatorStats("aggregate", matched, 1))
    else:
        if query.order_by:
            ops.append(OperatorStats("sort", matched, matched))
        if query.limit is not None:
            ops.append(
                OperatorStats("limit", matched, min(query.limit, matched))
            )
        names = query.select or whole.column_names
        errors = {n: whole.column(n).max_value_error() for n in names}
        assert_tables_equal(result.rows, names, sort_limit(query, arrays), errors)
        assert not any(n.startswith("_") for n in result.rows.column_names)
    assert result.stats.operators == ops
    assert result.stats.total_cost == sum(op.cost for op in ops)
    assert result.stats.charged == context.spent == result.stats.total_cost


def assert_estimate_identity(estimator, impression, query, sample, got, context):
    """``got`` (the estimator over the narrow working set) against the
    same estimator handed whole rows."""
    catalog = estimator.catalog
    # the sample's columns were gathered on first touch — for ``warm``,
    # after the base went warm — as raw base values: the only error
    # they carry is that of their own blocks quantised since
    whole, ops = whole_rows(catalog, query, sample)
    want = estimator.estimate_from_working(
        query, impression, whole, ExecutionStats(sample.name, sample.num_rows)
    )
    assert got.source == want.source == impression.name
    assert got.estimates == want.estimates  # value, se, value_error, ...
    assert got.group_estimates == want.group_estimates
    assert got.support == want.support
    for got_table, want_table in ((got.groups, want.groups), (got.rows, want.rows)):
        assert (got_table is None) == (want_table is None)
        if want_table is not None:
            assert PI_COLUMN not in got_table.column_names
            assert_tables_equal(
                got_table,
                want_table.column_names,
                {n: want_table[n] for n in want_table.column_names},
                {
                    n: want_table.column(n).max_value_error()
                    for n in want_table.column_names
                },
            )
    assert got.stats.operators == ops
    assert got.stats.charged == context.spent == got.stats.total_cost


# ----------------------------------------------------------------------
# identity matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", ["hot", "warm"])
@pytest.mark.parametrize("case", list(CASES))
class TestIdentityMatrix:
    def test_base_table(self, engines, case, tier):
        engine = engines[tier]
        base = engine.catalog.table("PhotoObjAll")
        executor = Executor(engine.catalog)
        context = executor.new_context()
        # warm: the ladder's last-resort shape (an override, no promotion)
        result = executor.execute(
            CASES[case], fact_table=base if tier == "warm" else None, context=context
        )
        assert_exact_identity(engine.catalog, CASES[case], base, result, context)

    def test_impression(self, engines, case, tier):
        engine = engines[tier]
        base = engine.catalog.table("PhotoObjAll")
        impression = engine.hierarchy("PhotoObjAll").layer(0)
        sample = impression.materialise(base)
        estimator = ImpressionEstimator(engine.catalog)
        context = estimator.executor.new_context()
        query = expand_view(engine.catalog, CASES[case])
        got = estimator.estimate(query, impression, context=context)
        assert_estimate_identity(
            estimator, impression, query, sample, got, context
        )


def test_reference_agrees_with_first_principles(engines):
    """The reference itself, pinned to numbers worked out by hand."""
    engine = engines["hot"]
    base = engine.catalog.table("PhotoObjAll")
    r_mag, g_mag = base["r_mag"], base["g_mag"]
    mask = (r_mag >= 17.0) & (r_mag <= 19.5)
    exact = Executor(engine.catalog).execute(CASES["scalar"])
    assert exact.scalars["count(*)"] == float(mask.sum())
    assert exact.scalars["avg(g_mag)"] == float(g_mag[mask].mean())
    galaxies = Executor(engine.catalog).execute(CASES["galaxy_view"])
    assert galaxies.scalars["count(*)"] == float(
        (mask & (base["obj_type"] == GALAXY)).sum()
    )
    impression = engine.hierarchy("PhotoObjAll").layer(0)
    sampled = mask[impression.row_ids]
    estimate = ImpressionEstimator(engine.catalog).estimate(
        CASES["scalar"], impression
    )
    assert estimate.estimates["count(*)"].value == pytest.approx(
        ROWS * sampled.sum() / SAMPLE
    )
    assert estimate.estimates["avg(g_mag)"].value == pytest.approx(
        g_mag[impression.row_ids][sampled].mean()
    )


# ----------------------------------------------------------------------
# error parity: what failed before fails the same way
# ----------------------------------------------------------------------
class TestErrorParity:
    def run_both(self, engine, query):
        """The failure on the base table and on the impression."""
        impression = engine.hierarchy("PhotoObjAll").layer(0)
        with pytest.raises(Exception) as on_base:
            Executor(engine.catalog).execute(query)
        with pytest.raises(Exception) as on_sample:
            ImpressionEstimator(engine.catalog).estimate(query, impression)
        return on_base.value, on_sample.value, impression

    def test_aggregating_an_unknown_column(self, engines):
        query = Query(
            table="PhotoObjAll",
            predicate=CUT,
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "nope")],
        )
        on_base, on_sample, impression = self.run_both(engines["hot"], query)
        assert type(on_base) is type(on_sample) is UnknownColumnError
        assert str(on_base) == "unknown column 'nope' on table 'PhotoObjAll#sel'"
        assert str(on_sample) == (
            f"unknown column 'nope' on table 'PhotoObjAll§{impression.name}#sel'"
        )

    @pytest.mark.parametrize("joins", [(), (PHOTOZ,)])
    def test_projecting_a_missing_column(self, engines, joins):
        query = Query(
            table="PhotoObjAll",
            predicate=CUT,
            joins=joins,
            select=("ra", "nope"),
            order_by="g_mag",
        )
        on_base, on_sample, _ = self.run_both(engines["hot"], query)
        # the message still lists the whole row, not the narrow gather
        available = list(photoobj_schema()) + [n for j in joins for n in j.projection]
        assert type(on_base) is QueryError
        assert str(on_base) == (
            "projection references missing columns ['nope'] "
            f"(available: {available})"
        )
        assert type(on_sample) is UnknownColumnError
        assert str(on_sample) == "unknown column 'nope' on table 'sort'"

    def test_avg_over_a_string_column(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"x": "float64", "label": "<U4"}))
        Loader(catalog).load_batch(
            "t", {"x": np.arange(6.0), "label": np.array(list("aabbcc"))}
        )
        query = Query(
            table="t",
            predicate=Between("x", 1.0, 4.0),
            aggregates=[AggregateSpec("avg", "label")],
        )
        with pytest.raises(QueryError) as failure:
            Executor(catalog).execute(query)
        assert str(failure.value) == (
            "aggregate 'avg' needs a numeric column, got <U4 for 'label'"
        )
        grouped = Query(
            table="t",
            predicate=query.predicate,
            aggregates=query.aggregates,
            group_by=["x"],
        )
        with pytest.raises(QueryError, match="needs a numeric column"):
            Executor(catalog).execute(grouped)


# ----------------------------------------------------------------------
# width guards: how many columns a plan actually gathers (the
# ``gathered`` fixture lives in conftest.py)
# ----------------------------------------------------------------------
class TestGatherWidth:
    ROWS_QUERY = Query(
        table="PhotoObjAll", predicate=CUT, select=("objID", "ra", "dec", "r_mag")
    )

    def test_exact_aggregate_gathers_one_column(self, sky_engine, gathered):
        query = Query(
            table="PhotoObjAll",
            predicate=CUT,
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "g_mag")],
        )
        outcome = sky_engine.execute(query, contract=Contract.exact())
        assert outcome.result.exact
        assert gathered == ["g_mag"]

    def test_count_star_gathers_nothing(self, sky_engine, gathered):
        outcome = sky_engine.execute(
            CASES["count_only"], contract=Contract.exact()
        )
        base = sky_engine.catalog.table("PhotoObjAll")
        assert outcome.result.estimates["count(*)"].value == float(
            ((base["r_mag"] >= 17.0) & (base["r_mag"] <= 19.5)).sum()
        )
        assert gathered == []

    def test_exact_row_query_gathers_its_select_list(self, sky_engine, gathered):
        outcome = sky_engine.execute(self.ROWS_QUERY, contract=Contract.exact())
        assert outcome.result.rows.column_names == ["objID", "ra", "dec", "r_mag"]
        assert gathered == ["objID", "ra", "dec", "r_mag"]

    def test_impression_row_query_also_carries_pi(self, gathered):
        # a biased rung's support is a Horvitz-Thompson count: its row
        # answer gathers ``_pi`` at the matches, and nothing else
        engine = SciBorq(
            create_skyserver_catalog(),
            interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
            rng=43,
        )
        engine.create_hierarchy("PhotoObjAll", policy="biased", layer_sizes=(SAMPLE,))
        build_skyserver(ROWS, generator=SkyGenerator(rng=44), loader=engine.loader)
        base = engine.catalog.table("PhotoObjAll")
        impression = engine.hierarchy("PhotoObjAll").layer(0)
        sample = impression.materialise(base)
        for name in self.ROWS_QUERY.select:
            sample.column(name)  # the sample's own first-touch gathers
        del gathered[:]
        answer = ImpressionEstimator(engine.catalog).estimate(
            self.ROWS_QUERY, impression
        )
        assert answer.rows.column_names == ["objID", "ra", "dec", "r_mag"]
        assert answer.rows.num_rows > 0 and answer.support.value > 0
        assert gathered == [PI_COLUMN, "objID", "ra", "dec", "r_mag"]

    def test_uniform_impression_row_query_gathers_no_pi(self, sky_engine, gathered):
        base = sky_engine.catalog.table("PhotoObjAll")
        impression = sky_engine.hierarchy("PhotoObjAll").layer(0)
        sample = impression.materialise(base)
        for name in self.ROWS_QUERY.select:
            sample.column(name)  # the sample's own first-touch gathers
        del gathered[:]
        estimator = sky_engine.processor("PhotoObjAll").estimator
        answer = estimator.estimate(self.ROWS_QUERY, impression)
        assert answer.rows.column_names == ["objID", "ra", "dec", "r_mag"]
        assert gathered == ["objID", "ra", "dec", "r_mag"]


# ----------------------------------------------------------------------
# the row step: order and limit on the index vector, one gather
# ----------------------------------------------------------------------
ROW_COLUMNS = list(photoobj_schema())
#: a cone on the cell attributes: the base rung reads the cover
CONE = RadialPredicate("ra", "dec", 180.0, 0.0, 40.0)

row_queries = st.builds(
    lambda select, order_by, descending, limit, predicate: Query(
        table="PhotoObjAll",
        predicate=predicate,
        select=tuple(select),
        order_by=order_by,
        descending=descending,
        limit=limit,
    ),
    select=st.lists(st.sampled_from(ROW_COLUMNS), unique=True, max_size=5),
    # fieldID and obj_type hold long tie runs
    order_by=st.none() | st.sampled_from(["fieldID", "obj_type", "g_mag", "ra"]),
    descending=st.booleans(),
    limit=st.none() | st.just(0) | st.integers(1, 60) | st.just(10**6),
    predicate=st.sampled_from([CUT]),
)


def expected_rows(query: Query, whole: Table, visible):
    """What a row answer over ``whole`` returns — names, values,
    declared bounds — and the sort / limit records it charges."""
    names = list(query.select) or visible
    arrays = sort_limit(query, {n: whole[n] for n in whole.column_names})
    errors = {n: whole.column(n).max_value_error() for n in names}
    matched = whole.num_rows
    ops = []
    if query.order_by:
        ops.append(OperatorStats("sort", matched, matched))
    if query.limit is not None:
        ops.append(OperatorStats("limit", matched, min(query.limit, matched)))
    return names, arrays, errors, ops


@pytest.mark.parametrize(
    "where", ["base-hot", "base-warm", "cover", "impression-hot", "impression-warm"]
)
@settings(max_examples=25, deadline=None)
@given(query=row_queries)
def test_row_step_matches_whole_rows(engines, where, query):
    tier = "warm" if where.endswith("warm") else "hot"
    engine = engines[tier]
    base = engine.catalog.table("PhotoObjAll")
    if where == "cover":
        query = replace(query, predicate=CONE)
    if where.startswith("impression"):
        impression = engine.hierarchy("PhotoObjAll").layer(0)
        sample = impression.materialise(base)
        estimator = ImpressionEstimator(engine.catalog)
        context = estimator.executor.new_context()
        got = estimator.estimate(query, impression, context=context)
        whole, ops = whole_rows(engine.catalog, query, sample)
        visible = [n for n in whole.column_names if n != PI_COLUMN]
        names, arrays, errors, _ = expected_rows(query, whole, visible)
        want = estimator.estimate_from_working(
            query, impression, whole, ExecutionStats(sample.name, sample.num_rows)
        )
        assert got.support == want.support
        rows = got.rows
    else:
        executor = Executor(engine.catalog)
        context = executor.new_context()
        cover = None
        if where == "cover":
            cover = engine.hierarchy("PhotoObjAll").base_cover(query.predicate, base)
            assert cover is not None
        got = executor.execute(query, fact_table=base, context=context, cover=cover)
        whole, ops = whole_rows(engine.catalog, query, base)
        if cover is not None:
            scans = [operators.select(part, query.predicate)[1] for part in cover.parts]
            ops[0] = OperatorStats(
                "select",
                sum(op.tuples_in for op in scans),
                whole.num_rows,
                blocks_scanned=sum(op.blocks_scanned for op in scans),
                blocks_pruned=sum(op.blocks_pruned for op in scans),
            )
        names, arrays, errors, row_ops = expected_rows(
            query, whole, whole.column_names
        )
        ops += row_ops
        rows = got.rows
    assert_tables_equal(rows, names, arrays, errors)
    assert got.stats.operators == ops
    assert got.stats.charged == context.spent == got.stats.total_cost


class TestGatherWidthOfRows:
    """A row answer gathers its order key at every match and each
    returned column at the kept rows alone."""

    QUERY = Query(
        table="PhotoObjAll",
        predicate=CUT,
        select=("objID", "ra", "dec", "r_mag"),
        order_by="g_mag",
        limit=30,
    )

    @pytest.fixture
    def sizes(self, monkeypatch):
        seen: list[tuple[str, int]] = []
        original = Column.gather_with_error

        def counting(self, indices, raw=False):
            seen.append((self.name, int(np.asarray(indices).shape[0])))
            return original(self, indices, raw)

        monkeypatch.setattr(Column, "gather_with_error", counting)
        return seen

    @pytest.mark.parametrize("tier", ["hot", "warm"])
    def test_no_returned_column_gathers_more_than_the_limit(self, engines, sizes, tier):
        engine = engines[tier]
        base = engine.catalog.table("PhotoObjAll")
        impression = engine.hierarchy("PhotoObjAll").layer(0)
        sample = impression.materialise(base)
        for name in ROW_COLUMNS:
            sample.column(name)  # first-touch gathers are the sample's own
        del sizes[:]
        exact = Executor(engine.catalog).execute(self.QUERY, fact_table=base)
        estimate = ImpressionEstimator(engine.catalog).estimate(self.QUERY, impression)
        for answer in (exact.rows, estimate.rows):
            assert answer.num_rows == self.QUERY.limit
        returned = [(n, s) for n, s in sizes if n in self.QUERY.select]
        assert len(returned) == 2 * len(self.QUERY.select)
        assert all(size <= self.QUERY.limit for _, size in returned)
        # the order key, once per answer, at every match
        assert [n for n, s in sizes if n not in self.QUERY.select] == ["g_mag"] * 2
