"""Tests for the vectorised relational operators."""

import numpy as np
import pytest

from repro.columnstore import operators
from repro.columnstore.expressions import Between
from repro.columnstore.query import AggregateSpec
from repro.columnstore.table import Table
from repro.errors import QueryError
from table_helpers import table_from_arrays


@pytest.fixture
def fact() -> Table:
    return table_from_arrays(
        "fact",
        {
            "id": np.arange(6),
            "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            "g": np.array([0, 0, 1, 1, 2, 2]),
        },
    )


@pytest.fixture
def dim() -> Table:
    return table_from_arrays(
        "dim", {"g": np.array([0, 1, 2]), "w": np.array([10.0, 20.0, 30.0])}
    )


class TestSelect:
    def test_returns_indices_and_stats(self, fact):
        indices, stats = operators.select(fact, Between("v", 2, 4))
        np.testing.assert_array_equal(indices, [1, 2, 3])
        assert stats.tuples_in == 6 and stats.tuples_out == 3
        assert stats.cost == 6  # cost = tuples read


class TestJoin:
    def test_fk_lookup(self, fact, dim):
        left, right, stats = operators.equi_join(fact, dim, "g", "g")
        assert left.shape[0] == 6  # every fact row matches one dim row
        np.testing.assert_array_equal(dim["g"][right], fact["g"][left])
        assert stats.tuples_in == 9

    def test_many_to_many(self):
        left = table_from_arrays("l", {"k": np.array([1, 1])})
        right = table_from_arrays("r", {"k": np.array([1, 1, 2])})
        li, ri, stats = operators.equi_join(left, right, "k", "k")
        assert li.shape[0] == 4  # 2 x 2 matches
        assert stats.tuples_out == 4

    def test_no_matches(self):
        left = table_from_arrays("l", {"k": np.array([5])})
        right = table_from_arrays("r", {"k": np.array([1])})
        li, ri, _ = operators.equi_join(left, right, "k", "k")
        assert li.shape[0] == 0 and ri.shape[0] == 0

    def test_materialise_prefixes_collisions(self, fact, dim):
        li, ri, _ = operators.equi_join(fact, dim, "g", "g")
        joined = operators.materialise_join(fact, dim, li, ri, ())
        assert "dim.g" in joined.column_names or "w" in joined.column_names
        assert "w" in joined.column_names

    def test_materialise_respects_projection(self, fact, dim):
        li, ri, _ = operators.equi_join(fact, dim, "g", "g")
        joined = operators.materialise_join(fact, dim, li, ri, ("w",))
        assert joined.column_names == ["id", "v", "g", "w"]


class TestAggregate:
    def test_all_functions(self, fact):
        specs = [
            AggregateSpec("count"),
            AggregateSpec("sum", "v"),
            AggregateSpec("avg", "v"),
            AggregateSpec("min", "v"),
            AggregateSpec("max", "v"),
            AggregateSpec("var", "v"),
            AggregateSpec("std", "v"),
        ]
        result, stats = operators.aggregate(fact, specs)
        assert result["count(*)"] == 6
        assert result["sum(v)"] == 21.0
        assert result["avg(v)"] == 3.5
        assert result["min(v)"] == 1.0
        assert result["max(v)"] == 6.0
        assert result["var(v)"] == pytest.approx(3.5)
        assert result["std(v)"] == pytest.approx(np.sqrt(3.5))
        assert stats.tuples_in == 6

    def test_empty_input_gives_nan(self, fact):
        empty = fact.take(np.zeros(0, dtype=np.int64))
        result, _ = operators.aggregate(empty, [AggregateSpec("avg", "v")])
        assert np.isnan(result["avg(v)"])
        result, _ = operators.aggregate(empty, [AggregateSpec("count")])
        assert result["count(*)"] == 0.0

    def test_min_max_on_non_numeric_raise_cleanly(self):
        """Regression: MIN/MAX slipped past the numeric gate and died
        with a numpy coercion error inside the kernel; they must raise
        a clean QueryError while COUNT keeps working."""
        t = table_from_arrays(
            "t", {"label": np.array(["b", "a", "c"], dtype="<U1")}
        )
        for fn in ("min", "max"):
            with pytest.raises(QueryError, match="numeric column"):
                operators.aggregate(t, [AggregateSpec(fn, "label")])
        result, _ = operators.aggregate(t, [AggregateSpec("count", "label")])
        assert result["count(label)"] == 3.0

    def test_boolean_columns_still_aggregate(self):
        """Booleans coerce to floats losslessly and must keep working
        through the tightened non-numeric gate."""
        t = table_from_arrays(
            "t",
            {
                "g": np.array([0, 0, 1, 1]),
                "flag": np.array([True, False, True, True]),
            },
        )
        result, _ = operators.aggregate(
            t, [AggregateSpec("min", "flag"), AggregateSpec("max", "flag")]
        )
        assert result["min(flag)"] == 0.0
        assert result["max(flag)"] == 1.0
        grouped, _ = operators.group_aggregate(
            t, ["g"], [AggregateSpec("sum", "flag"), AggregateSpec("min", "flag")]
        )
        np.testing.assert_array_equal(grouped["sum(flag)"], [1.0, 2.0])
        np.testing.assert_array_equal(grouped["min(flag)"], [0.0, 1.0])


class TestGroupAggregate:
    def test_counts_and_sums(self, fact):
        result, stats = operators.group_aggregate(
            fact, ["g"], [AggregateSpec("count"), AggregateSpec("sum", "v")]
        )
        assert result.num_rows == 3
        np.testing.assert_array_equal(result["count(*)"], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(result["sum(v)"], [3.0, 7.0, 11.0])
        assert stats.tuples_out == 3

    def test_avg_min_max(self, fact):
        result, _ = operators.group_aggregate(
            fact,
            ["g"],
            [
                AggregateSpec("avg", "v"),
                AggregateSpec("min", "v"),
                AggregateSpec("max", "v"),
            ],
        )
        np.testing.assert_array_equal(result["avg(v)"], [1.5, 3.5, 5.5])
        np.testing.assert_array_equal(result["min(v)"], [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(result["max(v)"], [2.0, 4.0, 6.0])

    def test_var_matches_numpy(self, fact):
        result, _ = operators.group_aggregate(
            fact, ["g"], [AggregateSpec("var", "v")]
        )
        for g in range(3):
            expected = fact["v"][fact["g"] == g].var(ddof=1)
            assert result["var(v)"][g] == pytest.approx(expected)

    def test_var_stable_for_large_means(self):
        """Regression: the raw-moment grouped variance (Σv² − n·mean²)
        cancelled catastrophically for large means and clamped to 0.0;
        the centred two-pass kernel must agree with numpy."""
        rng = np.random.default_rng(9)
        v = 1e8 + rng.normal(0.0, 1.0, 10_000)
        g = rng.integers(0, 3, v.shape[0])
        t = table_from_arrays("t", {"g": g, "v": v})
        result, _ = operators.group_aggregate(
            t, ["g"], [AggregateSpec("var", "v"), AggregateSpec("std", "v")]
        )
        for group in range(3):
            expected = v[g == group].var(ddof=1)
            assert result["var(v)"][group] == pytest.approx(expected, rel=1e-6)
            assert result["std(v)"][group] == pytest.approx(
                np.sqrt(expected), rel=1e-6
            )

    def test_multi_key_grouping(self):
        t = table_from_arrays(
            "t",
            {
                "a": np.array([0, 0, 1, 1]),
                "b": np.array([0, 1, 0, 1]),
                "v": np.array([1.0, 2.0, 3.0, 4.0]),
            },
        )
        result, _ = operators.group_aggregate(t, ["a", "b"], [AggregateSpec("count")])
        assert result.num_rows == 4

    def test_requires_keys(self, fact):
        with pytest.raises(QueryError, match="at least one key"):
            operators.group_aggregate(fact, [], [AggregateSpec("count")])

    def test_singleton_groups_have_zero_variance(self):
        t = table_from_arrays(
            "t", {"g": np.array([0, 1]), "v": np.array([5.0, 7.0])}
        )
        result, _ = operators.group_aggregate(t, ["g"], [AggregateSpec("var", "v")])
        np.testing.assert_array_equal(result["var(v)"], [0.0, 0.0])

    def test_count_with_column_skips_the_gather(self, fact, monkeypatch):
        """COUNT(col) must not pay for a full permutation gather of a
        value column it never reads (it equals the group sizes)."""
        gathers = []
        original = Table.__getitem__

        def spy(table, name):
            gathers.append(name)
            return original(table, name)

        monkeypatch.setattr(Table, "__getitem__", spy)
        result, _ = operators.group_aggregate(
            fact, ["g"], [AggregateSpec("count", "v")]
        )
        np.testing.assert_array_equal(result["count(v)"], [2.0, 2.0, 2.0])
        assert "v" not in gathers  # the value column is never read

    def test_count_still_validates_its_column_name(self, fact):
        """Skipping the gather must not skip name validation: a typo'd
        COUNT column raises instead of silently returning group sizes."""
        from repro.errors import UnknownColumnError

        with pytest.raises(UnknownColumnError):
            operators.group_aggregate(
                fact, ["g"], [AggregateSpec("count", "nope")]
            )

    def test_non_numeric_group_values_raise_cleanly(self):
        t = table_from_arrays(
            "t",
            {
                "g": np.array([0, 0, 1]),
                "label": np.array(["x", "y", "z"], dtype="<U1"),
            },
        )
        with pytest.raises(QueryError, match="numeric column"):
            operators.group_aggregate(t, ["g"], [AggregateSpec("sum", "label")])


class TestSortLimit:
    def test_sort_ascending_descending(self, fact):
        asc, _ = operators.sort(fact, "v")
        desc, _ = operators.sort(fact, "v", descending=True)
        np.testing.assert_array_equal(asc["v"], np.sort(fact["v"]))
        np.testing.assert_array_equal(desc["v"], np.sort(fact["v"])[::-1])

    def test_descending_sort_keeps_ties_in_input_order(self):
        """Regression: reversing the ascending stable order flipped
        tie runs back-to-front."""
        t = table_from_arrays(
            "t",
            {
                "key": np.array([1.0, 2.0, 1.0, 2.0, 1.0]),
                "pos": np.arange(5),
            },
        )
        out, _ = operators.sort(t, "key", descending=True)
        np.testing.assert_array_equal(out["key"], [2.0, 2.0, 1.0, 1.0, 1.0])
        # within each tie run, original input order must survive
        np.testing.assert_array_equal(out["pos"], [1, 3, 0, 2, 4])

    def test_descending_sort_stable_for_strings(self):
        t = table_from_arrays(
            "t",
            {
                "key": np.array(["b", "a", "b", "a"]),
                "pos": np.arange(4),
            },
        )
        out, _ = operators.sort(t, "key", descending=True)
        np.testing.assert_array_equal(out["pos"], [0, 2, 1, 3])

    def test_limit_truncates(self, fact):
        out, stats = operators.limit(fact, 2)
        assert out.num_rows == 2
        assert stats.tuples_out == 2

    def test_limit_beyond_size(self, fact):
        out, _ = operators.limit(fact, 100)
        assert out.num_rows == 6

    def test_limit_negative(self, fact):
        with pytest.raises(QueryError, match="non-negative"):
            operators.limit(fact, -1)
