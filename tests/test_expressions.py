"""Tests for the predicate AST: evaluation, predicate-set extraction,
fingerprints."""

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.columnstore.expressions import (
    And,
    Between,
    Comparison,
    Not,
    Or,
    RadialPredicate,
    TruePredicate,
    col_eq,
)
from repro.columnstore.operators import _BlockView, select
from repro.columnstore.table import Table
from repro.errors import QueryError
from table_helpers import table_from_arrays


@pytest.fixture
def table() -> Table:
    return table_from_arrays(
        "t",
        {
            "x": np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            "y": np.array([0.0, 0.0, 2.0, 0.0, 4.0]),
            "tag": np.array([0, 1, 0, 1, 0]),
        },
    )


class TestEvaluation:
    def test_true_predicate_matches_all(self, table):
        assert TruePredicate().evaluate(table).all()

    @pytest.mark.parametrize(
        "op,expected",
        [
            ("<", [True, True, False, False, False]),
            ("<=", [True, True, True, False, False]),
            (">", [False, False, False, True, True]),
            (">=", [False, False, True, True, True]),
            ("==", [False, False, True, False, False]),
            ("!=", [True, True, False, True, True]),
        ],
    )
    def test_comparisons(self, table, op, expected):
        mask = Comparison("x", op, 2.0).evaluate(table)
        np.testing.assert_array_equal(mask, expected)

    def test_unknown_operator(self):
        with pytest.raises(QueryError, match="unknown comparison"):
            Comparison("x", "<>", 1)

    def test_between_inclusive(self, table):
        mask = Between("x", 1.0, 3.0).evaluate(table)
        np.testing.assert_array_equal(mask, [False, True, True, True, False])

    def test_between_inverted_bounds(self):
        with pytest.raises(QueryError, match="inverted"):
            Between("x", 3.0, 1.0)

    def test_radial(self, table):
        mask = RadialPredicate("x", "y", 0.0, 0.0, 1.5).evaluate(table)
        np.testing.assert_array_equal(mask, [True, True, False, False, False])

    def test_radial_negative_radius(self):
        with pytest.raises(QueryError, match="non-negative"):
            RadialPredicate("x", "y", 0, 0, -1)

    @pytest.mark.parametrize("x_dtype", ["float64", "float32"])
    @pytest.mark.parametrize("tier", ["hot", "warm"])
    def test_radial_in_place_matches_textbook_formula(self, tier, x_dtype):
        """The in-place distance is the textbook ``dx*dx + dy*dy``
        mask, bit for bit — NaN and ±inf included, on zero-copy hot
        reads and on warm blocks decoded into scratch buffers — and it
        writes into no column it reads."""
        block, n = 256, 2048
        rng = np.random.default_rng(7)
        cx, cy, radius = 0.25, -0.5, 2.0
        x = rng.uniform(-3.0, 3.0, n).astype(x_dtype)
        y = rng.uniform(-3.0, 3.0, n)
        # a quarter of the rows on the rim, where one rounding decides
        rim = rng.choice(n, size=n // 4, replace=False)
        dx = x[rim].astype(np.float64) - cx
        y[rim] = cy + np.sqrt(np.clip(radius * radius - dx * dx, 0.0, None))
        specials = rng.choice(n // 2, size=40, replace=False)  # first half only
        x[specials[:20]] = rng.choice([np.nan, np.inf, -np.inf], size=20)
        y[specials[20:]] = rng.choice([np.nan, np.inf, -np.inf], size=20)
        table = Table(
            "t",
            [
                Column("x", x_dtype, x, block_size=block),
                Column("y", "float64", y, block_size=block),
            ],
        )
        if tier == "warm":
            for name in ("x", "y"):
                for b in range(n // block):
                    # finite blocks quantise; blocks holding NaN / inf
                    # fall through to cold — both decode on read
                    assert table.column(name).demote(b, "warm")
        before = {name: table.column(name).values.copy() for name in ("x", "y")}
        predicate = RadialPredicate("x", "y", cx, cy, radius)

        def textbook(view) -> np.ndarray:
            dx = view["x"] - predicate.cx
            dy = view["y"] - predicate.cy
            return dx * dx + dy * dy <= predicate.radius * predicate.radius

        for start in range(0, n, 300):  # spans straddle block boundaries
            view = _BlockView(table, start, min(start + 300, n))
            expected = textbook(view)
            np.testing.assert_array_equal(predicate.evaluate(view), expected)
        np.testing.assert_array_equal(predicate.evaluate(table), textbook(table))
        indices, _ = select(table, predicate)
        np.testing.assert_array_equal(indices, np.flatnonzero(textbook(table)))
        for name, values in before.items():
            assert table.column(name).values.copy().tobytes() == values.tobytes()

    def test_and_or_not(self, table):
        expr = (Between("x", 1, 3) & col_eq("tag", 1)) | Not(
            Comparison("x", "<", 4)
        )
        mask = expr.evaluate(table)
        np.testing.assert_array_equal(mask, [False, True, False, True, True])

    def test_empty_conjunction_rejected(self):
        with pytest.raises(QueryError):
            And([])
        with pytest.raises(QueryError):
            Or([])


class TestRequestedValues:
    def test_equality_logs_point(self):
        assert col_eq("x", 5).requested_values() == {"x": [5.0]}

    def test_non_numeric_equality_logs_nothing(self):
        assert col_eq("name", "abc").requested_values() == {}

    def test_between_logs_midpoint(self):
        assert Between("x", 10, 20).requested_values() == {"x": [15.0]}

    def test_radial_logs_centre_per_axis(self):
        values = RadialPredicate("ra", "dec", 185, 0, 3).requested_values()
        assert values == {"ra": [185.0], "dec": [0.0]}

    def test_conjunction_merges_per_attribute(self):
        expr = And([col_eq("x", 1), col_eq("x", 2), col_eq("y", 3)])
        values = expr.requested_values()
        assert values["x"] == [1.0, 2.0] and values["y"] == [3.0]

    def test_negation_expresses_disinterest(self):
        assert Not(col_eq("x", 1)).requested_values() == {}


class TestFingerprints:
    def test_same_predicate_same_fingerprint(self):
        a = Between("x", 1, 2) & col_eq("y", 3)
        b = Between("x", 1, 2) & col_eq("y", 3)
        assert a.fingerprint() == b.fingerprint()

    def test_different_constants_differ(self):
        assert (
            Between("x", 1, 2).fingerprint() != Between("x", 1, 3).fingerprint()
        )

    def test_columns_collection(self):
        expr = RadialPredicate("ra", "dec", 0, 0, 1) & col_eq("t", 1)
        assert expr.columns() == {"ra", "dec", "t"}
