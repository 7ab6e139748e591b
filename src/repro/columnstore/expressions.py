"""Predicate expressions: the WHERE-clause AST.

Besides vectorised evaluation, expressions serve SciBORQ's workload
model: every query's predicates are logged, and the *requested values*
per attribute form the predicate set that steers biased sampling
(paper §4).  Each expression therefore knows how to report the
values it requests via :meth:`Expression.requested_values`.

Expressions also produce stable ``fingerprint`` strings so the recycler
can recognise a repeated selection without evaluating it.

For zone-map pruned scans every expression additionally answers
:meth:`Expression.keep_blocks`: given every block's per-column
:class:`~repro.columnstore.column.Zones`, which blocks must be scanned
because a row in them might match?  The mask is one vector operation
per predicate, however many blocks a table has.  Answers must be
conservative — True ("must scan") is always safe, False is a promise
that no row of the block matches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.columnstore.column import Zones
from repro.columnstore.table import Table
from repro.errors import QueryError

_NUMERIC = (int, float, np.integer, np.floating)

_COMPARATORS: Dict[str, Callable[[np.ndarray, object], np.ndarray]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class Expression:
    """Base class of all predicate expressions."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Return a boolean mask with one entry per row of ``table``."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """The set of column names this expression reads."""
        raise NotImplementedError

    def requested_values(self) -> Dict[str, List[float]]:
        """Per-attribute point values this predicate asks about.

        This is the contribution of one query to the workload's
        *predicate set*.  Range predicates report their midpoint —
        the paper logs the values "requested by the queries", and a
        cone search around (ra, dec) requests exactly its centre.
        Non-numeric predicates report nothing.
        """
        raise NotImplementedError

    def fingerprint(self) -> str:
        """A canonical string identifying this predicate for caching."""
        raise NotImplementedError

    def keep_blocks(self, zones: Mapping[str, Zones], num_blocks: int) -> np.ndarray:
        """Per block, whether it must be scanned (a boolean mask).

        ``zones`` maps column name to that column's :class:`Zones`, one
        entry per block; columns without zone maps are absent.  The
        default is the conservative "scan every block".
        """
        return np.ones(num_blocks, dtype=bool)

    # Composition sugar --------------------------------------------------
    def __and__(self, other: "Expression") -> "Expression":
        return And([self, other])

    def __or__(self, other: "Expression") -> "Expression":
        return Or([self, other])

    def __invert__(self) -> "Expression":
        return Not(self)

    def __repr__(self) -> str:
        return self.fingerprint()


class TruePredicate(Expression):
    """Matches every row; the default WHERE clause."""

    def evaluate(self, table: Table) -> np.ndarray:
        return np.ones(table.num_rows, dtype=bool)

    def columns(self) -> set[str]:
        return set()

    def requested_values(self) -> Dict[str, List[float]]:
        return {}

    def fingerprint(self) -> str:
        return "true"


class Comparison(Expression):
    """``column <op> literal`` for a scalar literal."""

    def __init__(self, column: str, op: str, value: object) -> None:
        if op not in _COMPARATORS:
            raise QueryError(
                f"unknown comparison operator {op!r}; "
                f"expected one of {sorted(_COMPARATORS)}"
            )
        self.column = column
        self.op = op
        self.value = value

    def evaluate(self, table: Table) -> np.ndarray:
        return _COMPARATORS[self.op](table[self.column], self.value)

    def columns(self) -> set[str]:
        return {self.column}

    def requested_values(self) -> Dict[str, List[float]]:
        if isinstance(self.value, (int, float, np.integer, np.floating)):
            return {self.column: [float(self.value)]}
        return {}

    def fingerprint(self) -> str:
        return f"({self.column}{self.op}{self.value!r})"

    def keep_blocks(self, zones: Mapping[str, Zones], num_blocks: int) -> np.ndarray:
        zone = zones.get(self.column)
        if zone is None or not isinstance(self.value, _NUMERIC):
            return np.ones(num_blocks, dtype=bool)
        lo, hi, value = zone.lo, zone.hi, self.value
        if self.op == "!=":
            # only a constant NaN-free run of exactly ``value`` fails;
            # an all-NaN block passes (NaN != anything)
            return zone.has_nan | (lo != value) | (hi != value)
        if self.op == "<":
            skip = lo >= value
        elif self.op == "<=":
            skip = lo > value
        elif self.op == ">":
            skip = hi <= value
        elif self.op == ">=":
            skip = hi < value
        else:  # "=="
            skip = (value < lo) | (value > hi)
        # an all-NaN block (lo > hi) fails every other comparison
        return ~(skip | (lo > hi))


class Between(Expression):
    """``lo <= column <= hi`` (inclusive on both ends)."""

    def __init__(self, column: str, lo: float, hi: float) -> None:
        if lo > hi:
            raise QueryError(f"between bounds inverted: [{lo}, {hi}]")
        self.column = column
        self.lo = lo
        self.hi = hi

    def evaluate(self, table: Table) -> np.ndarray:
        values = table[self.column]
        return (values >= self.lo) & (values <= self.hi)

    def columns(self) -> set[str]:
        return {self.column}

    def requested_values(self) -> Dict[str, List[float]]:
        return {self.column: [(float(self.lo) + float(self.hi)) / 2.0]}

    def fingerprint(self) -> str:
        return f"({self.column} between {self.lo!r} and {self.hi!r})"

    def keep_blocks(self, zones: Mapping[str, Zones], num_blocks: int) -> np.ndarray:
        zone = zones.get(self.column)
        if zone is None:
            return np.ones(num_blocks, dtype=bool)
        return ~((zone.lo > zone.hi) | (zone.hi < self.lo) | (zone.lo > self.hi))


class RadialPredicate(Expression):
    """Euclidean cone search: points within ``radius`` of a centre.

    This is the predicate behind SkyServer's ``fGetNearbyObjEq`` —
    "all objects found in a nearby area specified by ra=185 and dec=0"
    (paper §2.1).  We use the Euclidean small-angle approximation,
    which is what most SkyServer neighbourhood helpers compute for
    radii of a few arcminutes.
    """

    def __init__(
        self, x_column: str, y_column: str, cx: float, cy: float, radius: float
    ) -> None:
        if radius < 0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        self.x_column = x_column
        self.y_column = y_column
        self.cx = float(cx)
        self.cy = float(cy)
        self.radius = float(radius)

    def evaluate(self, table: Table) -> np.ndarray:
        # dx*dx + dy*dy in place: the same IEEE operations in the same
        # order, in the two differences' own buffers — never in the
        # column reads, which may be zero-copy views or scratch buffers
        dx = table[self.x_column] - self.cx
        dx *= dx
        dy = table[self.y_column] - self.cy
        dy *= dy
        # mixed-precision axes promote the sum, exactly as `dx + dy` would
        total = np.add(dx, dy, out=dx if dx.dtype == dy.dtype else None)
        return total <= self.radius * self.radius

    def columns(self) -> set[str]:
        return {self.x_column, self.y_column}

    def requested_values(self) -> Dict[str, List[float]]:
        return {self.x_column: [self.cx], self.y_column: [self.cy]}

    def fingerprint(self) -> str:
        return (
            f"(near {self.x_column}={self.cx!r} {self.y_column}={self.cy!r} "
            f"r={self.radius!r})"
        )

    def keep_blocks(self, zones: Mapping[str, Zones], num_blocks: int) -> np.ndarray:
        # the cone's bounding box must intersect both axis zones
        keep = np.ones(num_blocks, dtype=bool)
        for column, centre in (
            (self.x_column, self.cx),
            (self.y_column, self.cy),
        ):
            zone = zones.get(column)
            if zone is not None:
                keep &= ~(
                    (zone.lo > zone.hi)
                    | (zone.hi < centre - self.radius)
                    | (zone.lo > centre + self.radius)
                )
        return keep


class And(Expression):
    """Conjunction of sub-expressions."""

    def __init__(self, operands: Sequence[Expression]) -> None:
        if not operands:
            raise QueryError("And requires at least one operand")
        self.operands = list(operands)

    def evaluate(self, table: Table) -> np.ndarray:
        mask = self.operands[0].evaluate(table)
        for operand in self.operands[1:]:
            mask = mask & operand.evaluate(table)
        return mask

    def columns(self) -> set[str]:
        return set().union(*(op.columns() for op in self.operands))

    def requested_values(self) -> Dict[str, List[float]]:
        return _merge_requested(op.requested_values() for op in self.operands)

    def fingerprint(self) -> str:
        return "(and " + " ".join(op.fingerprint() for op in self.operands) + ")"

    def keep_blocks(self, zones: Mapping[str, Zones], num_blocks: int) -> np.ndarray:
        keep = self.operands[0].keep_blocks(zones, num_blocks)
        for op in self.operands[1:]:
            keep = keep & op.keep_blocks(zones, num_blocks)
        return keep


class Or(Expression):
    """Disjunction of sub-expressions."""

    def __init__(self, operands: Sequence[Expression]) -> None:
        if not operands:
            raise QueryError("Or requires at least one operand")
        self.operands = list(operands)

    def evaluate(self, table: Table) -> np.ndarray:
        mask = self.operands[0].evaluate(table)
        for operand in self.operands[1:]:
            mask = mask | operand.evaluate(table)
        return mask

    def columns(self) -> set[str]:
        return set().union(*(op.columns() for op in self.operands))

    def requested_values(self) -> Dict[str, List[float]]:
        return _merge_requested(op.requested_values() for op in self.operands)

    def fingerprint(self) -> str:
        return "(or " + " ".join(op.fingerprint() for op in self.operands) + ")"

    def keep_blocks(self, zones: Mapping[str, Zones], num_blocks: int) -> np.ndarray:
        keep = self.operands[0].keep_blocks(zones, num_blocks)
        for op in self.operands[1:]:
            keep = keep | op.keep_blocks(zones, num_blocks)
        return keep


class Not(Expression):
    """Negation of a sub-expression.

    A negated predicate expresses *disinterest*, so it contributes
    nothing to the predicate set.
    """

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, table: Table) -> np.ndarray:
        return ~self.operand.evaluate(table)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def requested_values(self) -> Dict[str, List[float]]:
        return {}

    def fingerprint(self) -> str:
        return f"(not {self.operand.fingerprint()})"


def _merge_requested(
    parts: "object",
) -> Dict[str, List[float]]:
    merged: Dict[str, List[float]] = {}
    for part in parts:
        for column, values in part.items():
            merged.setdefault(column, []).extend(values)
    return merged


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def col_eq(column: str, value: object) -> Comparison:
    """Shorthand for ``Comparison(column, "==", value)``."""
    return Comparison(column, "==", value)
