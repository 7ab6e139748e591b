"""The scalar, one-block-at-a-time zone-map pruning rule, kept as a test
oracle for :meth:`repro.columnstore.expressions.Expression.keep_blocks`.

``prune(expression, zones)`` answers for one block, given its
per-column :class:`~repro.columnstore.column.Zone`: True when no row of
the block can match, so the block may be skipped.  This is the logic
the expressions carried before pruning became one vectorised keep-mask
over every block's zone arrays; the engine no longer uses it.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.columnstore.column import Zone
from repro.columnstore.expressions import (
    And,
    Between,
    Comparison,
    Expression,
    Or,
    RadialPredicate,
)

_NUMERIC = (int, float, np.integer, np.floating)


def prune(expression: Expression, zones: Mapping[str, Zone]) -> bool:
    """Whether a block with these per-column zones can be skipped."""
    if isinstance(expression, Comparison):
        zone = zones.get(expression.column)
        if zone is None or not isinstance(expression.value, _NUMERIC):
            return False
        if zone.empty:
            # an all-NaN block fails every comparison except ``!=``
            return expression.op != "!="
        value, op = expression.value, expression.op
        if op == "<":
            return bool(zone.lo >= value)
        if op == "<=":
            return bool(zone.lo > value)
        if op == ">":
            return bool(zone.hi <= value)
        if op == ">=":
            return bool(zone.hi < value)
        if op == "==":
            return bool(value < zone.lo or value > zone.hi)
        # "!=": only a constant NaN-free run of exactly ``value`` fails
        return bool(not zone.has_nan and zone.lo == zone.hi == value)
    if isinstance(expression, Between):
        zone = zones.get(expression.column)
        if zone is None:
            return False
        return bool(zone.empty or zone.hi < expression.lo or zone.lo > expression.hi)
    if isinstance(expression, RadialPredicate):
        # the cone's bounding box must intersect both axis zones
        for column, centre in (
            (expression.x_column, expression.cx),
            (expression.y_column, expression.cy),
        ):
            zone = zones.get(column)
            if zone is None:
                continue
            if (
                zone.empty
                or zone.hi < centre - expression.radius
                or zone.lo > centre + expression.radius
            ):
                return True
        return False
    if isinstance(expression, And):
        return any(prune(op, zones) for op in expression.operands)
    if isinstance(expression, Or):
        return all(prune(op, zones) for op in expression.operands)
    return False  # TruePredicate, Not: the conservative "must scan"
