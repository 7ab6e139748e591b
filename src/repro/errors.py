"""Exception hierarchy for the SciBORQ reproduction.

Every error raised by this library derives from :class:`SciborqError`, so
callers can catch one base class at an API boundary.  Subclasses are kept
fine-grained because the bounded query processor reacts differently to a
quality failure (escalate to a more detailed impression) than to a budget
failure (return the best available answer with its achieved bounds).
"""

from __future__ import annotations


class SciborqError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(SciborqError):
    """A table, column, or type does not match the declared schema."""


class UnknownTableError(SchemaError):
    """A query referenced a table that is not in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.name = name


class UnknownColumnError(SchemaError):
    """A query referenced a column that does not exist on its table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column {column!r} on table {table!r}")
        self.table = table
        self.column = column


class QueryError(SciborqError):
    """A query is malformed (bad predicate, aggregate, or join spec)."""


class LoadError(SciborqError):
    """A batch of tuples could not be appended to a table."""


class SamplingError(SciborqError):
    """A sampler was configured or fed inconsistently."""


class ImpressionError(SciborqError):
    """An impression or impression hierarchy is inconsistent."""


class QualityBoundError(SciborqError):
    """No impression (including base data) can satisfy an error bound.

    Raised only when the caller demands strict enforcement; the default
    bounded-execution mode degrades gracefully and reports the achieved
    bound instead.
    """

    def __init__(self, requested: float, achieved: float) -> None:
        super().__init__(
            f"requested relative error bound {requested:.4g} but the best "
            f"achievable bound is {achieved:.4g}"
        )
        self.requested = requested
        self.achieved = achieved


class BudgetExceededError(SciborqError):
    """A cost/time budget was exhausted before execution could finish.

    Raised only in strict mode; the default mode answers from the largest
    impression that fits the budget.
    """

    def __init__(self, budget: float, required: float) -> None:
        super().__init__(
            f"budget of {budget:.4g} cost units exceeded: cheapest "
            f"qualifying plan costs {required:.4g}"
        )
        self.budget = budget
        self.required = required


class EstimationError(SciborqError):
    """An estimator could not produce a value (e.g. empty sample)."""


class SessionError(SciborqError):
    """A server session was used incorrectly (e.g. after close)."""
