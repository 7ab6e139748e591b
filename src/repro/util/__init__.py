"""Shared utilities: deterministic RNG plumbing, cost clocks, text plots.

These helpers carry no SciBORQ semantics of their own; they exist so the
substantive modules stay focused.  Everything here is deterministic under
a fixed seed, which the test-suite and benchmark harness rely on.
"""

from repro.util.rng import RandomSource, ensure_rng, spawn_rngs
from repro.util.clock import CostClock, WallClock, ExecutionContext
from repro.util.concurrency import ReadWriteLock
from repro.util.textplot import ascii_histogram, format_table
from repro.util.validation import (
    require,
    require_positive,
    require_in_range,
)

__all__ = [
    "RandomSource",
    "ensure_rng",
    "spawn_rngs",
    "CostClock",
    "WallClock",
    "ExecutionContext",
    "ReadWriteLock",
    "ascii_histogram",
    "format_table",
    "require",
    "require_positive",
    "require_in_range",
]
