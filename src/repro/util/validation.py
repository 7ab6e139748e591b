"""Small argument-validation helpers used across the library.

These raise ``ValueError`` with messages that name the offending
parameter, so misuse surfaces at the API boundary instead of deep inside
a sampler loop.
"""

from __future__ import annotations

def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_in_range(value: float, lo: float, hi: float, name: str) -> None:
    """Require ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
