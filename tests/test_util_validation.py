"""Tests for argument-validation helpers."""

import pytest

from repro.util.validation import (
    require,
    require_in_range,
    require_positive,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="broken invariant"):
            require(False, "broken invariant")


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive(0.1, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be positive"):
            require_positive(value, "x")


class TestRequireInRange:
    def test_accepts_bounds_inclusive(self):
        require_in_range(0, 0, 1, "x")
        require_in_range(1, 0, 1, "x")

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match=r"x must be in \[0, 1\]"):
            require_in_range(1.5, 0, 1, "x")
