"""Tests for cost clocks."""

import pytest

from repro.util.clock import CostClock, WallClock


class TestCostClock:
    def test_starts_at_zero(self):
        assert CostClock().now == 0.0

    def test_charge_accumulates(self):
        clock = CostClock()
        clock.charge(10)
        clock.charge(2.5)
        assert clock.now == 12.5

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CostClock().charge(-1)

    def test_reset(self):
        clock = CostClock()
        clock.charge(5)
        clock.reset()
        assert clock.now == 0.0


class TestWallClock:
    def test_advances_on_its_own(self):
        clock = WallClock()
        before = clock.now
        for _ in range(1000):
            pass
        assert clock.now >= before

    def test_charge_is_noop(self):
        clock = WallClock()
        clock.charge(1e9)  # must not explode or jump the clock by 1e9
        assert clock.now < 1.0

    def test_reset_restarts(self):
        clock = WallClock()
        clock.reset()
        assert clock.now < 1.0
