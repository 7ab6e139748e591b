"""Tests for the ASCII rendering helpers."""

import numpy as np
import pytest

from repro.util.textplot import ascii_histogram, format_table


class TestAsciiHistogram:
    def test_scales_to_width(self):
        text = ascii_histogram([1, 2, 4], width=8)
        lines = text.splitlines()
        assert lines[-1].count("█") == 8  # tallest bin fills the width
        assert lines[0].count("█") == 2

    def test_labels_with_edges(self):
        text = ascii_histogram([5], edges=[0.0, 1.0])
        assert "[" in text and ")" in text

    def test_title_prepended(self):
        assert ascii_histogram([1], title="T").splitlines()[0] == "T"

    def test_all_zero_counts(self):
        text = ascii_histogram([0, 0])
        assert "█" not in text

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ascii_histogram(np.zeros((2, 2)))


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_float_formatting(self):
        text = format_table(["v"], [[3.14159265]])
        assert "3.142" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            format_table(["a"], [[1, 2]])

    def test_header_only(self):
        text = format_table(["x", "y"], [])
        assert "x" in text and "y" in text
