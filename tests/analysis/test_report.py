"""Tests for table rendering."""

import pytest

from repro.analysis.report import format_ratio, render_table


class TestRenderTable:
    def test_basic_shape(self):
        table = render_table(["a", "bb"], [[1, 2], [33, 44]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", "+"}

    def test_title(self):
        table = render_table(["x"], [[1]], title="E1 results")
        assert table.splitlines()[0] == "E1 results"

    def test_column_alignment(self):
        table = render_table(["col"], [["short"], ["a longer cell"]])
        lines = table.splitlines()
        assert len(lines[2]) == len(lines[3])

    def test_row_width_validation(self):
        with pytest.raises(ValueError, match="header"):
            render_table(["a"], [[1, 2]])


class TestFormatting:
    def test_format_ratio(self):
        assert format_ratio(0) == "0"
        assert format_ratio(0.25) == "0.250"
        assert "e" in format_ratio(0.00001)
