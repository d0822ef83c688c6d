"""Tests for text tables and ASCII charts."""

from __future__ import annotations

import pytest

from repro.analysis import StepCurve, ascii_chart, format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        table = format_table(
            ["name", "value"], [["alpha", 1.5], ["b", 22.25]], title="demo"
        )
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]
        assert "1.50" in lines[3]
        assert "22.25" in lines[4]

    def test_column_count_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
        with pytest.raises(ValueError):
            format_table([], [])

    def test_empty_rows_ok(self):
        table = format_table(["a"], [])
        assert "a" in table


class TestAsciiChart:
    def make_series(self):
        return {
            "baseline": StepCurve([(0.0, 0.0), (10.0, 100.0)]),
            "response": StepCurve([(0.0, 0.0), (10.0, 20.0)]),
        }

    def test_contains_legend_and_axes(self):
        chart = ascii_chart(self.make_series(), width=40, height=10, title="t")
        assert "o=baseline" in chart
        assert "*=response" in chart
        assert "100" in chart  # y max label
        assert "(hours)" in chart

    def test_series_glyphs_plotted(self):
        chart = ascii_chart(self.make_series(), width=40, height=10)
        assert "o" in chart
        assert "*" in chart

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ascii_chart(self.make_series(), width=10, height=10)
        with pytest.raises(ValueError):
            ascii_chart({}, width=40, height=10)

    def test_too_many_series_rejected(self):
        series = {f"s{i}": StepCurve.constant(1.0) for i in range(9)}
        with pytest.raises(ValueError):
            ascii_chart(series, width=40, height=10)

    def test_flat_zero_series_supported(self):
        chart = ascii_chart({"flat": StepCurve.constant(0.0)}, width=40, height=10)
        assert "flat" in chart
