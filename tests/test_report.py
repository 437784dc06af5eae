"""Unit tests for table rendering and FigureResult, edge cases included."""

from repro.experiments.report import FigureResult, format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["x", "metric"], [[1, 0.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0].startswith("x")
        assert "0.500" in text and "0.250" in text

    def test_title(self):
        text = format_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_scientific_for_extremes(self):
        text = format_table(["v"], [[123456.0], [0.00001]])
        assert "1.23e+05" in text
        assert "1e-05" in text


class TestFigureResult:
    def _figure(self):
        return FigureResult(
            figure_id="figX",
            title="demo",
            x_label="memory",
            x_values=[1, 2],
            series={"HS": [0.1, 0.05], "OO": [0.4, 0.2]},
            notes=["a note"],
        )

    def test_to_table_contains_everything(self):
        text = self._figure().to_table()
        assert "[figX] demo" in text
        assert "HS" in text and "OO" in text
        assert "note: a note" in text

    def test_best_algorithm_lower(self):
        assert self._figure().best_algorithm_at(0) == "HS"

    def test_best_algorithm_higher(self):
        fig = self._figure()
        assert fig.best_algorithm_at(0, lower_is_better=False) == "OO"


class TestFormatTableEdges:
    def test_mixed_types(self):
        text = format_table(
            ["name", "count", "ratio"],
            [["HS", 12, 0.333333], ["OO", 3, 12345.678]],
        )
        assert "HS" in text and "12" in text
        assert "0.333" in text
        assert "1.23e+04" in text

    def test_zero_renders_plainly(self):
        assert "0" in format_table(["v"], [[0.0]])

    def test_negative_values(self):
        text = format_table(["v"], [[-0.5], [-12345.0]])
        assert "-0.500" in text
        assert "-1.23e+04" in text

    def test_column_wider_than_header(self):
        text = format_table(["x"], [["a-very-long-cell-value"]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[1])  # header padded to match


class TestFigureResultEdges:
    def test_single_point_figure(self):
        fig = FigureResult(
            figure_id="f", title="t", x_label="x",
            x_values=[1], series={"A": [2.0]},
        )
        assert "2.000" in fig.to_table()

    def test_notes_render_in_order(self):
        fig = FigureResult(
            figure_id="f", title="t", x_label="x",
            x_values=[1], series={"A": [1.0]},
            notes=["first", "second"],
        )
        text = fig.to_table()
        assert text.index("first") < text.index("second")

    def test_best_algorithm_tie_prefers_first_min(self):
        fig = FigureResult(
            figure_id="f", title="t", x_label="x",
            x_values=[1], series={"A": [1.0], "B": [1.0]},
        )
        assert fig.best_algorithm_at(0) in ("A", "B")

    def test_string_x_values(self):
        fig = FigureResult(
            figure_id="f", title="t", x_label="variant",
            x_values=["a/b", "c/d"], series={"A": [1.0, 2.0]},
        )
        assert "a/b" in fig.to_table()
