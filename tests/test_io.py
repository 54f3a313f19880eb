"""CSV/SVG emission: schemas, float fidelity, refusal of empty output."""

import math
import os

import pytest

from awrlab.io import emit_csv, emit_svg_plot, format_float


class TestCsv:
    def test_floats_round_trip_exactly(self, tmp_path):
        values = [math.pi, 1.0 / 3.0, 1e-300, 123456789.123456789]
        path = str(tmp_path / "x.csv")
        emit_csv(["v"], [(v,) for v in values], path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "v"
        assert [float(s) for s in lines[1:]] == values

    def test_column_order_preserved(self, tmp_path):
        path = str(tmp_path / "y.csv")
        emit_csv(["b", "a"], [(1.0, 2.0)], path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().strip() == "b,a"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(["a"], [], str(tmp_path / "z.csv"))

    def test_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(["a", "b"], [(1.0,)], str(tmp_path / "w.csv"))

    def test_format_float_17_significant_digits(self):
        assert format_float(math.pi) == f"{math.pi:.17g}"
        assert float(format_float(0.1)) == 0.1


class TestSvg:
    def test_basic_plot_structure(self, tmp_path):
        path = str(tmp_path / "p.svg")
        xs = [0.0, 1.0, 2.0]
        emit_svg_plot({"a": (xs, [1.0, 2.0, 3.0]), "b": (xs, [3.0, 2.0, 1.0])}, path, "p")
        with open(path, encoding="utf-8") as fh:
            svg = fh.read()
        assert svg.startswith("<svg")
        assert 'version="1.1"' in svg
        assert svg.count("<polyline") == 2
        assert svg.count("<line") == 2  # both axes
        assert ">p</text>" in svg  # the title

    def test_log_scale_skips_nonpositive(self, tmp_path):
        path = str(tmp_path / "q.svg")
        emit_svg_plot({"a": ([0.0, 1.0, 2.0], [1.0, 0.0, 10.0])}, path, "q", log_y=True)
        with open(path, encoding="utf-8") as fh:
            svg = fh.read()
        # only the two positive points survive on the polyline
        poly = [l for l in svg.split("\n") if "<polyline" in l][0]
        assert poly.count(",") >= 2

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg_plot({}, str(tmp_path / "e.svg"), "e")
