"""Tests for reporting: table renderers, figure series, exporters."""

import csv
import json

import pytest

from repro.core.skill import compute_skill
from repro.lifecycle.events import A, CveTimeline, D, P
from repro.reporting.export import export_csv, export_json
from repro.reporting.figures import FigureSeries, downsample_cdf, figure_series
from repro.reporting.tables import render_skill_table, render_table3, render_table6
from repro.util.stats import Ecdf
from repro.util.timeutil import utc


def _timeline():
    timeline = CveTimeline(cve_id="CVE-X")
    timeline.set(P, utc(2022, 1, 1))
    timeline.set(D, utc(2022, 1, 3))
    timeline.set(A, utc(2022, 1, 5))
    return timeline


class TestTableRendering:
    def test_skill_table_layout(self):
        text = render_skill_table(compute_skill([_timeline()]), title="T4")
        lines = text.splitlines()
        assert lines[0] == "T4"
        assert "Desideratum" in lines[1]
        assert any("D < A" in line for line in lines)

    def test_table3_both_variants(self):
        hs = render_table3("householder-spring")
        tw = render_table3("this-work")
        assert hs != tw
        assert "V" in hs and "A" in hs

    def test_table6_renders_none_as_dash(self):
        text = render_table6([["A", 58722, None, "HTTP URI", "jndi", "", 0]])
        assert "-" in text.splitlines()[-1]


class TestFigureSeries:
    def test_from_ecdf(self):
        series = figure_series("s", Ecdf.from_values([1.0, 2.0]))
        assert series.points == [(1.0, 0.5), (2.0, 1.0)]

    def test_from_pairs(self):
        series = figure_series("s", [(0, 1), (1, 2)])
        assert series.n == 2

    def test_summary_truncates(self):
        series = FigureSeries("big", [(float(i), float(i)) for i in range(100)])
        text = series.summary(max_points=5)
        assert "[100 pts]" in text
        assert text.count("(") == 5

    def test_summary_empty(self):
        assert "(empty)" in FigureSeries("e", []).summary()

    def test_series_and_downsample_equal_elementwise_oracle(self):
        cdf = Ecdf.from_values([0.1 * i for i in range(997)] + [3.0] * 5)
        full = [(float(x), float(p)) for x, p in zip(cdf.xs, cdf.ps)]
        assert cdf.series() == full
        assert all(type(x) is float for point in cdf.series() for x in point)
        for points in (2, 7, 200, 1002, 5000):
            if len(full) <= points:
                expected = full
            else:
                step = (len(full) - 1) / (points - 1)
                expected = [full[round(i * step)] for i in range(points)]
            assert downsample_cdf(cdf, points=points).points == expected

    def test_downsample_bounds(self):
        cdf = Ecdf.from_values(list(range(1000)))
        series = downsample_cdf(cdf, points=50)
        assert series.n == 50
        assert series.points[0][0] == 0.0
        assert series.points[-1][1] == 1.0


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        series = [
            FigureSeries("a", [(0.0, 0.5), (1.0, 1.0)]),
            FigureSeries("b", [(2.0, 0.25)]),
        ]
        path = tmp_path / "out.csv"
        assert export_csv(path, series) == 3
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0] == {"series": "a", "x": "0", "y": "0.5"}
        assert {row["series"] for row in rows} == {"a", "b"}

    def test_json_export(self, tmp_path):
        path = tmp_path / "out.json"
        export_json(path, {"measured": {"D < A": 0.56}, "when": utc(2023, 1, 1)})
        payload = json.loads(path.read_text())
        assert payload["measured"]["D < A"] == 0.56
