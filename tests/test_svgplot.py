import xml.etree.ElementTree as ET

import pytest

from sscpolar.svgplot import Series, nice_ticks, render_gnuplot, render_line_plot


def sample_series():
    return [
        Series("latency A", [1, 2, 3, 4], [2.0, 3.5, 5.0, 8.0]),
        Series("latency B", [1, 2, 3, 4], [1.0, 1.5, 2.5, 4.0]),
    ]


class TestSvg:
    def test_well_formed_and_self_contained(self):
        svg = render_line_plot(sample_series(), "log2 N", "log2 latency", title="demo")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "href" not in svg  # no external assets
        assert len(svg.encode()) < 1 << 20

    def test_one_polyline_per_series(self):
        svg = render_line_plot(sample_series(), "x", "y", title="demo")
        assert svg.count("<polyline") == 2

    def test_labels_escaped(self):
        svg = render_line_plot([Series("a<b&c>d", [0, 1], [0, 1])], "x<1", "y&z", title="demo")
        assert "a&lt;b&amp;c&gt;d" in svg
        ET.fromstring(svg)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_line_plot([], "x", "y", title="demo")
        with pytest.raises(ValueError):
            render_line_plot([Series("nan", [0.0], [float("nan")])], "x", "y", title="demo")

    def test_mismatched_series(self):
        with pytest.raises(ValueError):
            Series("bad", [1, 2], [1])

    def test_constant_series_plots(self):
        svg = render_line_plot([Series("flat", [0, 1, 2], [5, 5, 5])], "x", "y", title="demo")
        ET.fromstring(svg)


class TestTicks:
    def test_unit_interval(self):
        ticks = nice_ticks(0.0, 1.0)
        assert ticks[0] == 0.0 and ticks[-1] == 1.0
        assert 3 <= len(ticks) <= 12

    def test_wide_range(self):
        ticks = nice_ticks(0, 12345)
        steps = {round(b - a, 6) for a, b in zip(ticks, ticks[1:])}
        assert len(steps) == 1

    def test_degenerate_range(self):
        assert len(nice_ticks(2.0, 2.0)) >= 2


class TestGnuplot:
    def test_script_contents(self):
        script = render_gnuplot(sample_series(), "x", "y", title="demo")
        assert script.count("EOD") == 4  # open + close per series
        assert 'set xlabel "x"' in script
        assert "plot $data0" in script
        assert 'title "latency B"' in script

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_gnuplot([], "x", "y", title="demo")
