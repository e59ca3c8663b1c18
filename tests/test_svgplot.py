"""Standalone SVG plots: which points a polyline draws, the embedded data,
and the tick ladders."""
import math
import re

import pytest

from decwt.svgplot import Curve, render_plot, ticks_125, ticks_decades


def polyline_points(text):
    return [re.search(r'points="([^"]*)"', line).group(1).split()
            for line in text.splitlines() if line.startswith("<polyline")]


def embedded_rows(text, label):
    block = text.split(f'<!-- data "{label}" (x,y):\n', 1)[1]
    return block.split("\n-->", 1)[0].splitlines()


def test_ylog_drops_non_positive_and_non_finite_points_from_polyline_only():
    c = Curve.of("c", [0, 1, 2, 3, 4, math.inf],
                 [1.0, -2.0, 0.0, math.nan, 10.0, 5.0])
    text = render_plot([c], "title", "x", "y", provenance="p", ylog=True)
    (pts,) = polyline_points(text)
    assert len(pts) == 2  # (0, 1) and (4, 10)
    (x0, y0), (x1, y1) = (tuple(map(float, p.split(","))) for p in pts)
    assert x0 < x1 and y1 < y0  # larger y sits higher on the page
    assert embedded_rows(text, "c") == ["0.0,1.0", "1.0,-2.0", "2.0,0.0",
                                        "3.0,nan", "4.0,10.0", "inf,5.0"]


def test_linear_axis_keeps_non_positive_points():
    c = Curve.of("c", [0, 1, 2, 3], [1.0, -2.0, 0.0, math.nan])
    (pts,) = polyline_points(render_plot([c], "t", "x", "y", provenance="p"))
    assert len(pts) == 3


@pytest.mark.parametrize("ylog,ys", [(True, [0.0, -1.0, math.nan]),
                                     (False, [math.nan, math.inf, -math.inf])])
def test_nothing_plottable_raises(ylog, ys):
    with pytest.raises(ValueError):
        render_plot([Curve.of("c", [0, 1, 2], ys)], "t", "x", "y",
                    provenance="p", ylog=ylog)


def test_render_is_deterministic_and_escapes_text():
    curves = [Curve.of("a<b", [0, 1], [0.0, 1.0]),
              Curve.of("c", [0, 1], [1.0, 0.0], dash="6,4")]
    text = render_plot(curves, "x & y", "x", "y", provenance="a -- b")
    assert text == render_plot(curves, "x & y", "x", "y", provenance="a -- b")
    assert "x &amp; y" in text and "a&lt;b" in text
    assert "<!-- a - b -->" in text  # no "--" inside an XML comment
    assert text.count('stroke-dasharray="6,4"') == 2  # polyline and legend


def test_tick_ladders():
    assert ticks_125(0.0, 1.0) == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert ticks_125(-0.04, 4.04) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert ticks_decades(0.5, 200.0) == [1.0, 10.0, 100.0]
