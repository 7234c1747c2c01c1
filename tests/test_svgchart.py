"""SVG line charts: escaping and non-finite points."""

import re

import numpy as np

from slds_mse.svgchart import line_chart


def test_non_finite_points_break_the_line():
    y = np.array([1.0, 2.0, np.nan, 3.0, np.inf, 4.0, 5.0])
    svg = line_chart([("a<b & c", np.arange(7), y),
                      ("lost", np.arange(3), np.full(3, -np.inf))])
    assert not re.search(r"nan|inf", svg, re.IGNORECASE)
    # finite runs [0, 2), [3, 4) and [5, 7); the all-infinite series
    # keeps its legend entry but draws nothing
    assert svg.count("<polyline") == 3
    assert "a&lt;b &amp; c" in svg and ">lost</text>" in svg
    # the y axis spans the finite values only: 0 to 5 plus 5% headroom
    ticks = re.findall(r'text-anchor="end" font-family="monospace" '
                       r'font-size="11">([^<]*)<', svg)
    assert ticks[0] == "0" and ticks[-1] == "5.25"


def test_headroom_near_overflow_stays_finite():
    svg = line_chart([("huge", [0, 1, 2], [0.0, 1e300, 1.75e308])])
    assert not re.search(r"nan|inf", svg, re.IGNORECASE)


def test_quotes_are_not_escaped():
    svg = line_chart([("mode \"1\" 'kf'", [0, 1], [1.0, 2.0])])
    assert ">mode \"1\" 'kf'</text>" in svg
