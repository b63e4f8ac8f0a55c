import math

import numpy as np

from nonholo.svgplot import Panel, figure_panels


def _svg(tmp_path, *curves, name="p.svg"):
    panel = Panel("title", "x", "y")
    for label, x, y in curves:
        panel.add(label, x, y)
    figure_panels([panel], tmp_path / name, columns=1)
    return (tmp_path / name).read_text()


def _tick_labels(svg):
    return [line for line in svg.splitlines() if "text-anchor" in line
            and 'font-size="10"' in line]


def test_lists_and_arrays_give_the_same_bytes(tmp_path):
    t = np.linspace(0.0, 50.0, 50001)
    y = np.sin(t) * np.exp(-0.05 * t)
    as_arrays = _svg(tmp_path, ("a", t, y), ("b", t, 2.0 * y), name="a.svg")
    as_lists = _svg(tmp_path, ("a", t.tolist(), y.tolist()),
                    ("b", list(t), list(2.0 * y)), name="l.svg")
    assert as_arrays == as_lists
    panel = Panel("title", "x", "y").add("a", t, y)
    _, x_kept, y_kept = panel.curves[0]
    assert x_kept is t and y_kept is y      # float arrays are kept, not copied


def test_undrawn_extreme_sets_the_axis_range(tmp_path):
    n = 50000
    step = n // 2000
    x = np.arange(n, dtype=float)
    y = np.sin(x / 500.0)
    spiked = y.copy()
    spiked[step // 2] = 500.0       # a sample the polyline skips
    plain, spike = _svg(tmp_path, ("c", x, y), name="a.svg"), \
        _svg(tmp_path, ("c", x, spiked), name="b.svg")
    assert ">400</text>" in spike and ">400</text>" not in plain
    assert "500.00" not in spike    # the spike itself is not drawn


def test_non_finite_samples_are_left_out(tmp_path):
    x = np.linspace(0.0, 9.0, 10)
    y = np.cos(x)
    bad_x, bad_y = x.copy(), y.copy()
    # interior samples, so leaving them out moves neither axis range
    bad_y[1], bad_x[5], bad_y[6] = math.nan, math.inf, -math.inf
    keep = np.isfinite(bad_x) & np.isfinite(bad_y)
    svg = _svg(tmp_path, ("c", bad_x, bad_y), name="a.svg")
    assert svg.endswith("</svg>\n")
    assert "nan" not in svg and "inf" not in svg
    # the ranges come from the finite samples, so this is the same plot
    assert svg == _svg(tmp_path, ("c", x[keep], y[keep]), name="b.svg")


def test_all_non_finite_curve_and_empty_panels_keep_the_default_range(
        tmp_path):
    empty = _svg(tmp_path, name="a.svg")
    assert ">0.25</text>" in empty and ">1</text>" in empty
    labels = _tick_labels(empty)
    assert _tick_labels(_svg(tmp_path, ("c", [], []), name="b.svg")) == labels
    assert _tick_labels(_svg(tmp_path, ("c", [math.nan, math.inf], [-math.inf, math.nan]),
                             name="c.svg")) == labels
