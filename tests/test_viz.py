import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lexevo.ca import CaInput, compute_ca, project_supplementary
from lexevo.errors import DataError, LayoutError, ValidationError
from lexevo.stats import TrendFit, YearlyCounts, fit_quadratic_trend
from lexevo.viz import (
    layout_word_cloud,
    render_bar_chart,
    render_ca_map,
    render_trend_chart,
    render_word_cloud,
    text_width,
    write_cloud_layout_tsv,
)

SVG = "{http://www.w3.org/2000/svg}"

WEIGHTS_30 = [(f"term{i:02d}", float(100 - 3 * i)) for i in range(30)]


def _svg_root(data: str) -> ET.Element:
    return ET.fromstring(data)  # raises on malformed XML


def _ca_model(dims=2):
    matrix = np.array(
        [[10, 2, 1, 0], [3, 8, 2, 1], [1, 3, 9, 4], [0, 1, 5, 12], [2, 4, 1, 6]],
        dtype=float,
    )
    rows = tuple(f"r{i}" for i in range(5))
    cols = ("alpha", "beta", "gamma", "delta")
    return compute_ca(CaInput(matrix, rows, cols), dims=dims), matrix


# --- text metrics -----------------------------------------------------------


def test_text_width_scales_linearly_with_font_size():
    assert text_width("data", 20.0) == pytest.approx(2 * text_width("data", 10.0))


def test_text_width_reflects_character_shapes():
    assert text_width("ill", 12.0) < text_width("mow", 12.0)
    assert text_width("", 12.0) == 0.0


# --- word cloud layout ---------------------------------------------------------


def test_single_term_is_centered():
    layout = layout_word_cloud([("data", 5.0)], canvas=(400.0, 300.0), seed=3)
    assert len(layout.placements) == 1
    p = layout.placements[0]
    assert (p.x, p.y) == (200.0, 150.0)


def test_layout_is_deterministic_per_seed():
    a = layout_word_cloud(WEIGHTS_30, seed=11)
    b = layout_word_cloud(WEIGHTS_30, seed=11)
    assert a == b
    c = layout_word_cloud(WEIGHTS_30, seed=12)
    assert a != c


def test_boxes_stay_inside_the_canvas_and_never_overlap():
    layout = layout_word_cloud(WEIGHTS_30, canvas=(640.0, 400.0), seed=5)
    cw, ch = layout.canvas
    boxes = [p.box for p in layout.placements]
    for x0, y0, x1, y1 in boxes:
        assert 0 <= x0 < x1 <= cw
        assert 0 <= y0 < y1 <= ch
    assert oracles.overlapping_pairs(boxes) == []


def test_font_sizes_follow_square_root_of_weight():
    layout = layout_word_cloud(WEIGHTS_30, seed=2)
    by_term = {p.term: p.font_size for p in layout.placements}
    w = dict(WEIGHTS_30)
    base_term, base_size = max(by_term.items(), key=lambda kv: kv[1])
    for term, size in by_term.items():
        expected = base_size * math.sqrt(w[term] / w[base_term])
        assert size == pytest.approx(expected, rel=1e-12)


def test_oversized_largest_term_is_a_layout_error():
    # A narrow canvas whose height keeps the font large: the term's box can
    # never fit horizontally, which must fail loudly rather than shrink.
    with pytest.raises(LayoutError, match="supercalifragilistic"):
        layout_word_cloud(
            [("supercalifragilistic", 10.0)], canvas=(40.0, 200.0), seed=0
        )


def test_unplaceable_lesser_terms_are_dropped_not_shrunk():
    # A tiny canvas fits the heaviest term but not many more at full size.
    weights = [(f"x{i}", 10.0) for i in range(12)]
    layout = layout_word_cloud(weights, canvas=(120.0, 60.0), seed=1)
    assert layout.placements  # the heaviest term always lands
    assert set(p.term for p in layout.placements).isdisjoint(layout.dropped)
    assert len(layout.placements) + len(layout.dropped) == 12
    sizes = {p.font_size for p in layout.placements}
    assert len(sizes) == 1  # equal weights keep equal sizes; no one shrank


def test_layout_validation():
    with pytest.raises(ValidationError):
        layout_word_cloud([])
    with pytest.raises(ValidationError):
        layout_word_cloud([("a", 0.0)])
    with pytest.raises(ValidationError):
        layout_word_cloud([("a", 1.0)], canvas=(0.0, 100.0))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_layout_never_overlaps_for_any_seed(seed):
    layout = layout_word_cloud(WEIGHTS_30, seed=seed)
    assert oracles.overlapping_pairs([p.box for p in layout.placements]) == []


def test_cloud_layout_tsv_lists_placements_and_dropped(tmp_path):
    layout = layout_word_cloud([("aa", 4.0), ("bb", 1.0)], seed=0)
    path = tmp_path / "cloud_layout.tsv"
    write_cloud_layout_tsv(layout, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "term\tx\ty\tsize"
    assert len(lines) == 1 + len(layout.placements) + len(layout.dropped)


# --- word cloud rendering -------------------------------------------------------


def test_render_word_cloud_is_valid_svg_with_one_text_per_placement():
    layout = layout_word_cloud(WEIGHTS_30, seed=4)
    data = render_word_cloud(layout)
    root = _svg_root(data)
    assert root.tag == f"{SVG}svg"
    texts = root.findall(f"{SVG}text")
    assert len(texts) == len(layout.placements)
    rendered_terms = {t.text for t in texts}
    assert rendered_terms == {p.term for p in layout.placements}


def test_render_word_cloud_text_is_deterministic():
    layout = layout_word_cloud(WEIGHTS_30, seed=9)
    assert render_word_cloud(layout) == render_word_cloud(layout)


def test_svg_escapes_markup_in_terms():
    layout = layout_word_cloud([("a<b&c", 2.0)], seed=0)
    data = render_word_cloud(layout)
    root = _svg_root(data)
    assert root.find(f"{SVG}text").text == "a<b&c"
    assert "a<b&c" not in data  # escaped in the text


# --- bar chart -------------------------------------------------------------------


def test_bar_lengths_are_linearly_proportional():
    data = render_bar_chart([("a", 10.0), ("b", 5.0), ("c", 0.0)])
    root = _svg_root(data)
    rects = root.findall(f"{SVG}rect")
    widths = [float(r.get("width")) for r in rects]
    assert widths[0] == pytest.approx(2 * widths[1], abs=1e-9)
    assert widths[2] == 0.0


def test_bar_chart_rejects_bad_values():
    with pytest.raises(ValidationError):
        render_bar_chart([])
    with pytest.raises(ValidationError, match="negative"):
        render_bar_chart([("a", -1.0)])
    with pytest.raises(ValidationError):
        render_bar_chart([("a", float("nan"))])


def test_bar_chart_escapes_labels():
    data = render_bar_chart([("<tag> & co", 3.0)], title="A & B")
    root = _svg_root(data)
    texts = [t.text for t in root.findall(f"{SVG}text")]
    assert "<tag> & co" in texts
    assert "A & B" in texts


@pytest.mark.parametrize("bars, height", [(1, 240), (30, 600)])
def test_bar_chart_height_is_18_per_bar_and_at_least_240(bars, height):
    root = _svg_root(render_bar_chart([(f"t{i}", 1.0) for i in range(bars)]))
    assert float(root.get("height")) == height


# --- trend chart -------------------------------------------------------------------


@pytest.fixture()
def trend_fixture():
    series = YearlyCounts(2009, tuple(2 * x * x + 3 for x in range(1, 11)))
    return series, fit_quadratic_trend(series)


def test_trend_chart_marks_each_forecast_year(trend_fixture):
    series, fit = trend_fixture
    data = render_trend_chart(series, fit, horizon=2)
    root = _svg_root(data)
    marks = [c for c in root.iter(f"{SVG}circle") if c.get("class") == "forecast"]
    assert [m.get("data-year") for m in marks] == ["2019", "2020"]
    for mark in marks:
        year = int(mark.get("data-year"))
        assert float(mark.get("data-value")) == fit.predict(year)
    bars = root.findall(f"{SVG}rect")
    assert len(bars) == len(series.counts)


def test_trend_chart_horizon_zero_has_no_forecast_markers(trend_fixture):
    series, fit = trend_fixture
    root = _svg_root(render_trend_chart(series, fit, horizon=0))
    assert [c for c in root.iter(f"{SVG}circle")] == []


def test_trend_chart_rejects_negative_horizon(trend_fixture):
    series, fit = trend_fixture
    with pytest.raises(ValidationError):
        render_trend_chart(series, fit, horizon=-1)


def test_trend_chart_curve_is_sampled_yearly(trend_fixture):
    series, fit = trend_fixture
    root = _svg_root(render_trend_chart(series, fit, horizon=3))
    polyline = root.find(f"{SVG}polyline")
    points = polyline.get("points").split()
    assert len(points) == len(series.counts) + 3


# --- correspondence map ---------------------------------------------------------------


def test_ca_map_draws_terms_years_and_a_chronological_trajectory():
    model, matrix = _ca_model()
    projections = [
        project_supplementary(model, matrix[:3].sum(axis=0), "2011"),
        project_supplementary(model, matrix[0], "2009"),
        project_supplementary(model, matrix[1], "2010"),
    ]
    root = _svg_root(render_ca_map(model, projections))
    groups = {g.get("class"): g for g in root.findall(f"{SVG}g")}
    assert "terms" in groups and "years" in groups and "trajectory" in groups

    term_labels = [t.text for t in groups["terms"].findall(f"{SVG}text")]
    assert term_labels == ["alpha", "beta", "gamma", "delta"]

    # n supplementary points -> n-1 segments, joined in year order
    lines = groups["trajectory"].findall(f"{SVG}line")
    assert len(lines) == 2
    year_labels = [t.text for t in groups["years"].findall(f"{SVG}text")]
    assert year_labels == ["2009", "2010", "2011"]
    first = lines[0]
    assert (first.get("x2"), first.get("y2")) == (
        lines[1].get("x1"),
        lines[1].get("y1"),
    )


def test_ca_map_axis_labels_carry_inertia_percentages():
    model, _ = _ca_model()
    text = render_ca_map(model)
    assert f"Dim 1 ({model.inertia_shares[0] * 100:.1f}%)" in text
    assert f"Dim 2 ({model.inertia_shares[1] * 100:.1f}%)" in text


def test_ca_map_requires_two_dimensions():
    matrix = np.array([[5, 1, 2], [1, 6, 1]], dtype=float)  # rank allows 1 dim
    model = compute_ca(CaInput(matrix, ("r0", "r1"), ("x", "y", "z")), dims=1)
    with pytest.raises(DataError):
        render_ca_map(model)


# --- shared SVG hygiene -----------------------------------------------------------


def test_no_negative_zero_coordinates_anywhere():
    model, matrix = _ca_model()
    projections = [project_supplementary(model, matrix[0], "2009")]
    series = YearlyCounts(2009, (1, 2, 4, 8))
    fit = fit_quadratic_trend(series)
    layout = layout_word_cloud(WEIGHTS_30, seed=1)
    for data in [
        render_word_cloud(layout),
        render_bar_chart([("a", 1.0)]),
        render_trend_chart(series, fit, 1),
        render_ca_map(model, projections),
    ]:
        assert "-0.000" not in data
        root = _svg_root(data)
        assert root.get("width") and root.get("height")
