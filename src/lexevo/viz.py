"""Deterministic static SVG figures: bar charts, the yearly-counts chart
with its fitted trend curve, word clouds, and the planar correspondence
map with the year trajectory.

Every renderer is a pure function that returns the SVG document as text:
identical inputs produce identical text. There are no clocks and no
unseeded randomness, and text extents come from a fixed built-in
character-width table (Helvetica metrics), so output does not depend on
the font environment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import artifacts
from .ca import CaModel, SupplementaryProjection
from .errors import DataError, LayoutError, ValidationError
from .stats import TrendFit, YearlyCounts

__all__ = [
    "Placement",
    "CloudLayout",
    "layout_word_cloud",
    "render_word_cloud",
    "render_bar_chart",
    "render_ca_map",
    "render_trend_chart",
    "write_cloud_layout_tsv",
    "text_width",
]

# Helvetica advance widths in 1/1000 em; anything unlisted (accented
# letters etc.) falls back to 556, the width of a lowercase "o".
_DEFAULT_WIDTH = 556
_CHAR_WIDTHS: dict[str, int] = {}
for _chars, _w in [
    (" ", 278), ("ijl", 222), ("f", 278), ("t", 278), ("r", 333),
    ("cksvxyz", 500), ("abdeghnopqu", 556), ("m", 833), ("w", 722),
    ("I", 278), ("J", 500), ("FTZ", 611), ("L", 556),
    ("ABEKPVXY", 667), ("CDHNRU", 722), ("GOQ", 778), ("M", 833), ("S", 667),
    ("W", 944),
    ("0123456789", 556), (".,:;", 278), ("-", 333), ("%", 889), ("&", 667),
    ("(", 333), (")", 333), ("'", 191), ('"', 355),
]:
    for _c in _chars:
        _CHAR_WIDTHS[_c] = _w
del _chars, _w, _c


def text_width(text: str, font_size: float) -> float:
    """Width of a string in canvas units at the given font size."""
    units = sum(_CHAR_WIDTHS.get(c, _DEFAULT_WIDTH) for c in text)
    return units / 1000.0 * font_size


def _fmt(x: float) -> str:
    """Fixed 3-decimal coordinate format; normalizes negative zero."""
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


#: The markup characters of XML text; an attribute value, always written
#: between double quotes, escapes the quote too.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = {**_TEXT_ESCAPES, ord('"'): "&quot;"}


def _escape(s: str) -> str:
    return s.translate(_TEXT_ESCAPES)


def _attr(s: str) -> str:
    return s.translate(_ATTR_ESCAPES)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


#: Width of every chart and of the correspondence map, and the height of
#: the trend chart and the map; a bar chart's height follows its bar count.
_CHART_WIDTH = 720
_CHART_HEIGHT = 480


def _svg_open(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'font-family="Helvetica, Arial, sans-serif">\n'
    )


def _title_elem(title: str) -> str:
    if not title:
        return ""
    return (
        f'<text x="{_fmt(_CHART_WIDTH / 2)}" y="18" text-anchor="middle" '
        f'font-size="14" font-weight="bold">{_escape(title)}</text>\n'
    )


# ---------------------------------------------------------------------------
# Word cloud
# ---------------------------------------------------------------------------

#: Font size of the heaviest cloud term, as a fraction of the canvas height.
_CLOUD_MAX_HEIGHT_FRAC = 0.22


@dataclass(frozen=True)
class Placement:
    term: str
    x: float  # box center
    y: float
    font_size: float
    box: tuple[float, float, float, float]  # x0, y0, x1, y1


@dataclass(frozen=True)
class CloudLayout:
    placements: tuple[Placement, ...]
    dropped: tuple[str, ...]
    canvas: tuple[float, float]


def _boxes_overlap(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float]
) -> bool:
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def layout_word_cloud(
    weights: Sequence[tuple[str, float]],
    canvas: tuple[float, float] = (800.0, 500.0),
    seed: int = 0,
) -> CloudLayout:
    """Place terms on an outward spiral from the canvas center.

    Font size is proportional to the square root of the weight, scaled so
    the heaviest term is ``_CLOUD_MAX_HEIGHT_FRAC`` of the canvas height.
    Terms are placed in descending weight order (ties by term); each takes
    the first collision-free spiral position. Terms that find no room are
    dropped and reported, never shrunk, so the size encoding stays honest.
    Deterministic for a fixed (weights, canvas, seed).
    """
    if not weights:
        raise ValidationError("word cloud needs at least one term")
    cw, ch = canvas
    if cw <= 0 or ch <= 0:
        raise ValidationError(f"canvas must be positive, got {canvas}")
    if any(w <= 0 for _, w in weights):
        raise ValidationError("term weights must be positive")

    order = sorted(weights, key=lambda tw: (-tw[1], tw[0]))
    w_max = order[0][1]
    max_size = _CLOUD_MAX_HEIGHT_FRAC * ch
    sizes = [max_size * math.sqrt(w / w_max) for _, w in order]
    # One uniform rescale when the boxes cannot possibly pack: this keeps
    # every size ratio (and thus the sqrt-of-weight encoding) intact,
    # whereas shrinking individual terms to fit would not.
    est_area = sum(text_width(t, s) * s for (t, _), s in zip(order, sizes))
    budget = 0.40 * cw * ch
    if est_area > budget:
        shrink = math.sqrt(budget / est_area)
        sizes = [s * shrink for s in sizes]
    rng = random.Random(seed)
    cx, cy = cw / 2.0, ch / 2.0
    dtheta = 0.4
    r_per_turn = max(4.0, min(cw, ch) / 40.0)
    r_limit = math.hypot(cw, ch)

    placements: list[Placement] = []
    boxes: list[tuple[float, float, float, float]] = []
    dropped: list[str] = []
    for rank, (term, _weight) in enumerate(order):
        size = sizes[rank]
        bw = text_width(term, size)
        bh = size
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        if bw > cw or bh > ch:
            if rank == 0:
                raise LayoutError(
                    f"canvas {cw}x{ch} too small for largest term {term!r} "
                    f"({bw:.0f}x{bh:.0f})"
                )
            dropped.append(term)
            continue

        found: tuple[float, float] | None = None
        step = 0
        while True:
            if step == 0:
                x, y = cx, cy
            else:
                theta = theta0 + step * dtheta
                r = r_per_turn * (step * dtheta) / (2.0 * math.pi)
                if r > r_limit:
                    break
                x = cx + r * math.cos(theta)
                y = cy + r * math.sin(theta)
            box = (x - bw / 2.0, y - bh / 2.0, x + bw / 2.0, y + bh / 2.0)
            inside = box[0] >= 0 and box[1] >= 0 and box[2] <= cw and box[3] <= ch
            if inside and not any(_boxes_overlap(box, b) for b in boxes):
                found = (x, y)
                break
            step += 1

        if found is None:
            if rank == 0:
                raise LayoutError(
                    f"canvas {cw}x{ch} too small for largest term {term!r}"
                )
            dropped.append(term)
            continue
        x, y = found
        box = (x - bw / 2.0, y - bh / 2.0, x + bw / 2.0, y + bh / 2.0)
        placements.append(Placement(term, x, y, size, box))
        boxes.append(box)

    return CloudLayout(tuple(placements), tuple(dropped), (cw, ch))


def render_word_cloud(layout: CloudLayout) -> str:
    cw, ch = layout.canvas
    parts = [_svg_open(cw, ch)]
    for i, p in enumerate(layout.placements):
        color = _PALETTE[i % len(_PALETTE)]
        baseline = p.y + 0.35 * p.font_size
        parts.append(
            f'<text x="{_fmt(p.x)}" y="{_fmt(baseline)}" text-anchor="middle" '
            f'font-size="{_fmt(p.font_size)}" fill="{color}">'
            f"{_escape(p.term)}</text>\n"
        )
    parts.append("</svg>\n")
    return "".join(parts)


def write_cloud_layout_tsv(layout: CloudLayout, dest: str | Path) -> None:
    """Layout debug dump: term, box-center coordinates, font size; dropped
    terms listed with empty coordinates."""
    placed, empty = layout.placements, [None] * len(layout.dropped)
    terms = [p.term for p in placed] + list(layout.dropped)
    xs, ys, sizes = ([getattr(p, a) for p in placed] + empty for a in ("x", "y", "font_size"))
    columns = (("term", str), ("x", float), ("y", float), ("size", float))
    artifacts.write_tsv(dest, columns, [terms, xs, ys, sizes])


# ---------------------------------------------------------------------------
# Bar chart
# ---------------------------------------------------------------------------


def render_bar_chart(
    categories: Sequence[tuple[str, float]],
    title: str = "",
) -> str:
    """Horizontal bar chart, max(240, 18 n + 60) high for n bars; bar
    lengths are linearly proportional to the values (all of which must be
    finite and non-negative)."""
    if not categories:
        raise ValidationError("bar chart needs at least one category")
    for label, value in categories:
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value for {label!r}")
        if value < 0:
            raise ValidationError(f"negative value for {label!r}: {value}")

    w, h = _CHART_WIDTH, max(240, 18 * len(categories) + 60)
    left, right, top, bottom = 150.0, 60.0, 30.0, 10.0
    plot_w = w - left - right
    plot_h = h - top - bottom
    vmax = max(value for _, value in categories) or 1.0
    n = len(categories)
    slot = plot_h / n
    bar_h = slot * 0.72

    parts = [_svg_open(w, h), _title_elem(title)]
    for i, (label, value) in enumerate(categories):
        y = top + i * slot + (slot - bar_h) / 2.0
        bw = value / vmax * plot_w
        parts.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(y)}" width="{_fmt(bw)}" '
            f'height="{_fmt(bar_h)}" fill="{_PALETTE[0]}"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y + bar_h / 2 + 4)}" '
            f'text-anchor="end" font-size="11">{_escape(label)}</text>\n'
        )
        parts.append(
            f'<text x="{_fmt(left + bw + 4)}" y="{_fmt(y + bar_h / 2 + 4)}" '
            f'text-anchor="start" font-size="10" fill="#444">'
            f"{_escape(_short_num(value))}</text>\n"
        )
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(top)}" x2="{_fmt(left)}" '
        f'y2="{_fmt(top + plot_h)}" stroke="#222" stroke-width="1"/>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def _short_num(v: float) -> str:
    if v == int(v):
        return f"{int(v):,}"
    return f"{v:.3f}"


# ---------------------------------------------------------------------------
# Trend chart
# ---------------------------------------------------------------------------


def render_trend_chart(
    series: YearlyCounts,
    fit: TrendFit,
    horizon: int = 0,
    title: str = "",
) -> str:
    """Observed yearly counts as bars with the fitted quadratic sampled
    yearly on top; ``horizon`` extra years are drawn as visually distinct
    forecast markers carrying exact data-year/data-value attributes."""
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}")
    years = list(series.years)
    last = years[-1]
    forecast_years = [last + i for i in range(1, horizon + 1)]
    all_years = years + forecast_years
    fitted = {y: fit.predict(y) for y in all_years}

    w, h = _CHART_WIDTH, _CHART_HEIGHT
    left, right, top, bottom = 50.0, 20.0, 30.0, 40.0
    plot_w = w - left - right
    plot_h = h - top - bottom
    vmax = max(
        max(series.counts),
        max((v for v in fitted.values()), default=0.0),
        1.0,
    )
    slot = plot_w / len(all_years)
    bar_w = slot * 0.7

    def x_of(year: int) -> float:
        return left + (year - all_years[0]) * slot + slot / 2.0

    def y_of(value: float) -> float:
        clamped = min(max(value, 0.0), vmax)
        return top + plot_h * (1.0 - clamped / vmax)

    parts = [_svg_open(w, h), _title_elem(title)]
    for year, count in zip(series.years, series.counts):
        x = x_of(year) - bar_w / 2.0
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y_of(count))}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(y_of(0) - y_of(count))}" fill="{_PALETTE[0]}"/>\n'
        )
    points = " ".join(f"{_fmt(x_of(y))},{_fmt(y_of(fitted[y]))}" for y in all_years)
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{_PALETTE[1]}" '
        f'stroke-width="2"/>\n'
    )
    for year in forecast_years:
        value = fitted[year]
        parts.append(
            f'<circle class="forecast" data-year="{year}" '
            f'data-value="{_attr(repr(value))}" cx="{_fmt(x_of(year))}" '
            f'cy="{_fmt(y_of(value))}" r="4" fill="{_PALETTE[1]}" '
            f'stroke="#fff" stroke-width="1"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(x_of(year))}" y="{_fmt(y_of(value) - 8)}" '
            f'text-anchor="middle" font-size="10" fill="{_PALETTE[1]}">'
            f"{round(value):,}</text>\n"
        )
    for year in all_years:
        parts.append(
            f'<text x="{_fmt(x_of(year))}" y="{_fmt(top + plot_h + 14)}" '
            f'text-anchor="middle" font-size="9">{year}</text>\n'
        )
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(top + plot_h)}" '
        f'x2="{_fmt(left + plot_w)}" y2="{_fmt(top + plot_h)}" '
        f'stroke="#222" stroke-width="1"/>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Correspondence map
# ---------------------------------------------------------------------------


def render_ca_map(
    model: CaModel,
    supplementary: Sequence[SupplementaryProjection] = (),
    title: str = "",
) -> str:
    """Planar map of dimensions 1-2: column points (terms) and
    supplementary year points joined in chronological order by a trajectory
    of line segments; the extent covers exactly those points. Row points
    (documents) are not drawn. Axis labels carry the per-dimension inertia
    percentages."""
    if model.dims < 2:
        raise DataError(
            f"map needs a model with >= 2 retained dimensions, got {model.dims}"
        )
    w, h = _CHART_WIDTH, _CHART_HEIGHT
    left, right, top, bottom = 45.0, 15.0, 30.0, 35.0
    plot_w = w - left - right
    plot_h = h - top - bottom

    pts: list[tuple[float, float]] = [
        (c[0], c[1]) for c in model.col_coords_principal
    ]
    pts += [(p.coords[0], p.coords[1]) for p in supplementary]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pad = 0.08

    def sx(v: float) -> float:
        return left + ((v - x_lo) / x_span * (1 - 2 * pad) + pad) * plot_w

    def sy(v: float) -> float:
        return top + ((y_hi - v) / y_span * (1 - 2 * pad) + pad) * plot_h

    parts = [_svg_open(w, h), _title_elem(title)]
    share = model.inertia_shares
    parts.append(
        f'<text x="{_fmt(left + plot_w / 2)}" y="{_fmt(h - 8)}" '
        f'text-anchor="middle" font-size="11">Dim 1 ({share[0] * 100:.1f}%)</text>\n'
    )
    parts.append(
        f'<text x="14" y="{_fmt(top + plot_h / 2)}" text-anchor="middle" '
        f'font-size="11" transform="rotate(-90 14 {_fmt(top + plot_h / 2)})">'
        f"Dim 2 ({share[1] * 100:.1f}%)</text>\n"
    )

    parts.append('<g class="terms">\n')
    for label, coord in zip(model.col_labels, model.col_coords_principal):
        x, y = sx(coord[0]), sy(coord[1])
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="{_PALETTE[0]}"/>\n'
            f'<text x="{_fmt(x + 4)}" y="{_fmt(y + 3)}" font-size="9" '
            f'fill="#333">{_escape(label)}</text>\n'
        )
    parts.append("</g>\n")

    if supplementary:
        ordered = _chronological(supplementary)
        if len(ordered) > 1:
            parts.append('<g class="trajectory">\n')
            for a, b in zip(ordered, ordered[1:]):
                parts.append(
                    f'<line x1="{_fmt(sx(a.coords[0]))}" y1="{_fmt(sy(a.coords[1]))}" '
                    f'x2="{_fmt(sx(b.coords[0]))}" y2="{_fmt(sy(b.coords[1]))}" '
                    f'stroke="{_PALETTE[1]}" stroke-width="1.5" '
                    f'stroke-dasharray="4 2"/>\n'
                )
            parts.append("</g>\n")
        parts.append('<g class="years">\n')
        for proj in ordered:
            x, y = sx(proj.coords[0]), sy(proj.coords[1])
            parts.append(
                f'<rect x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" width="6" height="6" '
                f'fill="{_PALETTE[1]}"/>\n'
                f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 4)}" font-size="10" '
                f'font-weight="bold" fill="{_PALETTE[1]}">{_escape(proj.label)}</text>\n'
            )
        parts.append("</g>\n")

    parts.append("</svg>\n")
    return "".join(parts)


def _chronological(
    projections: Sequence[SupplementaryProjection],
) -> list[SupplementaryProjection]:
    try:
        return sorted(projections, key=lambda p: int(p.label))
    except ValueError:
        return sorted(projections, key=lambda p: p.label)
