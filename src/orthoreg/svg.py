"""Deterministic SVG charts (no plotting dependency, byte-stable output).

Fixed 800x600 canvas, fixed margins, fixed 1-2-5 tick ladder, fixed number
formatting: identical inputs give identical bytes. Data points are circles
with class "point", fitted lines are segments with class "fit-line", series
polylines carry class "series".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, float_array

CANVAS_W = 800
CANVAS_H = 600
MARGIN_L = 70
MARGIN_R = 24
MARGIN_T = 30
MARGIN_B = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

#: Most ticks on an axis.
TICK_TARGET = 6

#: Margin around the data, as a fraction of its range on each axis.
DATA_PAD = 0.06


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, same replacements in the same order, without
    the import: ``xml.sax`` pulls in ``urllib`` and ``http`` (about 40 ms)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _span(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened to a range that can be drawn and ticked.

    An empty range is widened by 1 on each side; any range is then widened
    to at least 64 ulps at its magnitude, so that no tick step is lost in
    rounding (1e17 - 1 and 1e17 + 1 both round to 1e17).
    """
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    width = 64.0 * math.ulp(max(abs(lo), abs(hi)))
    if hi - lo < width:
        lo, hi = lo - width / 2.0, hi + width / 2.0
    return lo, hi


def nice_ticks(lo: float, hi: float):
    """Tick positions covering [lo, hi] on the 1-2-5 ladder, plus label decimals."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError("tick bounds must be finite")
    lo, hi = _span(lo, hi)
    raw = (hi - lo) / TICK_TARGET
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 5.0):
        if (hi - lo) / (mult * magnitude) <= TICK_TARGET:
            step = mult * magnitude
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if t == 0 else t)
        t += step
    decimals = max(0, -math.floor(math.log10(step) + 1e-9))
    return ticks, decimals


class _Frame:
    """Maps data coordinates into the fixed plot rectangle (y axis flipped)."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = _span(x_lo, x_hi)
        self.y_lo, self.y_hi = _span(y_lo, y_hi)
        self.px_lo = MARGIN_L
        self.px_hi = CANVAS_W - MARGIN_R
        self.py_lo = CANVAS_H - MARGIN_B
        self.py_hi = MARGIN_T

    @classmethod
    def around(cls, xs, ys):
        x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
        y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
        dx = DATA_PAD * ((x_hi - x_lo) or 1.0)
        dy = DATA_PAD * ((y_hi - y_lo) or 1.0)
        return cls(x_lo - dx, x_hi + dx, y_lo - dy, y_hi + dy)

    def px(self, x: float) -> float:
        return self.px_lo + (x - self.x_lo) / (self.x_hi - self.x_lo) * (self.px_hi - self.px_lo)

    def py(self, y: float) -> float:
        return self.py_lo + (y - self.y_lo) / (self.y_hi - self.y_lo) * (self.py_hi - self.py_lo)

    def clip_line(self, anchor, direction):
        """Clip the infinite line anchor + t*direction to the frame (data coords).

        Returns a pair of endpoints, or None when the line misses the frame.
        """
        ax, ay = float(anchor[0]), float(anchor[1])
        dx, dy = float(direction[0]), float(direction[1])
        t_lo, t_hi = -math.inf, math.inf
        for start, delta, lo, hi in ((ax, dx, self.x_lo, self.x_hi), (ay, dy, self.y_lo, self.y_hi)):
            if delta == 0.0:
                if not (lo <= start <= hi):
                    return None
                continue
            t0, t1 = (lo - start) / delta, (hi - start) / delta
            if t0 > t1:
                t0, t1 = t1, t0
            t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
        if not (t_lo < t_hi) or math.isinf(t_lo) or math.isinf(t_hi):
            return None
        return (ax + t_lo * dx, ay + t_lo * dy), (ax + t_hi * dx, ay + t_hi * dy)


def _header(title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" height="{CANVAS_H}" '
        f'viewBox="0 0 {CANVAS_W} {CANVAS_H}" font-family="sans-serif">',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text class="title" x="{CANVAS_W // 2}" y="20" text-anchor="middle" '
            f'font-size="14">{_escape(title)}</text>'
        )
    return parts


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect class="frame" x="{frame.px_lo}" y="{frame.py_hi}" '
        f'width="{frame.px_hi - frame.px_lo}" height="{frame.py_lo - frame.py_hi}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    ]
    x_ticks, xd = nice_ticks(frame.x_lo, frame.x_hi)
    y_ticks, yd = nice_ticks(frame.y_lo, frame.y_hi)
    for t in x_ticks:
        px = frame.px(t)
        parts.append(
            f'<line class="axis" x1="{_fmt(px)}" y1="{frame.py_lo}" '
            f'x2="{_fmt(px)}" y2="{frame.py_lo + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text class="axis" x="{_fmt(px)}" y="{frame.py_lo + 18}" text-anchor="middle" '
            f'font-size="11">{t:.{xd}f}</text>'
        )
    for t in y_ticks:
        py = frame.py(t)
        parts.append(
            f'<line class="axis" x1="{frame.px_lo - 5}" y1="{_fmt(py)}" '
            f'x2="{frame.px_lo}" y2="{_fmt(py)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text class="axis" x="{frame.px_lo - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-size="11">{t:.{yd}f}</text>'
        )
    if x_label:
        parts.append(
            f'<text class="axis-label" x="{(frame.px_lo + frame.px_hi) // 2}" '
            f'y="{CANVAS_H - 14}" text-anchor="middle" font-size="12">{_escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 18, (frame.py_lo + frame.py_hi) // 2
        parts.append(
            f'<text class="axis-label" x="{cx}" y="{cy}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 {cx} {cy})">{_escape(y_label)}</text>'
        )
    return parts


def _legend(frame: _Frame, entries) -> list[str]:
    parts = []
    for i, (name, color) in enumerate(entries):
        y = frame.py_hi + 16 + 16 * i
        x = frame.px_lo + 10
        parts.append(
            f'<line class="legend" x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text class="legend" x="{x + 28}" y="{y}" font-size="12">{_escape(name)}</text>'
        )
    return parts


def scatter_chart(points, lines=(), title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Scatter of 2D points with optional infinite lines clipped to the frame.

    ``lines`` entries are (name, anchor, direction) triples in data
    coordinates.
    """
    message = "scatter_chart needs points of shape (n, 2)"
    pts = float_array(points, (None, 2), message)
    if pts.shape[0] < 1:
        raise InvalidInputError(message)
    frame = _Frame.around(pts[:, 0], pts[:, 1])
    parts = _header(title)
    parts += _axes(frame, x_label, y_label)
    legend = []
    for i, (name, anchor, direction) in enumerate(lines):
        segment = frame.clip_line(anchor, direction)
        color = PALETTE[i % len(PALETTE)]
        if segment is None:
            continue
        (x1, y1), (x2, y2) = segment
        parts.append(
            f'<line class="fit-line" x1="{_fmt(frame.px(x1))}" y1="{_fmt(frame.py(y1))}" '
            f'x2="{_fmt(frame.px(x2))}" y2="{_fmt(frame.py(y2))}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        legend.append((name, color))
    for x, y in pts:
        parts.append(
            f'<circle class="point" cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" '
            f'r="4" fill="#333333"/>'
        )
    parts += _legend(frame, legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def polyline_chart(series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Time-series chart: one polyline per (name, x values, y values) entry.

    Each series is drawn at its own x values; the frame covers all of them.
    """
    checked = []
    for name, xs, vals in series:
        message = f"series {name!r} needs one y value per x value and at least one point"
        xy = float_array((xs, vals), (2, None), message)
        if xy.shape[1] < 1:
            raise InvalidInputError(message)
        checked.append((name, xy))
    if not checked:
        raise InvalidInputError("polyline_chart needs at least one series")
    frame = _Frame.around(*np.concatenate([xy for _, xy in checked], axis=1))
    parts = _header(title)
    parts += _axes(frame, x_label, y_label)
    legend = []
    for i, (name, (xs, vals)) in enumerate(checked):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, vals))
        parts.append(
            f'<polyline class="series" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(xs, vals):
            parts.append(
                f'<circle class="series-point" cx="{_fmt(frame.px(x))}" '
                f'cy="{_fmt(frame.py(y))}" r="3" fill="{color}"/>'
            )
        legend.append((name, color))
    parts += _legend(frame, legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


__all__ = ["scatter_chart", "polyline_chart", "nice_ticks", "CANVAS_W", "CANVAS_H", "PALETTE"]
