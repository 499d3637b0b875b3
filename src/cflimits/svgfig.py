"""Deterministic SVG 1.1 and CSV emitters for approximant figures.

No timestamps, no library-generated ids; floats are printed with 9
significant digits so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .sphere import Circle, CircleOrLine, Line


def fmt(x: float) -> str:
    if x == 0.0:
        return "0"  # avoid "-0"
    return format(float(x), ".9g")


def write_csv(path: str, rows: Iterable[tuple[int, float, float]]) -> None:
    lines = ["n,re,im"]
    for n, re, im in rows:
        lines.append(f"{n},{fmt(re)},{fmt(im)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


#: Width and height of every figure, in SVG pixels.
SIZE = 480
_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{SIZE}" height="{SIZE}" '
    f'viewBox="0 0 {SIZE} {SIZE}">\n'
    f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>'
)


def _write_svg(path: str, parts: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join([_HEADER, *parts, "</svg>"]) + "\n")


class _Viewport:
    """Maps a data window, squared and padded by 5% a side, onto SVG pixels (y flipped)."""

    def __init__(self, xmin, xmax, ymin, ymax):
        span = max(xmax - xmin, ymax - ymin, 1e-9)
        cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        half = span * 0.55
        self.xmin, self.xmax = cx - half, cx + half
        self.ymin, self.ymax = cy - half, cy + half

    def x(self, v: float) -> float:
        return (v - self.xmin) / (self.xmax - self.xmin) * SIZE

    def y(self, v: float) -> float:
        return (self.ymax - v) / (self.ymax - self.ymin) * SIZE

    def contains(self, re: float, im: float) -> bool:
        return self.xmin <= re <= self.xmax and self.ymin <= im <= self.ymax

    def scale(self) -> float:
        return SIZE / (self.xmax - self.xmin)


def scatter_svg(
    path: str,
    points: Sequence[tuple[float, float]],
    geometry: CircleOrLine | None = None,
    dots: Sequence[tuple[float, float]] = (),
) -> int:
    """Scatter plot with an optional predicted circle/line and marker dots.

    The data window is fitted to the dots and a circle overlay; a line or
    no overlay has no extent, so the finite points are fitted as well.
    Returns the number of points drawn (others fall outside).
    """
    frame = list(dots)
    if isinstance(geometry, Circle):
        c, r = geometry.center, geometry.radius
        frame += [(c.real - r, c.imag - r), (c.real + r, c.imag + r)]
    else:
        frame += [(re, im) for re, im in points if math.isfinite(re) and math.isfinite(im)]
    xs, ys = zip(*(frame or [(0.0, 0.0), (1.0, 1.0)]))
    vp = _Viewport(min(xs), max(xs), min(ys), max(ys))

    parts = []
    if isinstance(geometry, Circle):
        parts.append(
            f'<circle cx="{fmt(vp.x(geometry.center.real))}" cy="{fmt(vp.y(geometry.center.imag))}" '
            f'r="{fmt(geometry.radius * vp.scale())}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
    elif isinstance(geometry, Line):
        span = (vp.xmax - vp.xmin) + (vp.ymax - vp.ymin)
        p0 = geometry.point - 2.0 * span * geometry.direction
        p1 = geometry.point + 2.0 * span * geometry.direction
        parts.append(
            f'<line x1="{fmt(vp.x(p0.real))}" y1="{fmt(vp.y(p0.imag))}" '
            f'x2="{fmt(vp.x(p1.real))}" y2="{fmt(vp.y(p1.imag))}" '
            'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    drawn = 0
    for re, im in points:
        if not (math.isfinite(re) and math.isfinite(im)) or not vp.contains(re, im):
            continue
        parts.append(f'<circle cx="{fmt(vp.x(re))}" cy="{fmt(vp.y(im))}" r="1.2" fill="black"/>')
        drawn += 1
    for re, im in dots:
        parts.append(
            f'<circle cx="{fmt(vp.x(re))}" cy="{fmt(vp.y(im))}" r="5" fill="#d62728"/>'
        )
    _write_svg(path, parts)
    return drawn


def histogram_svg(
    path: str,
    edges: Sequence[float],
    counts: Sequence[int],
    marker: float | None = None,
) -> None:
    """Bar chart of a 1-D histogram with an optional vertical marker line."""
    peak = max(max(counts), 1)
    left, right = edges[0], edges[-1]
    width = SIZE / (len(counts))
    parts = []
    for i, count in enumerate(counts):
        h = (SIZE - 20) * count / peak
        parts.append(
            f'<rect x="{fmt(i * width)}" y="{fmt(SIZE - h)}" width="{fmt(width * 0.9)}" '
            f'height="{fmt(h)}" fill="#1f77b4"/>'
        )
    if marker is not None and right > left:
        mx = (marker - left) / (right - left) * SIZE
        parts.append(
            f'<line x1="{fmt(mx)}" y1="0" x2="{fmt(mx)}" y2="{SIZE}" '
            'stroke="#d62728" stroke-width="1.5"/>'
        )
    _write_svg(path, parts)
