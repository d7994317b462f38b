"""Deterministic SVG pictures of matchings, extensions, cells and duals.

Rendering never feeds back into computation: coordinates are printed as
12-digit decimal approximations, while everything upstream stays rational.
Layers are drawn in a fixed order with fixed iteration orders, so the
emitted bytes depend only on the input.
"""

from fractions import Fraction
from typing import Optional, Sequence

from .errors import GeomatchError
from .geom_core import BoundingBox, Matching
from .subdivision import _low_end, _plain_dual, both_ways_rays, extend

LAYERS = ("segments", "extensions", "cells", "dual")

_CELL_FILLS = ("#fff7e0", "#e8f4ff", "#eaffea", "#fdeaff", "#f2f2f2", "#fffbd1")


def _fmt(v) -> str:
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator / f.denominator:.12g}"


def _centroid(polygon):
    xs = [v[0] for v in polygon.vertices]
    ys = [v[1] for v in polygon.vertices]
    return sum(xs) / len(xs), sum(ys) / len(ys)


class _Canvas:
    """Collects SVG elements over a fixed viewport (y grows upward)."""

    def __init__(self, box: BoundingBox):
        self.box = box
        self.flip = box.ymin + box.ymax  # y -> flip - y mirrors into SVG space
        self.spread = max(box.xmax - box.xmin, box.ymax - box.ymin)
        self.stroke = self.spread / 400
        self.parts: list[str] = []

    def xy(self, pt) -> str:
        return f"{_fmt(pt[0])},{_fmt(self.flip - pt[1])}"

    def line(self, p, q, color: str, width, dash: str = ""):
        x1, y1 = _fmt(p[0]), _fmt(self.flip - p[1])
        x2, y2 = _fmt(q[0]), _fmt(self.flip - q[1])
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{extra} />'
        )

    def polygon(self, vertices, fill: str):
        pts = " ".join(self.xy(v) for v in vertices)
        self.parts.append(
            f'<polygon points="{pts}" fill="{fill}" '
            f'stroke="#bbbbbb" stroke-width="{_fmt(self.stroke)}" />'
        )

    def polyline(self, vertices, color: str, width):
        pts = " ".join(self.xy(v) for v in vertices)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="{_fmt(width)}" />'
        )

    def circle(self, pt, r, fill: str):
        x, y = _fmt(pt[0]), _fmt(self.flip - pt[1])
        self.parts.append(f'<circle cx="{x}" cy="{y}" r="{_fmt(r)}" fill="{fill}" />')

    def document(self) -> str:
        x = _fmt(self.box.xmin)
        y = _fmt(self.flip - self.box.ymax)
        w = _fmt(self.box.xmax - self.box.xmin)
        h = _fmt(self.box.ymax - self.box.ymin)
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{x} {y} {w} {h}" width="640" height="640" '
            'preserveAspectRatio="xMidYMid meet">'
        )
        return "\n".join([head, *self.parts, "</svg>"]) + "\n"


def render_matching(
    m: Matching,
    layers: Sequence[str] = ("segments",),
    box: Optional[BoundingBox] = None,
) -> str:
    """One SVG document; ``layers`` is a subset of :data:`LAYERS`.

    Any layer beyond plain segments triggers the both-ways extension of the
    segments in sorted order, and the picture shows that subdivision.
    """
    unknown = set(layers) - set(LAYERS)
    if unknown:
        raise GeomatchError(f"unknown layers {sorted(unknown)}; use {LAYERS}")
    ps = m.base
    region = BoundingBox.around(ps)
    canvas = _Canvas(box if box is not None else region)

    geometry = sub = vertices = dual = None
    if {"extensions", "cells", "dual"} & set(layers):
        geometry, sub = extend(m, region, both_ways_rays(m.sorted_edges()))
        vertices, dual = _plain_dual(sub)

    if "cells" in layers:
        for i, cell in enumerate(sub.cells):
            canvas.polygon(cell.vertices, _CELL_FILLS[i % len(_CELL_FILLS)])
    if "extensions" in layers:
        for ray in geometry.rays:
            canvas.line(
                ray.origin, ray.terminus, "#888888", canvas.stroke, dash="4 3"
            )
    if "segments" in layers:
        for e in m.sorted_edges():
            canvas.line(ps.coord(e.a), ps.coord(e.b), "#111111", 3 * canvas.stroke)
        for i in ps.ids:
            canvas.circle(ps.coord(i), 2 * canvas.stroke, "#111111")
    if "dual" in layers:
        centroids = [_centroid(cell) for cell in sub.cells]
        # a low (left, or bottom when vertical) end red, the other green
        lows = {_low_end(ps, e) for e in m.edges}
        for v, (left, right) in zip(vertices, dual.edges):
            color = "#cc2222" if v in lows else "#22aa22"
            canvas.polyline(
                [centroids[left], ps.coord(v), centroids[right]], color, 2 * canvas.stroke
            )
        for c in centroids:
            canvas.circle(c, 3 * canvas.stroke, "#333399")
    return canvas.document()


def render_sequence(seq, layers: Sequence[str] = ("segments",)) -> list[str]:
    """One SVG per step, all sharing the first step's viewport."""
    box = BoundingBox.around(seq.source.base)
    return [render_matching(m, layers, box=box) for m in seq.matchings]
