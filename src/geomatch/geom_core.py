"""Exact planar geometry primitives for non-crossing matchings.

All coordinates are rational (`fractions.Fraction`); every predicate is
decided by the sign of an integer determinant, so there is no tolerance
anywhere.  A :class:`PointSet` caches its coordinates scaled to a common
integer grid, which keeps the hot predicates in (arbitrary-precision)
integer arithmetic instead of `Fraction` arithmetic.  On point ids one
pair predicate (``PointSet.segments_cross_ids``), one segment-against-a-set
scan (``_first_blocker``) and one set sweep (``first_crossing_within``)
decide every crossing.  Blockers (matching
edges, or a segment and its extension ray as one wall) live in that grid as
homogeneous integer triples, so blocker visibility
(:func:`crosses_any_blocker`) is integer arithmetic too, and hands each
touch to :func:`segments_cross_coords`, which keeps the touch rules.
:func:`frame_blocker_table` builds the blocker table from endpoint triples,
as the constructions hand them over (points of the set as ``(ix, iy, 1)``,
ray termini as the ray kernel computed them, ``subdivision._ray_termini``),
so no blocker coordinate passes through a ``Fraction``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import (
    CollinearTriple,
    DuplicatePoint,
    GeomatchError,
    MismatchedVertexSet,
    NotConvexPosition,
    TooFewPoints,
)

#: The exact scalar type used for all coordinates.
Scalar = Fraction

Coord = tuple[Fraction, Fraction]

#: A homogeneous integer point (X, Y, W), W > 0, standing for (X / W, Y / W).
Triple = tuple[int, int, int]


def as_scalar(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` and Fractions to the Scalar type."""
    return value if isinstance(value, Fraction) else Fraction(value)


def sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# low-level predicates on raw coordinates


def orient(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the signed area of triangle abc.

    +1 when c lies to the left of the directed line a->b (counter-clockwise
    turn), -1 to the right, 0 when the three points are collinear.  Works on
    any exact numeric type (int or Fraction).
    """
    return sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _on_bbox(px, py, qx, qy, rx, ry) -> bool:
    """Whether r lies inside the closed bounding box of segment pq."""
    return (
        min(px, qx) <= rx <= max(px, qx)
        and min(py, qy) <= ry <= max(py, qy)
    )


def segments_cross_coords(p: Coord, q: Coord, r: Coord, s: Coord) -> bool:
    """Whether closed segments pq and rs share a point other than a common endpoint.

    Endpoints are coordinate pairs.  Touching at a point that is an endpoint
    of *both* segments does not count as a crossing; any other shared point
    (proper crossing, T-contact, collinear overlap) does.
    """
    px, py = p
    qx, qy = q
    rx, ry = r
    sx, sy = s
    d1 = orient(rx, ry, sx, sy, px, py)
    d2 = orient(rx, ry, sx, sy, qx, qy)
    d3 = orient(px, py, qx, qy, rx, ry)
    d4 = orient(px, py, qx, qy, sx, sy)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True  # proper interior crossing
    touch = set()
    if d1 == 0 and _on_bbox(rx, ry, sx, sy, px, py):
        touch.add((px, py))
    if d2 == 0 and _on_bbox(rx, ry, sx, sy, qx, qy):
        touch.add((qx, qy))
    if d3 == 0 and _on_bbox(px, py, qx, qy, rx, ry):
        touch.add((rx, ry))
    if d4 == 0 and _on_bbox(px, py, qx, qy, sx, sy):
        touch.add((sx, sy))
    if not touch:
        return False
    if len(touch) == 1:
        z = touch.pop()
        return not (z in ((px, py), (qx, qy)) and z in ((rx, ry), (sx, sy)))
    # Two or more touch points: a collinear overlap of positive length.
    return True


# ---------------------------------------------------------------------------
# blockers in a point set's integer frame
#
# A blocker is a segment with arbitrary rational endpoints (ray termini carry
# large denominators).  Scaled by a point set's ``_scale``, each endpoint
# becomes a homogeneous integer triple (X, Y, W) with W > 0 and
# gcd(X, Y, W) == 1, so two endpoints are equal iff their triples are.  The
# blocker's line is the cross product of its endpoint triples; the side of an
# integer point (x, y) is the sign of a*x + b*y + c, and the side of a triple
# relative to the integer line through a candidate edge is one more dot
# product.  Every sign equals the matching ``orient`` sign of
# :func:`segments_cross_coords`: scaling a row of the orientation
# determinant by W > 0, or all points by ``_scale``, keeps its sign.  A
# touch (some sign zero, no shared endpoint proven) goes to
# :func:`segments_cross_coords` itself, on the candidate and the blocker
# scaled to one integer frame, so its touch rules live in one place.


def frame_blocker_table(blockers: Iterable[tuple[Triple, Triple]]) -> tuple[tuple, ...]:
    """The blocker table of segments given by their endpoint triples.

    Each endpoint is a gcd-normalized homogeneous triple (X, Y, W), W > 0,
    in a point set's integer frame: ``(ix, iy, 1)`` for a point of the set.
    Each entry is ``(xlo, xhi, ylo, yhi, a, b, c, R, S)``: an integer box
    around the blocker (floor / ceiling of its extent), its line
    ``a*x + b*y + c = 0`` and its endpoint triples ``R`` and ``S``.
    """
    table = []
    for R, S in blockers:
        (xr, yr, wr), (xs, ys, ws) = R, S
        table.append((
            min(xr // wr, xs // ws),
            max(-(-xr // wr), -(-xs // ws)),
            min(yr // wr, ys // ws),
            max(-(-yr // wr), -(-ys // ws)),
            yr * ws - wr * ys,
            wr * xs - xr * ws,
            xr * ys - yr * xs,
            R,
            S,
        ))
    return tuple(table)


def crosses_any_blocker(p: tuple[int, int], q: tuple[int, int], table: Sequence[tuple]) -> bool:
    """Whether segment pq crosses some blocker of a :func:`frame_blocker_table`.

    ``p`` and ``q`` are integer points of the frame the table was built in
    (``ps.scaled(i)``).  Each answer equals :func:`segments_cross_coords` on
    the unscaled coordinates: touching a blocker at a point that is an
    endpoint of both is allowed, any other shared point is a crossing.
    """
    px, py = p
    qx, qy = q
    lox, hix = (px, qx) if px < qx else (qx, px)
    loy, hiy = (py, qy) if py < qy else (qy, py)
    ea, eb, ec = py - qy, qx - px, px * qy - py * qx  # line of pq
    for xlo, xhi, ylo, yhi, a, b, c, R, S in table:
        if hix < xlo or xhi < lox or hiy < ylo or yhi < loy:
            continue
        v1 = a * px + b * py + c
        v2 = a * qx + b * qy + c
        if (v1 > 0 and v2 > 0) or (v1 < 0 and v2 < 0):
            continue  # pq strictly on one side of the blocker's line
        v3 = ea * R[0] + eb * R[1] + ec * R[2]
        v4 = ea * S[0] + eb * S[1] + ec * S[2]
        if (v3 > 0 and v4 > 0) or (v3 < 0 and v4 < 0):
            continue  # the blocker strictly on one side of pq's line
        if v1 and v2 and v3 and v4:
            return True  # proper interior crossing
        if (not v1) != (not v2) and (not v3) != (not v4):
            # one endpoint of each on the other's (distinct) line: both
            # are the lines' single common point, a shared endpoint
            continue
        # a touch: the reference predicate decides it on the two segments
        # scaled by W = wr * ws > 0, which keeps every sign, box test and
        # point equality
        (xr, yr, wr), (xs, ys, ws) = R, S
        W = wr * ws
        if segments_cross_coords(
            (px * W, py * W), (qx * W, qy * W), (xr * ws, yr * ws), (xs * wr, ys * wr)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# core value types


@dataclass(frozen=True)
class Point:
    """A labelled point with exact rational coordinates."""

    x: Fraction
    y: Fraction
    id: int

    def __post_init__(self):
        object.__setattr__(self, "x", as_scalar(self.x))
        object.__setattr__(self, "y", as_scalar(self.y))

    @property
    def coord(self) -> Coord:
        return (self.x, self.y)


class Segment(namedtuple("Segment", "a b")):
    """An unordered pair of point ids: the tuple ``(a, b)`` with ``a < b``.

    A segment is its sorted id pair, so it hashes, orders and compares
    equal as that plain tuple: ``Segment(3, 1) == (1, 3)``.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a == b:
            raise GeomatchError(f"segment joins point {a} to itself")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip the sort and check
        return cls(*iterable)

    @property
    def ids(self) -> tuple[int, int]:
        return tuple(self)


def orientation_test(p: Point, q: Point, r: Point) -> int:
    """Orientation of the ordered triple (p, q, r); see :func:`orient`."""
    return orient(p.x, p.y, q.x, q.y, r.x, r.y)


class PointSet:
    """An immutable ordered list of points with dense ids 0..n-1.

    Coordinates may repeat denominators arbitrarily; internally the set is
    rescaled once to a common integer grid so that all predicates run on
    plain integers.  Rescaling is a similarity transform, so it changes no
    orientation sign, crossing, hull or x-order.
    """

    __slots__ = ("points", "_ix", "_iy", "_scale", "_hash")

    def __init__(self, points: Sequence[Point]):
        pts = tuple(points)
        dens = [p.x.denominator for p in pts] + [p.y.denominator for p in pts]
        scale = math.lcm(*dens) if dens else 1
        ix = [p.x.numerator * (scale // p.x.denominator) for p in pts]
        iy = [p.y.numerator * (scale // p.y.denominator) for p in pts]
        # equal coordinates scale to equal integers, so the duplicate check
        # hashes integer pairs, in index order with the id check
        seen: dict[tuple[int, int], int] = {}
        for idx, (p, key) in enumerate(zip(pts, zip(ix, iy))):
            if p.id != idx:
                raise GeomatchError(
                    f"point ids must be dense 0..n-1 (found id {p.id} at index {idx})"
                )
            prev = seen.setdefault(key, idx)
            if prev != idx:
                raise DuplicatePoint(prev, idx)
        self.points = pts
        self._scale = scale
        self._ix = ix
        self._iy = iy
        self._hash = hash(tuple((p.x, p.y) for p in pts))

    @classmethod
    def from_coords(cls, coords: Iterable[tuple]) -> "PointSet":
        return cls([Point(x, y, i) for i, (x, y) in enumerate(coords)])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PointSet):
            return NotImplemented
        return [p.coord for p in self.points] == [p.coord for p in other.points]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points)"

    @property
    def ids(self) -> range:
        return range(len(self.points))

    def coord(self, i: int) -> Coord:
        return self.points[i].coord

    # -- integer fast paths -------------------------------------------------

    def scaled(self, i: int) -> tuple[int, int]:
        return self._ix[i], self._iy[i]

    def orient_ids(self, i: int, j: int, k: int) -> int:
        ix, iy = self._ix, self._iy
        return sign(
            (ix[j] - ix[i]) * (iy[k] - iy[i]) - (iy[j] - iy[i]) * (ix[k] - ix[i])
        )

    def segments_cross_ids(self, a: int, b: int, c: int, d: int) -> bool:
        """Fast exact crossing test between segments (a,b) and (c,d) by id."""
        ix, iy = self._ix, self._iy
        # Segments sharing an endpoint o cross only if they are identical or
        # overlap along one line: their other ends p and q are collinear
        # with o (zero cross product) and on the same side of it (positive
        # dot product), which needs three collinear input points.
        if a == c:
            if b == d:
                return True
            o, p, q = a, b, d
        elif a == d:
            if b == c:
                return True
            o, p, q = a, b, c
        elif b == c:
            o, p, q = b, a, d
        elif b == d:
            o, p, q = b, a, c
        else:
            ax, ay, bx, by = ix[a], iy[a], ix[b], iy[b]
            cx, cy, dx, dy = ix[c], iy[c], ix[d], iy[d]
            # Sign first: the four orientation determinants of
            # segments_cross_coords, inlined.  Both ends strictly on one side
            # of the other segment's line rule out any shared point.
            ex, ey = dx - cx, dy - cy
            d1 = ex * (ay - cy) - ey * (ax - cx)
            d2 = ex * (by - cy) - ey * (bx - cx)
            if d1 * d2 > 0:
                return False
            fx, fy = bx - ax, by - ay
            d3 = fx * (cy - ay) - fy * (cx - ax)
            d4 = fx * (dy - ay) - fy * (dx - ax)
            if d3 * d4 > 0:
                return False
            # Four distinct points give zero, one or four zero determinants
            # (two zeros would put two of the points on both lines, which
            # then coincide).  With none zero this is a proper crossing; with
            # one, say a on line cd, c and d lie strictly on either side of
            # line ab, so a is inside segment cd.  Only four collinear points
            # need the touch rules.
            if d1 or d2 or d3 or d4:
                return True
            return segments_cross_coords((ax, ay), (bx, by), (cx, cy), (dx, dy))
        ox, oy = ix[o], iy[o]
        px, py, qx, qy = ix[p] - ox, iy[p] - oy, ix[q] - ox, iy[q] - oy
        return px * qy == py * qx and px * qx + py * qy > 0

    def _edge_boxes(self, edges: Iterable[Segment]):
        """``(xlo, xhi, ylo, yhi, a, b, s)`` per segment ``s = (a, b)``,
        stably sorted by ``xlo``: its integer box, its ids and the segment."""
        ix, iy = self._ix, self._iy
        out = []
        for s in edges:
            a, b = s
            xa, xb = ix[a], ix[b]
            ya, yb = iy[a], iy[b]
            if xa > xb:
                xa, xb = xb, xa
            if ya > yb:
                ya, yb = yb, ya
            out.append((xa, xb, ya, yb, a, b, s))
        out.sort(key=lambda box: box[0])
        return out

    def first_crossing_within(self, edges: Iterable[Segment]):
        """Return a crossing pair among ``edges`` or None (bbox-prefiltered).

        Boxes are swept in order of their left side, so each edge is only
        compared with the edges whose boxes start inside its x-extent.
        """
        boxes = self._edge_boxes(edges)
        for i in range(len(boxes)):
            xa1, xb1, ya1, yb1, a, b, s1 = boxes[i]
            for j in range(i + 1, len(boxes)):
                xa2, xb2, ya2, yb2, c, d, s2 = boxes[j]
                if xb1 < xa2:
                    break
                if yb1 < ya2 or yb2 < ya1:
                    continue
                if self.segments_cross_ids(a, b, c, d):
                    return s1, s2
        return None

    def _first_blocker(self, edges: Iterable[Segment]):
        """``first(u, v)``: the first of ``edges`` (boxed once, by left
        side) that segment uv crosses, other than uv itself (``u < v``, as
        in a ``Segment``), or None.  The one segment-against-a-set scan on
        point ids: it stops at the first box that starts right of uv, and a
        box that misses uv's shares no point with it, so it is not tested."""
        ix, iy = self._ix, self._iy
        cross = self.segments_cross_ids
        boxes = self._edge_boxes(edges)

        def first(u: int, v: int) -> Optional[Segment]:
            xu, xv, yu, yv = ix[u], ix[v], iy[u], iy[v]
            x0, x1 = (xu, xv) if xu < xv else (xv, xu)
            y0, y1 = (yu, yv) if yu < yv else (yv, yu)
            for xlo, xhi, ylo, yhi, c, d, s in boxes:
                if x1 < xlo:
                    break
                if xhi < x0 or yhi < y0 or y1 < ylo:
                    continue
                if (c != u or d != v) and cross(u, v, c, d):
                    return s
            return None

        return first


def segments_cross(ps: PointSet, s: Segment, t: Segment) -> bool:
    """Whether segments s and t of ``ps`` share a point besides a common endpoint."""
    return ps.segments_cross_ids(*s, *t)


class Matching:
    """A set of pairwise non-crossing segments, each point in at most one.

    Instances are immutable and hashable.  Construction validates the degree
    condition and (by default) the non-crossing invariant; internal callers
    that build edge sets which are non-crossing by construction may pass
    ``check=False``.
    """

    __slots__ = ("base", "edges", "_hash")

    def __init__(self, base: PointSet, edges: Iterable[Segment], check: bool = True):
        self.base = base
        self.edges = frozenset(edges)
        n = len(base)
        # one pass over the flattened ids; only a failing set goes through
        # the per-segment loop, which names the first bad segment
        ids = list(chain.from_iterable(self.edges))
        if ids and (len(set(ids)) != len(ids) or min(ids) < 0 or max(ids) >= n):
            used: set[int] = set()
            for s in self.edges:
                a, b = s
                if not (0 <= a < n and 0 <= b < n):
                    raise GeomatchError(f"segment {s} references a point outside the set")
                if a in used or b in used:
                    raise GeomatchError(f"point reused by segment {s}")
                used.add(a)
                used.add(b)
        if check:
            pair = base.first_crossing_within(self.edges)
            if pair is not None:
                raise GeomatchError(f"edges {pair[0]} and {pair[1]} cross")
        self._hash = hash((base._hash, self.edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.edges == other.edges and self.base == other.base

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Matching({len(self.edges)} edges on {len(self.base)} points)"

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def matched_ids(self) -> frozenset[int]:
        return frozenset(i for s in self.edges for i in s)

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == len(self.base)

    def sorted_edges(self) -> list[Segment]:
        return sorted(self.edges)


def _require_same_base(m1: Matching, m2: Matching) -> PointSet:
    if m1.base != m2.base:
        raise MismatchedVertexSet("matchings live on different point sets")
    return m1.base


def compatible(m1: Matching, m2: Matching) -> bool:
    """Whether the union of the two edge sets is pairwise non-crossing.

    Both arguments already satisfy the non-crossing invariant internally, so
    only cross pairs are examined, and an edge of both is skipped.
    """
    first = _require_same_base(m1, m2)._first_blocker(m2.edges)
    return not any(first(a, b) for a, b in m1.edges)


def disjoint(m1: Matching, m2: Matching) -> bool:
    """Whether the two matchings share no edge."""
    _require_same_base(m1, m2)
    return not (m1.edges & m2.edges)


# ---------------------------------------------------------------------------
# general position


def validate_general_position(ps: PointSet) -> None:
    """Raise CollinearTriple unless no three points are collinear.

    Runs in O(n^2).  From each anchor point ``i`` the later points get the
    float slope ``dy / dx`` of their direction (``inf`` when vertical).
    ``int / int`` is correctly rounded, so equal directions give equal
    floats, and when the anchor's slopes are all distinct no two later
    points are collinear with it.  Only an anchor with a float collision
    (or a slope too large for a float) gets the exact pass: it hashes the
    gcd-normalised integer direction to every later point, and the first
    repeated direction names the triple ``(i, j, k)``.  A collision between
    distinct slopes passes that check, so the answer and the triple are
    those of the exact pass alone.
    """
    ix, iy = ps._ix, ps._iy
    n = len(ps)
    inf = math.inf
    for i in range(n):
        xi, yi = ix[i], iy[i]
        try:
            keys = [
                (y - yi) / (x - xi) if x != xi else inf
                for x, y in zip(ix[i + 1 :], iy[i + 1 :])
            ]
        except OverflowError:
            pass
        else:
            if len(set(keys)) == len(keys):
                continue
        seen: dict[tuple[int, int], int] = {}
        for j in range(i + 1, n):
            dx = ix[j] - xi
            dy = iy[j] - yi
            g = math.gcd(dx, dy)
            dx //= g
            dy //= g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            key = (dx, dy)
            if key in seen:
                raise CollinearTriple(i, seen[key], j)
            seen[key] = j


# ---------------------------------------------------------------------------
# convex polygons, boxes, hulls


def _upper(dx, dy) -> bool:
    # whether direction (dx, dy) lies in the half-open upper half-plane
    return dy > 0 or (dy == 0 and dx > 0)


class ConvexPolygon:
    """A strictly convex polygon; vertices in counter-clockwise order."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Coord]):
        verts = tuple((as_scalar(x), as_scalar(y)) for x, y in vertices)
        if len(verts) < 3:
            raise GeomatchError("a convex polygon needs at least 3 vertices")
        m = len(verts)
        # every corner turns left, by less than a half turn, so the edge
        # directions wind around k >= 1 times and leave the upper half-plane
        # (dy > 0, or dy == 0 < dx) k times; a convex polygon has k == 1, a
        # star more
        lefts = leaves = 0
        for i in range(m):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % m]
            cx, cy = verts[(i + 2) % m]
            lefts += orient(ax, ay, bx, by, cx, cy) > 0
            leaves += _upper(bx - ax, by - ay) and not _upper(cx - bx, cy - by)
        if lefts < m or leaves != 1:
            raise GeomatchError("polygon vertices are not in strictly convex CCW order")
        self.vertices = verts

    @classmethod
    def _unchecked(cls, vertices: tuple[Coord, ...]) -> "ConvexPolygon":
        # trusted path for callers that have already certified strict convex
        # CCW order with exact arithmetic; skips the quadratic revalidation
        poly = object.__new__(cls)
        poly.vertices = vertices
        return poly

    def __eq__(self, other):
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"ConvexPolygon({len(self.vertices)} vertices)"

    def __len__(self):
        return len(self.vertices)

    def clip_halfplane(self, a: Fraction, b: Fraction, c: Fraction, keep: int):
        """Intersect with the halfplane sign(a*x + b*y - c) in {0, keep}.

        Returns a new ConvexPolygon, or None when the intersection has empty
        interior.  ``keep`` must be +1 or -1.
        """
        a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
        if keep not in (1, -1):
            raise GeomatchError("keep must be +1 or -1")
        v = self.vertices
        m = len(v)
        vals = [sign(a * x + b * y - c) * keep for x, y in v]
        out: list[Coord] = []
        for i in range(m):
            (px, py), (qx, qy) = v[i], v[(i + 1) % m]
            sp, sq = vals[i], vals[(i + 1) % m]
            if sp >= 0:
                out.append(v[i])
            if sp * sq < 0:
                # edge pq crosses the line at parameter t, strictly inside
                t = (c - a * px - b * py) / (a * (qx - px) + b * (qy - py))
                out.append((px + t * (qx - px), py + t * (qy - py)))
        # a line meets a strictly convex polygon's boundary in at most two
        # points or along one edge, so the kept corners are strictly convex
        # CCW as they stand, and fewer than three leave no interior
        if len(out) < 3:
            return None
        return ConvexPolygon._unchecked(tuple(out))


class BoundingBox:
    """An axis-parallel box; used to clip unbounded extension regions.

    ``BoundingBox(xmin, ymin, xmax, ymax)`` takes ints, strings like
    ``"3/4"`` or ``Fraction``s and raises ``GeomatchError`` unless the box
    has interior.  The box is held in one integer frame: the integers
    (X0, Y0, X1, Y1) and the frame F > 0, with gcd(X0, Y0, X1, Y1, F) = 1,
    stand for x from X0 / F to X1 / F and y from Y0 / F to Y1 / F.  F is the
    least common denominator of the bounds, so equal boxes hold equal
    integers.  ``xmin``, ``ymin``, ``xmax`` and ``ymax`` are ``Fraction``
    views built on read.  ``around`` and the integer clip behind
    ``clip_halfplane`` build no ``Fraction``, and ``extend`` reads the
    integers.  Boxes compare, hash, print, copy and pickle by their four
    ``Fraction`` bounds, as a frozen dataclass with those fields does, and
    no attribute can be assigned.
    """

    __slots__ = ("_ints",)
    __match_args__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin, ymin, xmax, ymax):
        xmin, ymin, xmax, ymax = (as_scalar(v) for v in (xmin, ymin, xmax, ymax))
        if not (xmin < xmax and ymin < ymax):
            raise GeomatchError("bounding box has empty interior")
        frame = math.lcm(xmin.denominator, ymin.denominator, xmax.denominator, ymax.denominator)
        object.__setattr__(
            self,
            "_ints",
            tuple(v.numerator * (frame // v.denominator) for v in (xmin, ymin, xmax, ymax))
            + (frame,),
        )

    @classmethod
    def _of(cls, x0: int, y0: int, x1: int, y1: int, frame: int) -> "BoundingBox":
        # the box of x0 / frame .. x1 / frame by y0 / frame .. y1 / frame,
        # frame > 0, with interior: reduced to its least frame, unchecked
        g = math.gcd(x0, y0, x1, y1, frame)
        box = object.__new__(cls)
        object.__setattr__(box, "_ints", (x0 // g, y0 // g, x1 // g, y1 // g, frame // g))
        return box

    @property
    def xmin(self) -> Fraction:
        return Fraction(self._ints[0], self._ints[4])

    @property
    def ymin(self) -> Fraction:
        return Fraction(self._ints[1], self._ints[4])

    @property
    def xmax(self) -> Fraction:
        return Fraction(self._ints[2], self._ints[4])

    @property
    def ymax(self) -> Fraction:
        return Fraction(self._ints[3], self._ints[4])

    def _fields(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._ints == other._ints
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        xmin, ymin, xmax, ymax = self._fields()
        return (
            f"{type(self).__qualname__}(xmin={xmin!r}, ymin={ymin!r}, "
            f"xmax={xmax!r}, ymax={ymax!r})"
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._fields())

    @classmethod
    def around(cls, ps: PointSet) -> "BoundingBox":
        """Box containing every point with margin 1 + coordinate spread."""
        if len(ps) == 0:
            raise TooFewPoints("cannot bound an empty point set")
        # in the point set's integer frame
        ix, iy, scale = ps._ix, ps._iy, ps._scale
        x0, x1, y0, y1 = min(ix), max(ix), min(iy), max(iy)
        margin = scale + max(x1 - x0, y1 - y0)
        return cls._of(x0 - margin, y0 - margin, x1 + margin, y1 + margin, scale)

    def clip_halfplane(self, a: Fraction, b: Fraction, c: Fraction, keep: int):
        """Intersect with the halfplane sign(a*x + b*y - c) in {0, keep}.

        A vertical or horizontal line cuts a box into a box: the result is a
        ``BoundingBox``, or None when it has empty interior.  The zero normal
        a = b = 0 keeps the whole box or nothing.  An oblique line raises
        ``GeomatchError``: shear it onto a vertical one first.  A public
        front: no construction calls it, ``algorithms._cut`` calls
        :meth:`_clip`.
        """
        if type(a) is not int:
            a = as_scalar(a)
        if type(b) is not int:
            b = as_scalar(b)
        c = as_scalar(c)
        if keep not in (1, -1):
            raise GeomatchError("keep must be +1 or -1")
        if a != 0 and b != 0:
            raise GeomatchError("only a vertical or horizontal line cuts a box into a box")
        # the line times the lcm of a's and b's denominators has integer a
        # and b, and c * den = (c.numerator * den) / c.denominator
        den = math.lcm(a.denominator, b.denominator)
        return self._clip(
            a.numerator * (den // a.denominator),
            b.numerator * (den // b.denominator),
            c.numerator * den,
            c.denominator,
            keep,
        )

    def _clip(self, a: int, b: int, c: int, d: int, keep: int):
        # clip_halfplane on the line a*x + b*y = c / d of integers, d > 0,
        # a or b zero: the bounds and the cut compare in the frame F * |a*d|
        # (or F * |b*d|), and the cut box is reduced from there
        if a == 0 and b == 0:
            return self if keep * c <= 0 else None
        x0, y0, x1, y1, f = self._ints
        den, lo, hi = (a * d, x0, x1) if b == 0 else (b * d, y0, y1)
        lower = keep * den > 0  # keep x (or y) >= the cut
        if den < 0:
            c, den = -c, -den
        cut, lo, hi = c * f, lo * den, hi * den
        if lower:
            lo = max(lo, cut)
        else:
            hi = min(hi, cut)
        if lo >= hi:  # the cut left no interior
            return None
        if b == 0:
            return BoundingBox._of(lo, y0 * den, hi, y1 * den, f * den)
        return BoundingBox._of(x0 * den, lo, x1 * den, hi, f * den)


@dataclass(frozen=True)
class HullResult:
    polygon: ConvexPolygon
    hull_ids: tuple[int, ...]  # CCW cyclic order
    interior_ids: tuple[int, ...]


def _hull_split(ps: PointSet, ids: Iterable[int]) -> tuple[list[int], tuple[int, ...]]:
    """Monotone chain over the scaled integer coordinates: the hull ids in
    CCW cyclic order, and the ids left strictly inside or on a hull edge in
    increasing order.  Requires at least 3 points, not all collinear."""
    idx = sorted(ids)
    if len(idx) < 3:
        raise TooFewPoints(f"convex hull needs >= 3 points, got {len(idx)}")
    ix, iy = ps._ix, ps._iy
    pts = sorted(idx, key=lambda i: (ix[i], iy[i]))
    hull: list[int] = []
    for seq in (pts, reversed(pts)):
        # lower chain, then upper; every turn that is not strictly left
        # pops the middle point
        chain: list[int] = []
        for k in seq:
            x, y = ix[k], iy[k]
            while len(chain) >= 2:
                i, j = chain[-2], chain[-1]
                xi, yi = ix[i], iy[i]
                if (ix[j] - xi) * (y - yi) - (iy[j] - yi) * (x - xi) > 0:
                    break
                chain.pop()
            chain.append(k)
        hull += chain[:-1]
    if len(hull) < 3:
        # every point is on the line of the two chain ends; name them and
        # the point next to the first end
        raise CollinearTriple(pts[0], pts[1], pts[-1])
    hull_set = set(hull)
    return hull, tuple(i for i in idx if i not in hull_set)


def convex_hull(ps: PointSet, ids: Optional[Iterable[int]] = None) -> HullResult:
    """Convex hull by monotone chain over the scaled integer coordinates.

    Returns the hull polygon, the cyclic CCW order of hull point ids, and the
    ids left strictly inside.  Requires at least 3 points.
    """
    hull, interior = _hull_split(ps, ps.ids if ids is None else ids)
    # the chain pops every non-left turn in exact integers, so the hull is
    # already strictly convex and CCW; skip the revalidating constructor
    poly = ConvexPolygon._unchecked(tuple(ps.coord(i) for i in hull))
    return HullResult(poly, tuple(hull), interior)


def convex_position_order(ps: PointSet, ids: Iterable[int]) -> list[int]:
    """CCW cyclic order of ``ids``, which must all be in convex position.

    The returned list starts at the smallest id.  Raises NotConvexPosition
    when some point falls strictly inside the hull of the others.
    """
    idx = list(ids)
    if len(idx) < 3:
        return sorted(idx)
    order, interior = _hull_split(ps, idx)
    if interior:
        raise NotConvexPosition(f"points {list(interior)} are inside the hull of the rest")
    k = order.index(min(order))
    return order[k:] + order[:k]


# ---------------------------------------------------------------------------
# shear preprocessing


def shear_points(ps: PointSet) -> tuple[PointSet, Fraction]:
    """Apply the x-shear x' = x + y/K, preserving all strict x-orderings.

    K = floor(max |dy| / min nonzero |dx|) + 1 is just large enough that no
    pair of points with distinct x swaps x-order, while pairs that tie in x
    become distinct (they must differ in y); when every x is equal, K is
    max |dy| + 1.  Shears are affine, so orientation signs, crossings and
    hulls are unchanged.  Returns the new set and K.
    """
    # the ratio of frame differences is the ratio of coordinate differences
    ix, iy = ps._ix, ps._iy
    max_dy = max(iy, default=0) - min(iy, default=0)
    xs = sorted(set(ix))
    if len(xs) > 1:
        K = Fraction(max_dy // min(b - a for a, b in zip(xs, xs[1:])) + 1)
    else:
        K = Fraction(max_dy, ps._scale) + 1
    sheared = PointSet(
        [Point(p.x + p.y / K, p.y, p.id) for p in ps.points]
    )
    return sheared, K


def distinct_x(ps: PointSet) -> bool:
    """Whether no two points share an x-coordinate (compared on the integer
    frame, where equal coordinates scale to equal integers)."""
    return len(set(ps._ix)) == len(ps)
