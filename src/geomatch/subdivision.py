"""Segment extension inside a box region, and the resulting subdivision.

The caller lists the rays to place as ``(segment, endpoint)`` pairs: each
pair extends the segment beyond that endpoint.  Rays are placed in list
order, and each stops at the first thing it meets — another segment, a
previously placed ray, or the region boundary.  Once all rays are placed,
the union of walls partitions the region into convex cells (one more cell
than the number of extended segments).  Every matching vertex inside the
region then lies on the shared boundary of exactly two cells, which is
recorded as the dual multigraph: one vertex per cell, one edge per
in-region matching vertex.

All arithmetic is exact.  Rays are compared by cross-multiplied integers in
a scaled frame, so no rounding ever decides a blocking order; a tie (two
blockers at the identical point, a ray through an existing vertex, or a ray
along the line of another segment) is a degeneracy and raises
DegenerateIncidence rather than being perturbed away.  Every blocker
keeps an integer bounding box of its current extent, and each ray a box of
the part of it that can still hold the first hit; a blocker whose box misses
the ray's box is skipped before any cross product is formed.

``extend`` runs in three stages.  The set-up (``_Scene``) puts the points
and the region in one integer frame.  The ray kernel (``_shoot``) places the
rays, the same whether or not a subdivision follows; ray k's terminus is
node k.  Unless ``partial``, the builder (``_subdivide``) then numbers the
region corners, the in-region matching vertices and each point where a
segment with an endpoint outside the region leaves it (every other wall end
is a ray terminus).  Each feature maps the parameters of its nodes
to their ids, so its edgelets link its nodes in parameter order, and nodes
are never found again by their coordinates.  Each node's outgoing edgelets
are listed as they are linked, and each face is walked once; the walk
records on the way whether the face is convex, where its corners are and
whether it passes a node twice.  Certificates catch a node that should have
been merged and was not: at most three edgelets per node, exactly one
non-convex face, Euler's formula, no cell passing a node twice, at least
three corners per cell and the cell count.

The cells keep their corners, and the placed rays their termini, as the
integer node triples of the frame; the ``Fraction`` polygons of
``ConvexSubdivision.cells`` and the ``RayExtension`` records of
``ExtensionGeometry.rays`` are built on first read, so a caller that only
needs the dual, or the termini as triples, never pays for them.

The region is always a ``BoundingBox``: the box around the points stands in
for the unbounded plane, and a box cut by a vertical or horizontal line
(``BoundingBox.clip_halfplane``) is a box too.  A caller that cuts by an
oblique line first shears the points so that the line becomes vertical (see
``algorithms.halfplane_matching``).  ``RayExtension.went_to_infinity`` means
"stopped on the region's edge", so it is also true on a cut edge.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Optional

from .errors import (
    DegenerateIncidence,
    GeomatchError,
    InvariantViolation,
    SegmentOutsideRegionRule,
)
from .geom_core import (
    BoundingBox,
    ConvexPolygon,
    Coord,
    Matching,
    PointSet,
    Segment,
    Triple,
    segment_order,
    segments_cross_coords,
)
# ``components`` is not called here; bench/test_bench.py checks that the
# tracer wraps this binding of it, so it stays until the benchmark drops it
from .orientation import Multigraph, components  # noqa: F401

# ---------------------------------------------------------------------------
# rays


def both_ways_rays(segments: Sequence[Segment]) -> list[tuple[Segment, int]]:
    """Both rays of every segment, in the given segment order."""
    return [(s, i) for s in segments for i in s.ids]


@dataclass(frozen=True)
class RayExtension:
    """One placed ray: where it started, where it stopped, and whether it
    stopped on the edge of the region box."""

    segment: Segment
    from_point: int
    origin: Coord
    terminus: Coord
    went_to_infinity: bool


class _LazyTuple(Sequence):
    """A tuple that the subclass's ``_build`` makes on first element access
    from integer data: a point held as (X, Y, W), W > 0, is built with the
    ``Fraction`` coordinates (X / (W * frame), Y / (W * frame)).  ``len``
    builds nothing; equality, hashing and repr are those of the tuple."""

    __slots__ = ("_raw", "_frame", "_items")

    def __init__(self, raw: Sequence[tuple], frame: int):
        self._raw = raw
        self._frame = frame
        self._items: Optional[tuple] = None

    def _built(self) -> tuple:
        if self._items is None:
            self._items = self._build()
        return self._items

    def __len__(self) -> int:
        return len(self._raw)

    def __getitem__(self, i):
        return self._built()[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyTuple):
            other = other._built()
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


class RayExtensions(_LazyTuple):
    """The placed rays as ``RayExtension`` records, each held as
    ``(segment, endpoint, X, Y, W, went_to_infinity)``.  :meth:`frame_termini`
    hands the termini to internal callers without building any ``Fraction``.
    """

    __slots__ = ("_ps",)

    def __init__(self, ps: PointSet, placed: Sequence[tuple], frame: int):
        super().__init__(placed, frame)
        self._ps = ps

    def _build(self) -> tuple[RayExtension, ...]:
        coord, frame = self._ps.coord, self._frame
        return tuple(
            RayExtension(
                segment=seg,
                from_point=endpoint,
                origin=coord(endpoint),
                terminus=(Fraction(x, w * frame), Fraction(y, w * frame)),
                went_to_infinity=infinite,
            )
            for seg, endpoint, x, y, w, infinite in self._raw
        )

    def frame_termini(self) -> list[Triple]:
        """The termini in the point set's integer frame (coordinates times
        ``ps._scale``): gcd-normalized triples (X, Y, W), W > 0, in ray order."""
        mult = self._frame // self._ps._scale
        out = []
        for _, _, x, y, w, _ in self._raw:
            w *= mult
            g = gcd(x, y, w)
            out.append((x // g, y // g, w // g))
        return out


@dataclass(frozen=True)
class ExtensionGeometry:
    rays: RayExtensions


# ---------------------------------------------------------------------------
# subdivision and dual


class EndpointRole(Enum):
    LEFT_END = "left"
    RIGHT_END = "right"
    BOTTOM_END = "bottom"
    TOP_END = "top"


class CellPolygons(_LazyTuple):
    """The cells of a subdivision as ``ConvexPolygon``s, each held as its
    counter-clockwise corners (X, Y, W)."""

    __slots__ = ()

    def _build(self) -> tuple[ConvexPolygon, ...]:
        frame = self._frame
        # the face walk certified each corner list as a strictly convex
        # CCW cycle, so the revalidating constructor is skipped
        return tuple(
            ConvexPolygon._unchecked(
                tuple((Fraction(x, w * frame), Fraction(y, w * frame)) for x, y, w in cell)
            )
            for cell in self._raw
        )


@dataclass(frozen=True)
class ConvexSubdivision:
    """Convex cells covering the region; each in-region matching vertex lies
    on the common boundary of exactly two of them (left cell listed first,
    looking along the segment from its coordinate-wise smaller endpoint).
    ``cells`` builds its polygons on first element access; subdivisions
    with equal cells and equal vertex cells are equal.
    """

    cells: CellPolygons
    vertex_cells: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class DualEdge:
    cells: tuple[int, int]  # (left, right) cell of the matching vertex
    vertex: int
    segment: Segment
    role: EndpointRole


@dataclass(frozen=True)
class DualMultigraph:
    n: int
    edges: tuple[DualEdge, ...]

    def graph(self) -> Multigraph:
        """The cells and edges as a ``Multigraph``, built on the first call
        and kept outside the fields, so equality, hash and repr ignore it."""
        g = self.__dict__.get("_graph")
        if g is None:
            g = Multigraph(self.n, [e.cells for e in self.edges])
            object.__setattr__(self, "_graph", g)
        return g


# ---------------------------------------------------------------------------
# the engine


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


# line parameters live as normalized integer pairs (n, d), d > 0, gcd(n, d) = 1,
# so equality is tuple equality and ordering is a cross-multiplication
_ZERO = (0, 1)
_ONE = (1, 1)


def _norm(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return (n // g, d // g)


def _pcmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - b[0] * a[1]


def _sort_params(params: list[tuple[int, int]]) -> None:
    """Sort distinct normalized parameters in place, increasing.

    ``int / int`` is correctly rounded, so the float sort is monotone; a
    cross-multiplied pass over adjacent pairs confirms it, and a float tie
    in the wrong order (or a quotient too large for a float) falls back to
    the exact sort.
    """
    try:
        params.sort(key=lambda p: p[0] / p[1])
    except OverflowError:
        params.sort(key=cmp_to_key(_pcmp))
        return
    for (an, ad), (bn, bd) in zip(params, params[1:]):
        if an * bd >= bn * ad:
            params.sort(key=cmp_to_key(_pcmp))
            return


def _turn_rank(a: tuple[int, int], vx: int, vy: int) -> int:
    """Where direction v lies turning counter-clockwise from direction a:
    0 within the first half turn, 1 exactly opposite, 2 within the second."""
    turn = a[0] * vy - a[1] * vx
    if turn > 0:
        return 0
    if turn < 0:
        return 2
    if a[0] * vx + a[1] * vy > 0:
        raise DegenerateIncidence("two collinear edgelets leave one vertex")
    return 1


def _walk_faces(
    dedge_from: list[int],
    dedge_dir: list[tuple[int, int]],
    prev_at_node: list[int],
    n_nodes: int,
) -> tuple[list[int], list[tuple[bool, bool, list[int]]]]:
    """One walk per face of a node/edgelet graph, face on the left.

    Dedges 2k and 2k+1 are the two directions of edgelet k, leaving nodes
    ``dedge_from`` in directions ``dedge_dir``; ``prev_at_node[e]`` is the
    dedge before e in the counter-clockwise order around its node, so the
    walk goes from e to the clockwise-next dedge around the head of e.
    Faces are numbered in the order of their smallest dedge.  Returns the
    face left of each dedge and, per face, ``(convex, pinched, corners)``:
    whether the walk turns left or goes straight at every node and never
    reverses, whether it leaves some node twice, and the nodes where it
    turns, in walk order from the tail of its smallest dedge.
    """
    face_of = [-1] * len(dedge_from)
    stamp = [-1] * n_nodes  # the last face whose walk left each node
    faces: list[tuple[bool, bool, list[int]]] = []
    for e0 in range(len(dedge_from)):
        if face_of[e0] >= 0:
            continue
        fid = len(faces)
        convex = True
        pinched = False
        corners: list[int] = []
        e = e0
        ax, ay = dedge_dir[e0]
        while True:
            face_of[e] = fid
            v = dedge_from[e]
            if stamp[v] == fid:
                pinched = True
            stamp[v] = fid
            e = prev_at_node[e ^ 1]
            bx, by = dedge_dir[e]
            turn = ax * by - ay * bx
            if turn:
                convex = convex and turn > 0
                corners.append(dedge_from[e])
            elif ax * bx + ay * by < 0:
                convex = False
            if face_of[e] >= 0:
                break
            ax, ay = bx, by
        if e != e0:
            raise InvariantViolation("face walk did not close")
        if turn:
            # the corner at the tail of e0 is found last and goes first
            corners.insert(0, corners.pop())
        faces.append((convex, pinched, corners))
    return face_of, faces


class _Feature:
    """A straight blocker: a wall (segment ``seg`` plus extensions) or a
    region edge (``seg`` None).

    Points on the carrier line are A + t*(B - A); for a wall, ``line`` is
    that line as (a, b, c) with a*x + b*y + c = 0, gcd-normalized and
    (a, b) > 0 lexicographically, so that equal lines give equal triples (a
    region edge never needs it: a wall has an endpoint strictly inside the
    region, so its line is never an edge's line).  ``lo..hi``
    is the part that currently exists, and ``x0..x1`` by ``y0..y1`` an
    integer box around it.  ``nodes`` maps the parameter of every node on
    the feature to its node id.
    """

    __slots__ = ("ax", "ay", "dx", "dy", "line", "lo", "hi", "x0", "y0", "x1", "y1", "seg", "nodes")

    def __init__(self, a, b, seg=None):
        ax, ay = self.ax, self.ay = a
        bx, by = b
        dx, dy = self.dx, self.dy = bx - ax, by - ay
        if seg is not None:
            c = dx * ay - dy * ax
            g = gcd(dy, dx, c)
            if dy < 0 or (dy == 0 and dx > 0):
                g = -g
            self.line = (dy // g, -dx // g, c // g)
        self.lo = _ZERO
        self.hi = _ONE
        self.x0, self.x1 = (ax, bx) if ax < bx else (bx, ax)
        self.y0, self.y1 = (ay, by) if ay < by else (by, ay)
        self.seg = seg
        self.nodes: dict[tuple[int, int], int] = {}

    def point(self, t: tuple[int, int]) -> tuple[int, int, int]:
        """A + t*(B - A) as a homogeneous integer triple."""
        tn, td = t
        return (self.ax * td + tn * self.dx, self.ay * td + tn * self.dy, td)


class _Scene:
    """The set-up of ``extend``: the points (``pts``) and region corners
    (``reg``) in one integer frame, each point's ``outside`` mask (bit k set
    when it lies strictly outside region edge k), the walls in
    ``segment_order`` with ``wall_at`` keyed by endpoint, and the region
    edges (``boundary``)."""

    def __init__(self, m: Matching, region: BoundingBox):
        if not isinstance(region, BoundingBox):
            raise GeomatchError("region must be a BoundingBox")
        ps = m.base
        # a shared integer frame for points and region corners, built on the
        # point set's cached scaling from the box's fields
        xmin, ymin, xmax, ymax = region.xmin, region.ymin, region.xmax, region.ymax
        self.frame = frame = lcm(
            ps._scale, xmin.denominator, ymin.denominator, xmax.denominator, ymax.denominator
        )
        x0 = xmin.numerator * (frame // xmin.denominator)
        y0 = ymin.numerator * (frame // ymin.denominator)
        x1 = xmax.numerator * (frame // xmax.denominator)
        y1 = ymax.numerator * (frame // ymax.denominator)
        # the corners in polygon() order, so the edges are bottom, right,
        # top, left and four integer comparisons give the bits; points are
        # scaled and classified in one pass, in the order of m's edges, so
        # the first point found on the boundary is the one reported
        self.reg = reg = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        mult = frame // ps._scale
        ix, iy = ps._ix, ps._iy
        self.pts = pts = {}
        self.outside = outside = {}
        for s in m.edges:
            for i in (s.a, s.b):
                px, py = pts[i] = (ix[i] * mult, iy[i] * mult)
                mask = (py < y0) | (px > x1) << 1 | (py > y1) << 2 | (px < x0) << 3
                if not mask and (py == y0 or px == x1 or py == y1 or px == x0):
                    raise DegenerateIncidence(f"point {i} lies exactly on the region boundary")
                outside[i] = mask

        # classify segments by how many endpoints are inside the region
        in_segments: list[Segment] = []
        for s in m.edges:
            if not outside[s.a] or not outside[s.b]:
                in_segments.append(s)
            elif not outside[s.a] & outside[s.b]:
                # no edge line has the whole segment strictly on its outer side
                for i in range(4):
                    r, t = reg[i], reg[(i + 1) % 4]
                    if segments_cross_coords(pts[s.a], pts[s.b], r, t):
                        raise SegmentOutsideRegionRule(
                            f"{s} crosses the region but has no endpoint inside"
                        )

        # the tables below are keyed by endpoint id (each point is on at
        # most one segment of m), so no Segment is hashed per ray
        in_segments.sort(key=segment_order)
        self.walls = walls = [_Feature(pts[s.a], pts[s.b], s) for s in in_segments]
        self.wall_at = wall_at = {}
        for f in walls:
            wall_at[f.seg.a] = wall_at[f.seg.b] = f
        self.boundary = boundary = [_Feature(reg[i], reg[(i + 1) % 4]) for i in range(4)]
        self.features = walls + boundary


def _shoot(scene: _Scene, rays: Sequence[tuple[Segment, int]]) -> list[tuple]:
    """Place validated rays in list order, each stopping at the first
    feature it meets, where its terminus becomes node k (for ray k) on both
    features.  Returns ``(segment, endpoint, X, Y, W, went_to_infinity)``
    per ray, the terminus a homogeneous integer triple in frame units."""
    pts, wall_at, features = scene.pts, scene.wall_at, scene.features

    # a ray along the line of another wall is degenerate wherever that wall
    # lies, even behind the ray; no wall's line is a region edge's line.
    # Lines are counted only when two walls share one.
    lines = [g.line for g in scene.walls]
    shared = ()
    if len(set(lines)) < len(lines):
        shared = {line for line, k in Counter(lines).items() if k > 1}

    # the region box bounds every ray's search; its corners are in
    # polygon() order, lower-left and upper-right at 0 and 2
    (rx0, ry0), _, (rx1, ry1), _ = scene.reg

    placed: list[tuple] = []
    for seg, endpoint in rays:
        f = wall_at[endpoint]
        if f.line in shared:
            raise DegenerateIncidence(
                f"ray from {endpoint} is collinear with another feature"
            )
        at_b = endpoint == seg.b
        ox, oy = pts[endpoint]
        dx, dy = f.dx, f.dy
        if not at_b:
            dx, dy = -dx, -dy
        # integer box of the part of the ray that can still hold the first
        # hit: the quadrant ahead of the origin inside the region box, cut
        # back to the best hit (hx/td, hy/td) so far
        bx0, bx1 = (ox, rx1) if dx > 0 else (rx0, ox) if dx < 0 else (ox, ox)
        by0, by1 = (oy, ry1) if dy > 0 else (ry0, oy) if dy < 0 else (oy, oy)
        best = None  # (tn, td, feature, un)
        tie = False
        # the hottest loop of extend, so the cross products are inlined: the
        # ray meets g at ray parameter tn/td >= 0 and g parameter un/td, which
        # must lie in g's current extent lo..hi.  The box test is strict, so
        # a feature through the origin or through the best hit is still
        # tested and the degeneracy checks below see it.
        for g in features:
            if g.x1 < bx0 or g.x0 > bx1 or g.y1 < by0 or g.y0 > by1 or g is f:
                continue
            ex, ey = g.dx, g.dy
            fx, fy = ox - g.ax, oy - g.ay
            denom = dx * ey - dy * ex
            if denom == 0:  # parallel; a common line was rejected above
                continue
            tn = ex * fy - ey * fx
            if denom < 0:
                tn, td = -tn, -denom
                un = dy * fx - dx * fy
            else:
                td = denom
                un = dx * fy - dy * fx
            if tn < 0:
                continue
            lo, hi = g.lo, g.hi
            if un * lo[1] < lo[0] * td or un * hi[1] > hi[0] * td:
                continue
            if tn == 0:
                raise DegenerateIncidence(
                    f"a blocker passes through matching vertex {endpoint}"
                )
            if best is None or tn * best[1] < best[0] * td:
                best = (tn, td, g, un)
                tie = False
                hx, hy = ox * td + tn * dx, oy * td + tn * dy
                if dx > 0:
                    bx1 = -(-hx // td)
                elif dx < 0:
                    bx0 = hx // td
                if dy > 0:
                    by1 = -(-hy // td)
                elif dy < 0:
                    by0 = hy // td
            elif tn * best[1] == best[0] * td:
                tie = True
        if best is None:
            raise InvariantViolation("ray escaped the bounded region")
        if tie:
            raise DegenerateIncidence(
                f"ray from {endpoint} meets two blockers at the same point"
            )
        tn, td, g, un = best
        u = _norm(un, td)
        # a region corner is its edge's 0 or 1, and a segment end its wall's;
        # every other node on g is an earlier terminus
        if u == _ZERO or u == _ONE or u in g.nodes:
            raise DegenerateIncidence(
                f"ray from {endpoint} stops exactly on an existing vertex"
            )
        if at_b:
            end = f.hi = _norm(td + tn, td)
        else:
            end = f.lo = _norm(-tn, td)
        g.nodes[u] = f.nodes[end] = len(placed)
        # the wall now reaches the terminus: its box takes in the ray's
        # search box, which was cut back to the box of origin and terminus
        f.x0, f.x1 = min(f.x0, bx0), max(f.x1, bx1)
        f.y0, f.y1 = min(f.y0, by0), max(f.y1, by1)
        placed.append((seg, endpoint, hx, hy, td, g.seg is None))
    return placed


def _subdivide(scene: _Scene, placed: list[tuple]) -> ConvexSubdivision:
    """Number the nodes of the fully extended walls, link them into
    edgelets, walk the faces and certify them as the region's convex cells."""
    reg, walls, boundary, outside = scene.reg, scene.walls, scene.boundary, scene.outside

    # ray k's terminus is node k; after the termini come the region corners,
    # the in-region matching vertices and the points where a wall leaves the
    # region.  node_pts holds them as homogeneous integer triples (X, Y, W),
    # W > 0, in frame units.
    node_pts: list[Triple] = [(x, y, w) for _, _, x, y, w, _ in placed]
    for k, g in enumerate(boundary):
        g.nodes[_ZERO] = len(node_pts) + k
        g.nodes[_ONE] = len(node_pts) + (k + 1) % 4
    node_pts += [(x, y, 1) for x, y in reg]
    for f in walls:
        for endpoint, t in ((f.seg.a, _ZERO), (f.seg.b, _ONE)):
            if not outside[endpoint]:
                f.nodes[t] = len(node_pts)
                node_pts.append((*scene.pts[endpoint], 1))

    # every in-region endpoint was extended, so a wall ends at a ray
    # terminus unless that end lies outside the region: then the wall leaves
    # the region through the interior of an edge that has the outside end on
    # its outer side, at a new node (a ray landing there would have met the
    # wall and the edge at once)
    (x0, y0), _, (x1, y1), _ = reg
    for f in walls:
        a, b, c = f.line
        if (
            a * x0 + b * y0 + c == 0
            or a * x1 + b * y0 + c == 0
            or a * x1 + b * y1 + c == 0
            or a * x0 + b * y1 + c == 0
        ):
            raise DegenerateIncidence("a segment line passes through a region corner")
        mask = outside[f.seg.a] | outside[f.seg.b]  # one end at most
        for k, g in enumerate(boundary):
            if not mask >> k & 1:
                continue
            fx, fy = f.ax - g.ax, f.ay - g.ay
            d = _cross(f.dx, f.dy, g.dx, g.dy)
            tn, un = _cross(g.dx, g.dy, fx, fy), _cross(f.dx, f.dy, fx, fy)
            if d < 0:
                d, tn, un = -d, -tn, -un
            if 0 < un < d:
                t = _norm(tn, d)
                f.nodes[t] = g.nodes[_norm(un, d)] = len(node_pts)
                node_pts.append(f.point(t))
                break

    # build the node/edgelet graph of the finished structure: every node on
    # a feature lies within its final extent, so linking each feature's
    # nodes in parameter order gives its edgelets.  Dedges 2k and 2k+1 are
    # the two directions of edgelet k; outgoing[v] lists the dedges leaving
    # node v in increasing order.
    dedge_from: list[int] = []
    dedge_dir: list[tuple[int, int]] = []
    outgoing: list[list[int]] = [[] for _ in node_pts]

    for f in scene.features:
        nodes = f.nodes
        params = list(nodes)
        _sort_params(params)
        d = (f.dx, f.dy)
        back = (-f.dx, -f.dy)
        prev = nodes[params[0]]
        for t in params[1:]:
            i = nodes[t]
            if prev == i:
                raise DegenerateIncidence("two structure vertices coincide")
            e = len(dedge_from)
            outgoing[prev].append(e)
            outgoing[i].append(e + 1)
            dedge_from.append(prev)
            dedge_from.append(i)
            dedge_dir.append(d)
            dedge_dir.append(back)
            prev = i

    # rotation system: prev_at_node[e] is the dedge before e in the
    # counter-clockwise cyclic order of the dedges leaving its node.  A node
    # meets at most three edgelets (a corner or a matching vertex two, a ray
    # landing or a wall leaving the region three; any more would need two
    # rays or walls through one point, which the ray search rejects), so the
    # order needs no sort.
    prev_at_node = [0] * len(dedge_from)
    for out in outgoing:
        if len(out) == 2:
            # two edgelets are in cyclic order either way; only a pair
            # leaving in the same direction is degenerate
            a, b = out
            (ax, ay), (bx, by) = dedge_dir[a], dedge_dir[b]
            if ax * by == ay * bx and ax * bx + ay * by > 0:
                raise DegenerateIncidence("two collinear edgelets leave one vertex")
            prev_at_node[a] = b
            prev_at_node[b] = a
        elif len(out) == 3:
            a, b, c = out
            da, (bx, by), (cx, cy) = dedge_dir[a], dedge_dir[b], dedge_dir[c]
            rb, rc = _turn_rank(da, bx, by), _turn_rank(da, cx, cy)
            if rb == rc:
                # same half turn from a: parallel means the same direction
                turn = _cross(bx, by, cx, cy)
                if turn == 0:
                    raise DegenerateIncidence("two collinear edgelets leave one vertex")
                b_first = turn > 0
            else:
                b_first = rb < rc
            if not b_first:
                b, c = c, b
            # cyclic order a, b, c
            prev_at_node[a] = c
            prev_at_node[b] = a
            prev_at_node[c] = b
        elif len(out) == 1:
            prev_at_node[out[0]] = out[0]
        elif len(out) > 3:
            raise InvariantViolation("a structure vertex meets more than three edgelets")

    face_of, faces = _walk_faces(dedge_from, dedge_dir, prev_at_node, len(node_pts))

    # Certificates, all in integers.  Any walk around the outside of a
    # connected piece must turn right somewhere (total turning -2pi) or
    # reverse (at a pendant), so "exactly one non-convex face" certifies
    # connectivity, and Euler's formula cross-checks it.
    if sum(not convex for convex, _, _ in faces) != 1:
        raise InvariantViolation("subdivision structure is not connected")
    if len(faces) != len(dedge_from) // 2 - len(node_pts) + 2:
        raise InvariantViolation("subdivision structure is not connected")

    cell_index = [-1] * len(faces)
    cells: list[tuple[tuple[int, int, int], ...]] = []
    for fid, (convex, pinched, corners) in enumerate(faces):
        if not convex:  # the outer face
            continue
        if pinched:
            raise InvariantViolation("a traced cell pinches at a vertex")
        if len(corners) < 3:
            raise InvariantViolation("traced cell has fewer than 3 corners")
        cell_index[fid] = len(cells)
        cells.append(tuple([node_pts[v] for v in corners]))

    if len(cells) != len(walls) + 1:
        both_in = sum(not outside[f.seg.a] | outside[f.seg.b] for f in walls)
        raise InvariantViolation(
            f"{len(cells)} cells for {len(walls) - both_in} + {both_in} extended segments"
        )

    # the two dedges leaving a matching vertex run along its wall, one
    # each way; the cell left of the one pointing away from the wall's
    # coordinate-wise smaller end is the vertex's left cell
    vertex_cells: dict[int, tuple[int, int]] = {}
    for f in walls:
        forward = (f.dx, f.dy)
        if forward < (0, 0):
            forward = (-f.dx, -f.dy)
        for endpoint, t in ((f.seg.a, _ZERO), (f.seg.b, _ONE)):
            if outside[endpoint]:
                continue
            out = outgoing[f.nodes[t]]
            if len(out) != 2:
                raise InvariantViolation("matching vertex is not interior to its wall")
            ahead, behind = out
            if dedge_dir[ahead] != forward:
                ahead, behind = behind, ahead
            left = cell_index[face_of[ahead]]
            right = cell_index[face_of[behind]]
            if left == right:
                raise InvariantViolation("matching vertex sees only one cell")
            vertex_cells[endpoint] = (left, right)

    return ConvexSubdivision(CellPolygons(cells, scene.frame), vertex_cells)


def extend(
    m: Matching,
    region: BoundingBox,
    rays: Sequence[tuple[Segment, int]],
    partial: bool = False,
):
    """Place the rays inside the region box, in list order.

    Each ray is a ``(segment, endpoint)`` pair that extends a segment of m
    beyond one of its endpoints inside the region; no ray may repeat.
    Returns (ExtensionGeometry, ConvexSubdivision), with the placed rays in
    the order given.  Unless ``partial``, the rays must extend every
    segment meeting the region beyond each of its endpoints inside it;
    with ``partial=True`` only the ray geometry is computed and the
    subdivision slot is None.
    """
    scene = _Scene(m, region)
    wall_at, outside = scene.wall_at, scene.outside

    # validate the rays: each leaves an in-region endpoint of its segment,
    # at most once
    given: set[int] = set()
    for seg, e in rays:
        f = wall_at.get(seg.a)
        if f is None or f.seg.b != seg.b:
            raise GeomatchError(f"ray from {seg}, which is not in the region")
        # also rejects a point that is not on seg
        if (e != seg.a and e != seg.b) or outside[e]:
            raise GeomatchError(f"{e} is not an endpoint of {seg} inside the region")
        if e in given:
            raise GeomatchError(f"{seg} extended twice beyond {e}")
        given.add(e)
    if not partial:
        for f in scene.walls:
            s = f.seg
            if (not outside[s.a] and s.a not in given) or (not outside[s.b] and s.b not in given):
                raise GeomatchError(f"the rays do not fully extend {s}")

    placed = _shoot(scene, rays)
    geometry = ExtensionGeometry(RayExtensions(m.base, placed, scene.frame))
    if partial:
        return geometry, None
    return geometry, _subdivide(scene, placed)


def dual_multigraph(sub: ConvexSubdivision, m: Matching) -> DualMultigraph:
    """One vertex per cell, one edge per in-region matching vertex."""
    edges = []
    seg_of: dict[int, Segment] = {}
    for s in m.edges:
        seg_of[s.a] = seg_of[s.b] = s
    # a vertex is its segment's left (bottom, when vertical) end when it
    # has the smaller x (y); the point set's scaled integers keep the order
    ix, iy = m.base._ix, m.base._iy
    vertex_cells = sub.vertex_cells
    for v in sorted(vertex_cells):
        seg = seg_of.get(v)
        if seg is None:
            raise InvariantViolation(f"subdivision vertex {v} is unmatched in M")
        a, b = seg.a, seg.b
        if ix[a] == ix[b]:
            low = (v == a) == (iy[a] < iy[b])
            role = EndpointRole.BOTTOM_END if low else EndpointRole.TOP_END
        else:
            left = (v == a) == (ix[a] < ix[b])
            role = EndpointRole.LEFT_END if left else EndpointRole.RIGHT_END
        edges.append(DualEdge(cells=vertex_cells[v], vertex=v, segment=seg, role=role))
    dual = DualMultigraph(len(sub.cells), tuple(edges))
    # connected when one search from cell 0 reaches every cell; it reads
    # the adjacency that the even orientation reads next
    n = dual.n
    adj = dual.graph().adjacency()
    reached = [True] + [False] * (n - 1)
    order = [0] if n else []
    for y in order:
        for _, z in adj[y]:
            if not reached[z]:
                reached[z] = True
                order.append(z)
    if not n or len(order) != n:
        raise InvariantViolation("dual multigraph is not connected")
    return dual
