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
a scaled frame, so no rounding ever decides a blocking order.  A degeneracy
raises DegenerateIncidence where it occurs, rather than being perturbed
away: a blocker through a ray's origin, two blockers at a ray's first hit, a
ray that stops on an existing vertex (a region corner included) or passes an
end of another segment on its line, and a segment that leaves the region
exactly through a corner.  Every blocker keeps an integer bounding box of
its current extent, and each ray a box of the part of it that can still
hold the first hit; a blocker whose box misses the ray's box is skipped
before any cross product is formed.

``extend`` runs in three stages.  The set-up (``_Scene``) puts the points
and the region in one integer frame: the lcm of the point set's scale and
the box's own frame.  The ray kernel (``_shoot``) places the rays; ray k's
terminus is node k.  The builder (``_subdivide``) then numbers the region
corners and each point where a segment with an endpoint outside the region
leaves it (every other wall end is a ray terminus).  Each feature maps the
parameters of its nodes to their ids, so its edgelets link its nodes in
parameter order, and nodes are never found again by their coordinates.  An
in-region matching vertex is no node: it is a marker in its wall's sorted
parameters that records the edgelet it lies inside, and its two cells are
the faces left of that edgelet's two directions.  Each node's outgoing
edgelets are listed as they are linked, and each face is walked once; the
walk records on the way whether the face is convex, where its corners are
and whether it passes a node twice.  Certificates catch a node that should
have been merged and was not: a real node before and after every marker on
its wall, at most three edgelets per node, exactly one non-convex face,
Euler's formula, no cell passing a node twice, at least three corners per
cell, the cell count and two different cells at every matching vertex.
``_ray_termini`` runs the set-up and the kernel alone, for a caller that
needs only where some rays stop (``algorithms.crossings_matchings``).

The cells keep their corners as node ids, and the placed rays their termini
as integer triples of the frame; the ``Fraction`` polygons of
``ConvexSubdivision.cells`` and the ``RayExtension`` records of
``ExtensionGeometry.rays`` are built on first read, so a caller that only
needs the dual never pays for them.

The region is always a ``BoundingBox``: the box around the points stands in
for the unbounded plane, and a box cut by a vertical or horizontal line
(``BoundingBox.clip_halfplane``) is a box too.  A caller that cuts by an
oblique line first shears the points so that the line becomes vertical (see
``algorithms.halfplane_matching``).  ``RayExtension.went_to_infinity`` means
"stopped on the region's edge", so it is also true on a cut edge.
"""

from __future__ import annotations

from collections.abc import Container, Sequence
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
    segments_cross_coords,
)
# ``components`` is not called here; bench/test_bench.py checks that the
# tracer wraps this binding of it, so it stays until the benchmark drops it
from .orientation import Multigraph, components  # noqa: F401

# ---------------------------------------------------------------------------
# rays


def both_ways_rays(segments: Sequence[Segment]) -> list[tuple[Segment, int]]:
    """Both rays of every segment, in the given segment order."""
    return [(s, i) for s in segments for i in s]


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
    ``(segment, endpoint, X, Y, W, went_to_infinity)``."""

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
    """The cells of a subdivision as ``ConvexPolygon``s, each held as the
    ids of its counter-clockwise corners in ``nodes``, the node triples
    (X, Y, W)."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes: Sequence[Triple], corners: Sequence[Sequence[int]], frame: int):
        super().__init__(corners, frame)
        self._nodes = nodes

    def _build(self) -> tuple[ConvexPolygon, ...]:
        nodes, frame = self._nodes, self._frame
        # the face walk certified each corner list as a strictly convex
        # CCW cycle, so the revalidating constructor is skipped
        return tuple(
            ConvexPolygon._unchecked(
                tuple(
                    (Fraction(x, w * frame), Fraction(y, w * frame))
                    for x, y, w in map(nodes.__getitem__, cell)
                )
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
    head_first: Container[int],
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
    turns, in walk order from the tail of its smallest dedge, or from its
    head when that dedge is in ``head_first``.

    ``_subdivide`` lists there the backward dedge of each edgelet that holds
    a matching vertex.  A cell's corners start from the matching vertex
    when such a dedge comes first, as if the vertex split the edgelet in
    two, so the corner lists do not depend on whether vertices are nodes.
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
        if turn and e0 not in head_first:
            # the corner at the tail of e0 is found last and goes first
            corners.insert(0, corners.pop())
        faces.append((convex, pinched, corners))
    return face_of, faces


class _Feature:
    """A straight blocker: a wall (segment ``seg`` plus extensions) or a
    region edge (``seg`` None).

    Points on the carrier line are A + t*(B - A); for a wall, A and B are
    its segment's ends.  ``lo..hi`` is the part that currently exists, and
    ``x0..x1`` by ``y0..y1`` an integer box around it.  ``nodes`` maps the
    parameter of every node on the feature to its node id.
    """

    __slots__ = ("ax", "ay", "dx", "dy", "lo", "hi", "x0", "y0", "x1", "y1", "seg", "nodes")

    def __init__(self, a, b, seg=None):
        ax, ay = self.ax, self.ay = a
        bx, by = b
        self.dx, self.dy = bx - ax, by - ay
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
    when it lies strictly outside region edge k), the walls in segment
    order with ``wall_at`` keyed by endpoint, and the region edges
    (``boundary``)."""

    def __init__(self, m: Matching, region: BoundingBox):
        if not isinstance(region, BoundingBox):
            raise GeomatchError("region must be a BoundingBox")
        ps = m.base
        # a shared integer frame for points and region corners: the point
        # set's cached scaling and the box's own frame
        x0, y0, x1, y1, box_frame = region._ints
        self.frame = frame = lcm(ps._scale, box_frame)
        k = frame // box_frame
        x0, y0, x1, y1 = x0 * k, y0 * k, x1 * k, y1 * k
        # the corners counter-clockwise from the lower-left one, so the
        # edges are bottom, right, top, left and four integer comparisons
        # give the bits; points are scaled and classified in one pass, in
        # the order of m's edges, so the first point found on the boundary
        # is the one reported
        self.reg = reg = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        mult = frame // ps._scale
        ix, iy = ps._ix, ps._iy
        self.pts = pts = {}
        self.outside = outside = {}
        for s in m.edges:
            for i in s:
                px, py = pts[i] = (ix[i] * mult, iy[i] * mult)
                mask = (py < y0) | (px > x1) << 1 | (py > y1) << 2 | (px < x0) << 3
                if not mask and (py == y0 or px == x1 or py == y1 or px == x0):
                    raise DegenerateIncidence(f"point {i} lies exactly on the region boundary")
                outside[i] = mask

        # classify segments by how many endpoints are inside the region
        in_segments: list[Segment] = []
        for s in m.edges:
            a, b = s
            if not outside[a] or not outside[b]:
                in_segments.append(s)
            elif not outside[a] & outside[b]:
                # no edge line has the whole segment strictly on its outer side
                for i in range(4):
                    r, t = reg[i], reg[(i + 1) % 4]
                    if segments_cross_coords(pts[a], pts[b], r, t):
                        raise SegmentOutsideRegionRule(
                            f"{s} crosses the region but has no endpoint inside"
                        )

        # each point is on at most one segment of m, so a ray's endpoint
        # names its wall
        in_segments.sort()
        self.walls = walls = [_Feature(pts[s.a], pts[s.b], s) for s in in_segments]
        self.wall_at = {i: f for f in walls for i in f.seg}
        self.boundary = boundary = [_Feature(reg[i], reg[(i + 1) % 4]) for i in range(4)]
        self.features = walls + boundary


def _shoot(scene: _Scene, rays: Sequence[tuple[Segment, int]]) -> list[tuple]:
    """Place validated rays in list order, each stopping at the first
    feature it meets, where its terminus becomes node k (for ray k) on both
    features.  Returns ``(segment, endpoint, X, Y, W, went_to_infinity)``
    per ray, the terminus a homogeneous integer triple in frame units."""
    pts, wall_at, features = scene.pts, scene.wall_at, scene.features

    # the region box bounds every ray's search; its corners run
    # counter-clockwise, lower-left and upper-right at 0 and 2
    (rx0, ry0), _, (rx1, ry1), _ = scene.reg

    placed: list[tuple] = []
    for seg, endpoint in rays:
        f = wall_at[endpoint]
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
        along = []  # walls on the ray's line
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
            if denom == 0:  # parallel; no region edge is on a ray's line
                if ex * fy == ey * fx:
                    along.append(g)
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
        tn, td, g, un = best
        # a ray along another wall is degenerate if it passes one of that
        # wall's segment ends (x, y) by its hit, at ray parameter
        # t / (dx^2 + dy^2) <= tn/td; such an end is in the ray's box, so the
        # wall passed the box test.  A ray that meets only the wall's
        # extension stops on its terminus, a node of the feature hit.
        reach = tn * (dx * dx + dy * dy)
        for w in along:
            for x, y in ((w.ax, w.ay), (w.ax + w.dx, w.ay + w.dy)):
                t = (x - ox) * dx + (y - oy) * dy
                if 0 < t and t * td <= reach:
                    raise DegenerateIncidence(
                        f"ray from {endpoint} is collinear with another feature"
                    )
        if tie:
            raise DegenerateIncidence(
                f"ray from {endpoint} meets two blockers at the same point"
            )
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

    # ray k's terminus is node k; after the termini come the region corners
    # and the points where a wall leaves the region.  node_pts holds them as
    # homogeneous integer triples (X, Y, W), W > 0, in frame units.  An
    # in-region matching vertex i is no node: its wall maps its parameter to
    # the marker ~i (negative), and the vertex lies inside an edgelet.
    node_pts: list[Triple] = [(x, y, w) for _, _, x, y, w, _ in placed]
    for k, g in enumerate(boundary):
        g.nodes[_ZERO] = len(node_pts) + k
        g.nodes[_ONE] = len(node_pts) + (k + 1) % 4
    node_pts += [(x, y, 1) for x, y in reg]
    for f in walls:
        for endpoint, t in zip(f.seg, (_ZERO, _ONE)):
            if not outside[endpoint]:
                f.nodes[t] = ~endpoint

    # every in-region endpoint was extended, so a wall ends at a ray
    # terminus unless that end lies outside the region: then the wall leaves
    # the region through the interior of an edge that has the outside end on
    # its outer side, at a new node (a ray landing there would have met the
    # wall and the edge at once), or through a corner, which raises as a ray
    # that stops on a corner does
    for f in walls:
        mask = outside[f.seg.a] | outside[f.seg.b]  # one end at most
        if not mask:
            continue
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
        else:
            raise DegenerateIncidence("a segment line passes through a region corner")

    # build the node/edgelet graph of the finished structure: every node on
    # a feature lies within its final extent, so linking each feature's
    # nodes in parameter order gives its edgelets.  Dedges 2k and 2k+1 are
    # the two directions of edgelet k; outgoing[v] lists the dedges leaving
    # node v in increasing order.  A marker between two nodes records the
    # edgelet that links them in edgelet_of; a marker with no node before
    # or after it on its wall would be an end of the structure.
    dedge_from: list[int] = []
    dedge_dir: list[tuple[int, int]] = []
    outgoing: list[list[int]] = [[] for _ in node_pts]
    edgelet_of: dict[int, int] = {}

    for f in scene.features:
        nodes = f.nodes
        params = list(nodes)
        _sort_params(params)
        d = (f.dx, f.dy)
        back = (-f.dx, -f.dy)
        prev = nodes[params[0]]
        if prev < 0 or nodes[params[-1]] < 0:
            raise InvariantViolation("matching vertex is not interior to its wall")
        for t in params[1:]:
            i = nodes[t]
            if i < 0:
                edgelet_of[~i] = len(dedge_from) >> 1
                continue
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
    # meets at most three edgelets (a corner two, a ray landing or a wall
    # leaving the region three; any more would need two rays or walls
    # through one point, which the ray search rejects), so the order needs
    # no sort.
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

    face_of, faces = _walk_faces(
        dedge_from, dedge_dir, prev_at_node, len(node_pts), {2 * k + 1 for k in edgelet_of.values()}
    )

    # Certificates, all in integers.  Any walk around the outside of a
    # connected piece must turn right somewhere (total turning -2pi) or
    # reverse (at a pendant), so "exactly one non-convex face" certifies
    # connectivity, and Euler's formula cross-checks it.
    if sum(not convex for convex, _, _ in faces) != 1:
        raise InvariantViolation("subdivision structure is not connected")
    if len(faces) != len(dedge_from) // 2 - len(node_pts) + 2:
        raise InvariantViolation("subdivision structure is not connected")

    cell_index = [-1] * len(faces)
    cells: list[list[int]] = []
    for fid, (convex, pinched, corners) in enumerate(faces):
        if not convex:  # the outer face
            continue
        if pinched:
            raise InvariantViolation("a traced cell pinches at a vertex")
        if len(corners) < 3:
            raise InvariantViolation("traced cell has fewer than 3 corners")
        cell_index[fid] = len(cells)
        cells.append(corners)

    if len(cells) != len(walls) + 1:
        both_in = sum(not outside[f.seg.a] | outside[f.seg.b] for f in walls)
        raise InvariantViolation(
            f"{len(cells)} cells for {len(walls) - both_in} + {both_in} extended segments"
        )

    # the two dedges of the edgelet a matching vertex lies inside run along
    # its wall, one each way; the cell left of the one pointing away from
    # the wall's coordinate-wise smaller end is the vertex's left cell
    vertex_cells: dict[int, tuple[int, int]] = {}
    for f in walls:
        # dedge 2k runs along (dx, dy), 2k+1 back
        back = (f.dx, f.dy) < (0, 0)
        for endpoint in f.seg:
            if outside[endpoint]:
                continue
            ahead = 2 * edgelet_of[endpoint] + back
            behind = ahead ^ 1
            left = cell_index[face_of[ahead]]
            right = cell_index[face_of[behind]]
            if left == right:
                raise InvariantViolation("matching vertex sees only one cell")
            vertex_cells[endpoint] = (left, right)

    return ConvexSubdivision(CellPolygons(node_pts, cells, scene.frame), vertex_cells)


def extend(m: Matching, region: BoundingBox, rays: Sequence[tuple[Segment, int]]):
    """Place the rays inside the region box, in list order.

    Each ray is a ``(segment, endpoint)`` pair that extends a segment of m
    beyond one of its endpoints inside the region; no ray may repeat, and
    the rays must extend every segment meeting the region beyond each of
    its endpoints inside it.  Returns (ExtensionGeometry,
    ConvexSubdivision), with the placed rays in the order given.
    """
    scene = _Scene(m, region)
    wall_at, outside = scene.wall_at, scene.outside

    # validate the rays: each leaves an in-region endpoint of its segment,
    # at most once
    given: set[int] = set()
    for seg, e in rays:
        a, b = seg
        f = wall_at.get(a)
        if f is None or f.seg != seg:
            raise GeomatchError(f"ray from {seg}, which is not in the region")
        # also rejects a point that is not on seg
        if (e != a and e != b) or outside[e]:
            raise GeomatchError(f"{e} is not an endpoint of {seg} inside the region")
        if e in given:
            raise GeomatchError(f"{seg} extended twice beyond {e}")
        given.add(e)
    for f in scene.walls:
        a, b = f.seg
        if (not outside[a] and a not in given) or (not outside[b] and b not in given):
            raise GeomatchError(f"the rays do not fully extend {f.seg}")

    placed = _shoot(scene, rays)
    return ExtensionGeometry(RayExtensions(m.base, placed, scene.frame)), _subdivide(scene, placed)


def _ray_termini(
    m: Matching, region: BoundingBox, rays: Sequence[tuple[Segment, int]]
) -> list[Triple]:
    """Where ``extend`` would stop the rays, with no subdivision built
    after them: gcd-normalized triples (X, Y, W), W > 0, in the point set's
    integer frame (coordinates times ``ps._scale``), in ray order.  The
    caller vouches that each ray leaves an in-region endpoint of its
    segment, at most once; the rays need not extend every segment."""
    scene = _Scene(m, region)
    mult = scene.frame // m.base._scale
    out = []
    for _, _, x, y, w, _ in _shoot(scene, rays):
        w *= mult
        g = gcd(x, y, w)
        out.append((x // g, y // g, w // g))
    return out


def dual_multigraph(sub: ConvexSubdivision, m: Matching) -> DualMultigraph:
    """One vertex per cell, one edge per in-region matching vertex, in
    increasing vertex id.

    The view of the dual at the API edge: it adds each vertex's segment and
    :class:`EndpointRole` (:func:`_low_end` or not) to the plain dual that
    :func:`_plain_dual` reads.  No construction calls it; they read the
    plain dual, and build this view of it (:func:`_dual_view`) only to
    return it.
    """
    vertices, g = _plain_dual(sub)
    return _dual_view(m, vertices, g)


def _dual_view(m: Matching, vertices: Sequence[int], g: Multigraph) -> DualMultigraph:
    """The :func:`dual_multigraph` view of a plain dual ``(vertices, g)``
    that :func:`_plain_dual` read from a subdivision of ``m``."""
    seg_of = {i: s for s in m.edges for i in s}
    stray = [v for v in vertices if v not in seg_of]
    if stray:
        raise InvariantViolation(f"subdivision vertex {stray[0]} is unmatched in M")
    ps = m.base
    edges = []
    for v, cells in zip(vertices, g.edges):
        seg = seg_of[v]
        vertical = ps._ix[seg.a] == ps._ix[seg.b]
        if v == _low_end(ps, seg):
            role = EndpointRole.BOTTOM_END if vertical else EndpointRole.LEFT_END
        else:
            role = EndpointRole.TOP_END if vertical else EndpointRole.RIGHT_END
        edges.append(DualEdge(cells=cells, vertex=v, segment=seg, role=role))
    return DualMultigraph(g.n, tuple(edges))


def _low_end(ps: PointSet, seg: Segment) -> int:
    """The left end of ``seg``, or its bottom end when it is vertical; the
    point set's scaled integers keep the order."""
    a, b = seg
    key = ps._iy if ps._ix[a] == ps._ix[b] else ps._ix
    return a if key[a] < key[b] else b


def _plain_dual(sub: ConvexSubdivision) -> tuple[list[int], Multigraph]:
    """The dual as plain data: the in-region vertices in increasing id, and
    the multigraph on the cells with one edge per vertex, in that order,
    joining its (left, right) cells.  Raises InvariantViolation unless the
    dual is connected (:func:`_require_connected`)."""
    vertex_cells = sub.vertex_cells
    vertices = sorted(vertex_cells)
    g = Multigraph(len(sub.cells), [vertex_cells[v] for v in vertices])
    _require_connected(g)
    return vertices, g


def _require_connected(g: Multigraph) -> None:
    """Raise InvariantViolation unless the dual ``g`` has a cell and one
    search from cell 0 reaches every cell; it reads the adjacency that the
    even orientation reads next."""
    n = g.n
    adj = g.adjacency()
    reached = [True] + [False] * (n - 1)
    order = [0] if n else []
    for y in order:
        for _, z in adj[y]:
            if not reached[z]:
                reached[z] = True
                order.append(z)
    if not n or len(order) != n:
        raise InvariantViolation("dual multigraph is not connected")
