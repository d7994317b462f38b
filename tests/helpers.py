"""Brute-force oracles and small generators used by the test suite.

Everything here is written independently of the library internals (raw
Fraction / integer math, no reuse of the predicates under test) so that the
suite cross-checks two separate derivations of each fact.
"""

import itertools
import math
from fractions import Fraction
from random import Random
from typing import Optional

from geomatch.algorithms import ColoredDual
from geomatch.errors import (
    CollinearTriple,
    DegenerateIncidence,
    GeomatchError,
    InvariantViolation,
    NotAxisParallel,
    NotConvexPosition,
    OddCount,
    TooLarge,
    TwoPointsAlreadyMatched,
)
from geomatch.geom_core import (
    BoundingBox,
    ConvexPolygon,
    Matching,
    Point,
    PointSet,
    Segment,
    compatible,
    crosses_any_blocker,
    disjoint,
    frame_blocker_table,
)
from geomatch.matching_engine import assemble_from_orientation
from geomatch.oracle import ENUMERATION_LIMIT, MatchingCatalog, VisibilityGraph
from geomatch.orientation import (
    EvenOrientation,
    Multigraph,
    components,
    even_orientation,
    orientation_from_partition,
    prune_odd_components,
)
from geomatch.subdivision import DualMultigraph, EndpointRole, dual_multigraph, extend


def brute_orient(p, q, r):
    """Triangle orientation via an explicit 3x3 determinant expansion."""
    px, py = p
    qx, qy = q
    rx, ry = r
    det = px * (qy - ry) - py * (qx - rx) + (qx * ry - qy * rx)
    return (det > 0) - (det < 0)


def brute_segments_cross(p, q, r, s):
    """Independent crossing oracle: solve the two lines parametrically.

    Returns True iff the closed segments share a point that is not an
    endpoint of both.
    """
    px, py = (Fraction(p[0]), Fraction(p[1]))
    qx, qy = (Fraction(q[0]), Fraction(q[1]))
    rx, ry = (Fraction(r[0]), Fraction(r[1]))
    sx, sy = (Fraction(s[0]), Fraction(s[1]))
    d1x, d1y = qx - px, qy - py
    d2x, d2y = sx - rx, sy - ry
    denom = d1x * d2y - d1y * d2x
    common_eps = {(px, py), (qx, qy)} & {(rx, ry), (sx, sy)}

    def on1(x, y):
        if d1x != 0:
            t = (x - px) / d1x
        elif d1y != 0:
            t = (y - py) / d1y
        else:
            return (x, y) == (px, py)
        return 0 <= t <= 1 and (px + t * d1x, py + t * d1y) == (x, y)

    def on2(x, y):
        if d2x != 0:
            t = (x - rx) / d2x
        elif d2y != 0:
            t = (y - ry) / d2y
        else:
            return (x, y) == (rx, ry)
        return 0 <= t <= 1 and (rx + t * d2x, ry + t * d2y) == (x, y)

    if denom != 0:
        t = ((rx - px) * d2y - (ry - py) * d2x) / denom
        u = ((rx - px) * d1y - (ry - py) * d1x) / denom
        if 0 <= t <= 1 and 0 <= u <= 1:
            z = (px + t * d1x, py + t * d1y)
            return z not in common_eps if common_eps else True
        return False
    # parallel: a shared point needs collinearity
    if brute_orient((px, py), (qx, qy), (rx, ry)) != 0:
        return False
    shared = [
        (x, y)
        for (x, y) in {(px, py), (qx, qy), (rx, ry), (sx, sy)}
        if on1(x, y) and on2(x, y)
    ]
    extra = [z for z in shared if z not in common_eps]
    if extra:
        return True
    # overlap of positive length entirely between common endpoints?
    if len(shared) >= 2:
        return True
    return False


def brute_hull_ids(coords):
    """O(n^3) hull membership: i is on the hull iff some directed line through
    i and another point has every remaining point weakly on its left."""
    n = len(coords)
    on_hull = []
    for i in range(n):
        member = False
        for j in range(n):
            if i == j:
                continue
            good = True
            for k in range(n):
                if k in (i, j):
                    continue
                if brute_orient(coords[i], coords[j], coords[k]) < 0:
                    good = False
                    break
            if good:
                member = True
                break
        if member:
            on_hull.append(i)
    return set(on_hull)


def brute_union_noncrossing(coords, edges1, edges2):
    """Brute compatibility: no pair in the union of edge sets crosses."""
    union = list(dict.fromkeys(list(edges1) + list(edges2)))
    for i in range(len(union)):
        a, b = union[i]
        for j in range(i + 1, len(union)):
            c, d = union[j]
            if brute_segments_cross(coords[a], coords[b], coords[c], coords[d]):
                return False
    return True


def random_general_pointset(rng: Random, n: int, grid: int = 10**6) -> PointSet:
    """Random integer points, resampled until no duplicate / collinear triple."""
    while True:
        pts = [(rng.randrange(grid), rng.randrange(grid)) for _ in range(n)]
        if len(set(pts)) < n:
            continue
        ps = PointSet.from_coords(pts)
        if naive_collinear_triple(ps) is None:
            return ps


def pairwise_shear_K(ps: PointSet) -> Fraction:
    """The shear parameter of ``shear_points`` from every pair of points:
    floor(max |dy| / min nonzero |dx|) + 1, or max |dy| + 1 when every x is
    equal."""
    max_dy = Fraction(0)
    min_dx = None
    pts = ps.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dy = abs(pts[i].y - pts[j].y)
            dx = abs(pts[i].x - pts[j].x)
            if dy > max_dy:
                max_dy = dy
            if dx != 0 and (min_dx is None or dx < min_dx):
                min_dx = dx
    if min_dx is None:
        return max_dy + 1
    return Fraction(math.floor(max_dy / min_dx)) + 1


def naive_collinear_triple(ps: PointSet):
    """The collinear triple ``validate_general_position`` must name, or None.

    The exact pass on every anchor, with no float filter: from each point i
    the gcd-normalised integer direction to every later point j is hashed,
    and the first repeated direction gives ``(i, j0, j)`` with j0 the first
    point in that direction.
    """
    coords = [ps.coord(i) for i in ps.ids]
    scale = math.lcm(*(v.denominator for c in coords for v in c)) if coords else 1
    pts = [(int(x * scale), int(y * scale)) for x, y in coords]
    for i, (xi, yi) in enumerate(pts):
        seen: dict[tuple[int, int], int] = {}
        for j in range(i + 1, len(pts)):
            dx, dy = pts[j][0] - xi, pts[j][1] - yi
            g = math.gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            if (dx, dy) in seen:
                return (i, seen[(dx, dy)], j)
            seen[(dx, dy)] = j
    return None


def grid_pointset(rng, n, side):
    """n distinct points of a side x side integer grid (collinear triples
    and axis-parallel pairs are the rule, not the exception)."""
    cells = [(x, y) for x in range(side) for y in range(side)]
    return PointSet.from_coords(rng.sample(cells, n))


def random_ncpm_edges(ps: PointSet, rng: Random, ids=None):
    """A random non-crossing perfect matching over ``ids`` (angular recursion).

    Picks the bottom-most point, sorts the rest by angle around it and pairs
    it with a uniformly chosen point at an odd angular position; both sides
    of the chosen chord are solved recursively and cannot interact.
    """
    if ids is None:
        ids = list(ps.ids)
    ids = list(ids)
    assert len(ids) % 2 == 0
    if not ids:
        return set()
    if len(ids) == 2:
        return {Segment(ids[0], ids[1])}
    anchor = min(ids, key=lambda i: (ps.coord(i)[1], ps.coord(i)[0]))
    rest = [i for i in ids if i != anchor]

    # exact CCW sort around anchor: all rest lie weakly above it, so the
    # cross-product comparator is a total order
    import functools

    def cmp(i, j):
        return -ps.orient_ids(anchor, i, j)

    rest.sort(key=functools.cmp_to_key(cmp))
    k = rng.randrange((len(rest) + 1) // 2) * 2  # even index -> even side counts
    partner = rest[k]
    left = rest[:k]
    right = rest[k + 1 :]
    out = {Segment(anchor, partner)}
    out |= random_ncpm_edges(ps, rng, left)
    out |= random_ncpm_edges(ps, rng, right)
    return out


def random_matching_pair(rng: Random, n_segments: int, grid: int = 10**6):
    """Two independent random non-crossing perfect matchings on one point set."""
    ps = random_general_pointset(rng, 2 * n_segments, grid)
    m1 = Matching(ps, random_ncpm_edges(ps, rng))
    m2 = Matching(ps, random_ncpm_edges(ps, rng))
    return m1, m2


# ---------------------------------------------------------------------------
# multigraph oracles


def brute_even_orientations(n: int, edges) -> list[tuple[int, ...]]:
    """All even orientations of a multigraph, by trying every head choice."""
    m = len(edges)
    found = []
    for mask in range(1 << m):
        deg = [0] * n
        heads = []
        for i, (u, v) in enumerate(edges):
            h = v if (mask >> i) & 1 else u
            heads.append(h)
            deg[h] += 1
        if all(d % 2 == 0 for d in deg):
            found.append(tuple(heads))
    return found


def random_multigraph(rng: Random, max_n: int = 8, max_m: int = 12):
    n = rng.randint(2, max_n)
    m = rng.randint(0, max_m)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((u, v))
    return Multigraph(n, edges)


def random_tree(rng: Random, n_edges: int):
    """Random labeled tree on n_edges+1 vertices (attach each to an earlier one)."""
    edges = [(rng.randrange(v), v) for v in range(1, n_edges + 1)]
    return Multigraph(n_edges + 1, edges)


def count_odd_components(g: Multigraph) -> int:
    """The number of connected components of ``g`` with an odd number of edges."""
    return sum(1 for _, eids in components(g) if len(eids) % 2 == 1)


class NotATree(GeomatchError):
    pass


class OddTree(GeomatchError):
    pass


def tree_even_orientation(tree: Multigraph) -> EvenOrientation:
    """The unique even orientation of a tree with an even number of edges.

    Deleting an edge vw splits the tree into T_v and T_w, exactly one of
    which has an even edge count; the edge is oriented away from the even
    side.  Raises NotATree / OddTree on bad input.
    """
    m = len(tree.edges)
    if m != tree.n - 1 or len(components(tree)) > 1:
        raise NotATree(f"{tree!r} is not a tree")
    if m % 2 == 1:
        raise OddTree(f"tree has {m} edges")
    adj = tree.adjacency()
    root = 0
    parent: dict[int, tuple[int, int]] = {}  # vertex -> (parent vertex, edge id)
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for eid, w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = (v, eid)
                order.append(w)
    subtree_vertices = [1] * tree.n
    for v in reversed(order[1:]):
        subtree_vertices[parent[v][0]] += subtree_vertices[v]
    heads: list[Optional[int]] = [None] * m
    for v in order[1:]:
        u, eid = parent[v]
        edges_below = subtree_vertices[v] - 1  # edge count of T_v
        # T_v even -> orient v -> u; otherwise T_u is the even side.
        heads[eid] = u if edges_below % 2 == 0 else v
    return EvenOrientation(tree, tuple(heads))


def indegrees(o: EvenOrientation) -> list[int]:
    deg = [0] * o.graph.n
    for h in o.heads:
        deg[h] += 1
    return deg


def is_even(o: EvenOrientation) -> bool:
    return all(d % 2 == 0 for d in indegrees(o))


def two_pass_even_orientation(g: Multigraph) -> Optional[EvenOrientation]:
    """``orientation.even_orientation`` as it was written with
    ``components``: list the components first (smallest vertex first, edge
    ids sorted), then run a second breadth-first search per even component
    from its smallest vertex.  The reference for the one-search version,
    whose heads must be the same."""
    heads: list[Optional[int]] = [None] * len(g.edges)
    adj = g.adjacency()
    for verts, eids in components(g):
        if len(eids) % 2 == 1:
            return None
        root = verts[0]
        parent_edge: dict[int, int] = {}
        order = [root]
        seen = {root}
        tree_edges = set()
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for eid, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    parent_edge[w] = eid
                    tree_edges.add(eid)
                    order.append(w)
        parity = [0] * g.n
        for eid in eids:
            if eid not in tree_edges:
                heads[eid] = g.edges[eid][1]
                parity[g.edges[eid][1]] ^= 1
        for v in reversed(order[1:]):
            eid = parent_edge[v]
            u, w = g.edges[eid]
            other = w if v == u else u
            if parity[v]:
                heads[eid] = v
                parity[v] ^= 1
            else:
                heads[eid] = other
                parity[other] ^= 1
        if parity[root]:
            raise InvariantViolation("root parity odd in an even component")
    return EvenOrientation(g, tuple(heads))


def brute_pm_exists(n: int, pairs) -> bool:
    """Perfect-matching existence by unmemoised recursive pairing."""
    edge_set = {(min(u, v), max(u, v)) for u, v in pairs}

    def rec(rem: frozenset) -> bool:
        if not rem:
            return True
        a = min(rem)
        for b in rem:
            if b != a and (a, b) in edge_set:
                if rec(rem - {a, b}):
                    return True
        return False

    return n % 2 == 0 and rec(frozenset(range(n)))


# ---------------------------------------------------------------------------
# convex position and the per-cell matchings


def gift_wrap_order(ps: PointSet, ids) -> list[int]:
    """Reference for ``convex_position_order``: the CCW order of ``ids``
    from the smallest, by gift wrapping on ``brute_orient`` of the
    coordinates, with the library's errors.

    A point i is a hull vertex when, for some other point j, every further
    point is strictly left of the line from i through j or on it beyond i;
    all points collinear name the first two and the last in (x, y) order.
    """
    idx = list(ids)
    if len(idx) < 3:
        return sorted(idx)
    at = {i: ps.coord(i) for i in idx}
    by_xy = sorted(idx, key=lambda i: at[i])
    if all(brute_orient(at[by_xy[0]], at[by_xy[-1]], at[i]) == 0 for i in idx):
        raise CollinearTriple(by_xy[0], by_xy[1], by_xy[-1])

    def beyond(i: int, j: int, k: int) -> bool:
        (ix, iy), (jx, jy), (kx, ky) = at[i], at[j], at[k]
        side = brute_orient(at[i], at[j], at[k])
        return side > 0 or (side == 0 and (jx - ix) * (kx - ix) + (jy - iy) * (ky - iy) > 0)

    def inside(i: int) -> bool:
        return not any(
            all(beyond(i, j, k) for k in idx if k not in (i, j)) for j in idx if j != i
        )

    interior = sorted(i for i in idx if inside(i))
    if interior:
        raise NotConvexPosition(f"points {interior} are inside the hull of the rest")
    order = [min(idx)]
    while len(order) < len(idx):
        cur = order[-1]
        (nxt,) = [
            w for w in idx
            if w != cur and all(brute_orient(at[cur], at[w], at[x]) > 0 for x in idx if x not in (cur, w))
        ]
        order.append(nxt)
    return order


def _naive_convex_batch(ps: PointSet, pts, mb) -> tuple[list[int], frozenset]:
    order = gift_wrap_order(ps, pts)
    if len(order) % 2 == 1:
        raise OddCount(f"{len(order)} points cannot be perfectly matched")
    mb = frozenset(mb)
    k = len(order)
    position = {v: i for i, v in enumerate(order)}
    seen: set[int] = set()
    for s in mb:
        if s.a not in position or s.b not in position:
            raise GeomatchError(f"{s} is not an edge on the given points")
        if s.a in seen or s.b in seen:
            raise GeomatchError(f"{s} reuses a point of another boundary edge")
        seen.update(s.ids)
        if (position[s.a] - position[s.b]) % k not in (1, k - 1):
            raise GeomatchError(f"{s} does not join hull-consecutive points")
    return order, mb


def naive_convex_disjoint_matching(ps: PointSet, pts, mb=()) -> Matching:
    """Reference for ``convex_disjoint_matching``: the induction on
    ``Segment``s, on the gift-wrapping order, for every batch size."""
    order, mb = _naive_convex_batch(ps, pts, mb)
    if len(order) == 2 and mb:
        a, b = pts
        raise TwoPointsAlreadyMatched(
            f"points {a} and {b} are already joined in the given matching"
        )
    chosen: list[Segment] = []
    while len(order) > 2:
        k = len(order)
        candidates = []
        for i in range(k):
            v, w = order[i], order[(i + 1) % k]
            if Segment(v, w) in mb:
                continue
            if k == 4:
                x, y = order[(i + 2) % k], order[(i + 3) % k]
                if Segment(x, y) in mb:
                    continue
            candidates.append((min(v, w), max(v, w), i))
        if not candidates:
            raise InvariantViolation("no extendable hull-consecutive pair exists")
        _, _, i = min(candidates)
        v, w = order[i], order[(i + 1) % k]
        chosen.append(Segment(v, w))
        order = [x for x in order if x != v and x != w]
    if order:
        last = Segment(order[0], order[1])
        if last in mb:
            raise InvariantViolation("induction left an already-matched pair")
        chosen.append(last)
    return Matching(ps, chosen, check=False)


def naive_convex_compatible_matching(ps: PointSet, pts, mb=()) -> Matching:
    """Reference for ``convex_compatible_matching``: hull-consecutive pairs
    from the smallest id, after the same checks as the disjoint one."""
    order, _ = _naive_convex_batch(ps, pts, mb)
    return Matching(ps, [Segment(order[i], order[i + 1]) for i in range(0, len(order), 2)], check=False)


# ---------------------------------------------------------------------------
# polygons, boxes, segments


def other_end(seg: Segment, i: int) -> int:
    if i == seg.a:
        return seg.b
    if i == seg.b:
        return seg.a
    raise KeyError(i)


def polygon_area2(poly) -> Fraction:
    """Twice the (positive) area of a CCW ``ConvexPolygon``."""
    total = Fraction(0)
    v = poly.vertices
    for i in range(len(v)):
        (ax, ay), (bx, by) = v[i], v[(i + 1) % len(v)]
        total += ax * by - bx * ay
    return total


def polygon_edges(poly):
    """The edges of a ``ConvexPolygon`` as (corner, next corner) pairs."""
    v = poly.vertices
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def polygon_contains(poly, pt, strict: bool = False) -> bool:
    x, y = Fraction(pt[0]), Fraction(pt[1])
    lo = 1 if strict else 0
    v = poly.vertices
    for i in range(len(v)):
        (ax, ay), (bx, by) = v[i], v[(i + 1) % len(v)]
        if brute_orient((ax, ay), (bx, by), (x, y)) < lo:
            return False
    return True


def box_strictly_contains(box, pt) -> bool:
    x, y = pt
    return box.xmin < x < box.xmax and box.ymin < y < box.ymax


def box_polygon(box) -> ConvexPolygon:
    """A ``BoundingBox``'s corners as a polygon, counter-clockwise from the
    lower-left one."""
    return ConvexPolygon(
        [(box.xmin, box.ymin), (box.xmax, box.ymin), (box.xmax, box.ymax), (box.xmin, box.ymax)]
    )


def dual_graph(dual: DualMultigraph) -> Multigraph:
    """The cells and edges of the object dual as a ``Multigraph``."""
    return Multigraph(dual.n, [e.cells for e in dual.edges])


# ---------------------------------------------------------------------------
# halfplane steps from the public pipeline
#
# The library's halfplane steps read the dual straight from the subdivision,
# pair a side of two points directly and take a side of four points by a
# fixed order of its pairings.  These references take every other side
# through the public calls instead: ``extend``, ``dual_multigraph``,
# ``even_orientation`` of its graph and ``assemble_from_orientation``
# without the disjointness demand.  A side of four points gets the same
# order of pairings, tested by the brute crossing predicate.


def reference_four(ps: PointSet, side, edges) -> frozenset:
    """The first of the pairings ab|cd, ac|bd, ad|bc of the points
    a < b < c < d whose segments cross neither each other nor an edge
    of ``edges`` other than themselves, by ``brute_segments_cross`` on the
    coordinates of ``ps``; DegenerateIncidence if none does."""
    a, b, c, d = side

    def crosses(p, q, r, s):
        return brute_segments_cross(ps.coord(p), ps.coord(q), ps.coord(r), ps.coord(s))

    for pairing in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        if crosses(*pairing[0], *pairing[1]):
            continue
        if not any(
            crosses(p, q, *e) for p, q in pairing for e in edges if set(e) != {p, q}
        ):
            return frozenset(Segment(p, q) for p, q in pairing)
    raise DegenerateIncidence(f"no perfect matching of points {a}, {b}, {c}, {d}")


def reference_side(m: Matching, line, keep: int, box=None) -> frozenset:
    """The edges a halfplane step matches on the ``keep`` side of the line
    a*x + b*y = c, whose points must be an even number off the line.

    ``box`` is the box that is cut by the line, by default the box around
    the points.  An oblique line is first taken onto the vertical line
    a*x' = c by the shear x' = x + (b/a)*y, and the default box is the one
    around the sheared points."""
    a, b, c = (Fraction(v) for v in line)
    ps = m.base
    if a != 0 and b != 0:
        ps = PointSet([Point(p.x + b / a * p.y, p.y, p.id) for p in ps.points])
        b = Fraction(0)
    value = {i: a * ps.coord(i)[0] + b * ps.coord(i)[1] - c for i in ps.ids}
    side = {i for s in m.edges for i in s if value[i] * keep > 0}
    if not side:
        return frozenset()
    if len(side) == 4:
        return reference_four(ps, sorted(side), m.edges)
    if box is None:
        box = BoundingBox.around(ps)
    xmin, ymin, xmax, ymax = box.xmin, box.ymin, box.xmax, box.ymax
    if a != 0:
        if keep * a > 0:
            xmin = max(xmin, c / a)
        else:
            xmax = min(xmax, c / a)
    elif b != 0:
        if keep * b > 0:
            ymin = max(ymin, c / b)
        else:
            ymax = min(ymax, c / b)
    step = Matching(ps, m.edges)
    rays = [(e, i) for e in sorted(m.edges) for i in e if i in side]
    _, sub = extend(step, BoundingBox(xmin, ymin, xmax, ymax), rays)
    dual = dual_multigraph(sub, step)
    orientation = even_orientation(dual_graph(dual))
    out = assemble_from_orientation(step, dual, orientation, require_disjoint=False)
    return frozenset(out.edges)


def reference_even_cut(m: Matching, line, box=None) -> frozenset:
    """The edges an even cut by the line matches on its two sides."""
    return reference_side(m, line, 1, box) | reference_side(m, line, -1, box)


def reference_canonical_chain(m: Matching) -> list[frozenset]:
    """The edge sets of the transformation from a perfect matching on
    distinct x to the canonical matching: an even cut at x = cx between the
    k-th and the (k+1)-th point by x (k the even number of points left of
    it), then both halves in lockstep, each cut in the box around all the
    points; repeated sets are dropped."""
    ps = m.base
    box = BoundingBox.around(ps)

    def steps(ids, edges):
        if len(ids) <= 2:
            return [edges]
        by_x = sorted(ids, key=lambda i: ps.coord(i)[0])
        k = 2 * (len(ids) // 4)
        line = (1, 0, (ps.coord(by_x[k - 1])[0] + ps.coord(by_x[k])[0]) / 2)
        half = Matching(ps, edges)
        left = steps(by_x[:k], reference_side(half, line, -1, box))
        right = steps(by_x[k:], reference_side(half, line, 1, box))
        depth = max(len(left), len(right))
        left += [left[-1]] * (depth - len(left))
        right += [right[-1]] * (depth - len(right))
        return [edges] + [l | r for l, r in zip(left, right)]

    chain = []
    for edges in steps(list(ps.ids), frozenset(m.edges)):
        if not chain or chain[-1] != edges:
            chain.append(edges)
    return chain


# ---------------------------------------------------------------------------
# the 4/5 matching from the public pipeline
#
# ``four_fifths_matching`` reads the dual as plain cell pairs and orients
# each color on its own.  This reference takes the object dual through the
# public calls instead.


def naive_four_fifths_matching(m: Matching):
    """The fields of ``four_fifths_matching``'s report, in order (matching,
    n, guarantee, achieved, odd components, colored dual), from the public
    object dual: all right rays, then all left rays; ``dual_multigraph``
    colored by endpoint role (left blue, right red); one edge of each odd
    red component removed by ``prune_odd_components``; both colors oriented
    by ``orientation_from_partition`` and the heads assembled disjointly by
    ``assemble_from_orientation``.  Every segment must be non-vertical."""
    ps = m.base
    n = len(m)
    order = sorted(m.edges)
    ends = [sorted(e, key=lambda i: ps.coord(i)[0]) for e in order]
    rays = [(e, right) for e, (_, right) in zip(order, ends)]
    rays += [(e, left) for e, (left, _) in zip(order, ends)]
    _, sub = extend(m, BoundingBox.around(ps), rays)
    dual = dual_multigraph(sub, m)
    colors = tuple("blue" if e.role == EndpointRole.LEFT_END else "red" for e in dual.edges)
    colored = ColoredDual(dual, colors)
    red_ids = [i for i, c in enumerate(colors) if c == "red"]
    _, removed_local = prune_odd_components(colored.subgraph("red"))
    removed = {red_ids[i] for i in removed_local}
    kept = [i for i in range(len(dual.edges)) if i not in removed]
    reduced = DualMultigraph(dual.n, tuple(dual.edges[i] for i in kept))
    partition = {k: colors[i] for k, i in enumerate(kept)}
    orientation = orientation_from_partition(dual_graph(reduced), partition)
    out = assemble_from_orientation(m, reduced, orientation, require_disjoint=True)
    guarantee = -(-(4 * n - 1) // 5)
    return out, n, guarantee, len(out), len(removed), colored


# ---------------------------------------------------------------------------
# the axis-parallel matching and the two-trees search from the public pipeline
#
# ``hv_disjoint_matching`` and ``two_trees_search`` read the dual as plain
# cell pairs.  These references take the object dual through the public
# calls instead: ``extend``, ``dual_multigraph``, ``ColoredDual``,
# ``orientation_from_partition`` and ``assemble_from_orientation``.

LOW_ROLES = (EndpointRole.LEFT_END, EndpointRole.BOTTOM_END)


def _is_spanning_tree(g: Multigraph) -> bool:
    return len(g.edges) == g.n - 1 and len(components(g)) == 1


def _both_ways(segments) -> list:
    return [(s, i) for s in segments for i in s]


def naive_hv_disjoint_matching(m: Matching):
    """``hv_disjoint_matching``'s ``(matching or None, colored dual)``:
    horizontals then verticals extended both ways; dual edges at a left or
    bottom end red, the others green; each color a spanning tree, oriented
    by ``orientation_from_partition`` and assembled disjointly."""
    if not m.is_perfect:
        raise GeomatchError("input must be a perfect matching")
    ps = m.base
    order = sorted(m.edges)
    horizontals = [e for e in order if ps.coord(e.a)[1] == ps.coord(e.b)[1]]
    verticals = [e for e in order if ps.coord(e.a)[0] == ps.coord(e.b)[0]]
    if len(horizontals) + len(verticals) != len(m):
        bad = next(e for e in order if e not in horizontals and e not in verticals)
        raise NotAxisParallel(f"{bad} is neither horizontal nor vertical")
    _, sub = extend(m, BoundingBox.around(ps), _both_ways(horizontals + verticals))
    dual = dual_multigraph(sub, m)
    colors = tuple("red" if e.role in LOW_ROLES else "green" for e in dual.edges)
    colored = ColoredDual(dual, colors)
    for color in ("red", "green"):
        if not _is_spanning_tree(colored.subgraph(color)):
            raise InvariantViolation(f"the {color} subgraph is not a spanning tree")
    if len(m) % 2 == 1:
        return None, colored
    orientation = orientation_from_partition(dual_graph(dual), dict(enumerate(colors)))
    return assemble_from_orientation(m, dual, orientation, require_disjoint=True), colored


def naive_two_trees_search(m: Matching, max_orders: int = 24):
    """``two_trees_search``'s fields in order (found, rays, assignment,
    dual, orders tried, orders skipped): for each permutation of the sorted
    segments, all rays both ways, then (with no vertical segment) all right
    rays before all left ones; an order whose extension is degenerate is
    skipped, and the first split of some order's ``dual_multigraph`` edges
    into two spanning trees, the two edges of each segment apart, is the
    answer."""
    if not m.is_perfect:
        raise GeomatchError("input must be a perfect matching")
    ps = m.base
    order = sorted(m.edges)
    no_verticals = all(ps.coord(e.a)[0] != ps.coord(e.b)[0] for e in order)
    ends = {e: sorted(e, key=lambda i: ps.coord(i)[0]) for e in order}

    def candidate_orders():
        for perm in itertools.permutations(order):
            yield _both_ways(perm)
            if no_verticals:
                yield [(e, ends[e][1]) for e in perm] + [(e, ends[e][0]) for e in perm]

    tried = skipped = 0
    for rays in candidate_orders():
        if tried >= max_orders:
            break
        tried += 1
        try:
            _, sub = extend(m, BoundingBox.around(ps), rays)
        except DegenerateIncidence:
            skipped += 1
            continue
        dual = dual_multigraph(sub, m)
        by_segment: dict = {}
        for i, e in enumerate(dual.edges):
            by_segment.setdefault(e.segment, []).append(i)
        pairs = list(by_segment.values())
        if any(len(p) != 2 for p in pairs):
            raise InvariantViolation("each segment must contribute two dual edges")
        for mask in range(1 << (len(pairs) - 1)):
            assign = [0] * len(dual.edges)
            for j, (e1, e2) in enumerate(pairs):
                bit = (mask >> (j - 1)) & 1 if j else 0
                assign[e1], assign[e2] = bit, 1 - bit
            trees = [
                Multigraph(dual.n, [e.cells for e, a in zip(dual.edges, assign) if a == part])
                for part in (0, 1)
            ]
            if all(_is_spanning_tree(t) for t in trees):
                return True, tuple(rays), tuple(assign), dual, tried, skipped
    return False, None, None, None, tried, skipped


# ---------------------------------------------------------------------------
# blockers given by coordinates
#
# The constructions hand ``constrained_matching`` blockers as endpoint triples
# in the point set's integer frame.  These convert coordinate pairs into that
# frame through ``Fraction``s, the reference the triples built elsewhere must
# equal.


def frame_triple(x, y, scale: int) -> tuple[int, int, int]:
    """(x, y) * scale as a homogeneous triple (X, Y, W), W > 0, in lowest terms."""
    x, y = Fraction(x), Fraction(y)
    xn, xd = x.numerator * scale, x.denominator
    yn, yd = y.numerator * scale, y.denominator
    g = math.gcd(xn, xd)
    xn, xd = xn // g, xd // g
    g = math.gcd(yn, yd)
    yn, yd = yn // g, yd // g
    w = xd * yd // math.gcd(xd, yd)
    return (xn * (w // xd), yn * (w // yd), w)


def frame_blockers(ps: PointSet, coord_pairs):
    """Coordinate-pair blockers as endpoint triples in the frame of ``ps``."""
    scale = ps._scale
    return [
        (frame_triple(r[0], r[1], scale), frame_triple(s[0], s[1], scale))
        for r, s in coord_pairs
    ]


def blocker_table(ps: PointSet, coord_pairs):
    """The ``frame_blocker_table`` of coordinate-pair blockers."""
    return frame_blocker_table(frame_blockers(ps, coord_pairs))


def replay_extensions(m, region_poly, rays):
    """Recompute every ray stop with plain Fraction line algebra.

    Independent of the engine's integer fast paths: processes the
    ``(segment, endpoint)`` rays in order, intersecting each ray with all
    base segments, previously placed extensions, and the region boundary,
    and returns the list of (terminus, hit_boundary) it derives.
    """
    ps = m.base
    base = []
    for s in sorted(m.edges):
        inside = polygon_contains(region_poly, ps.coord(s.a), strict=True) or polygon_contains(
            region_poly, ps.coord(s.b), strict=True
        )
        if inside:
            base.append((s, ps.coord(s.a), ps.coord(s.b)))
    placed = []
    out = []
    for seg, endpoint in rays:
        ox, oy = origin = ps.coord(endpoint)
        other = ps.coord(other_end(seg, endpoint))
        dx, dy = ox - other[0], oy - other[1]
        # collinear candidates (its own base segment) drop out via denom == 0
        candidates = [(p, q, False) for _s, p, q in base]
        candidates += [(p, q, False) for p, q in placed]
        candidates += [(p, q, True) for p, q in polygon_edges(region_poly)]
        best = None
        best_boundary = None
        for (px, py), (qx, qy), is_bnd in candidates:
            ex, ey = qx - px, qy - py
            denom = dx * ey - dy * ex
            if denom == 0:
                continue
            t = ((px - ox) * ey - (py - oy) * ex) / denom
            u = ((px - ox) * dy - (py - oy) * dx) / denom
            if t <= 0 or not (0 <= u <= 1):
                continue
            if best is None or t < best:
                best = t
                best_boundary = is_bnd
        assert best is not None, "replay ray escaped the region"
        terminus = (ox + best * dx, oy + best * dy)
        placed.append((origin, terminus))
        out.append((terminus, best_boundary))
    return out


# ---------------------------------------------------------------------------
# naive search references
#
# The plain backtracking searches the oracle and ``constrained_matching``
# started from: a tuple of free ids, a fresh Segment per candidate and a
# crossing test against every edge of m (or every blocker) and every chosen
# edge at each step.  They use the library's ``segments_cross_ids`` and
# ``crosses_any_blocker`` (themselves checked against
# ``segments_cross_coords`` and ``brute_segments_cross``) and fix the order
# in which the memoised search of ``geomatch.matching_engine`` must return
# its results.


def naive_enumerate_ncpm(ps: PointSet) -> MatchingCatalog:
    """All non-crossing perfect matchings of ``ps``.

    Backtracks by always matching the lowest-id free point, so each matching
    is produced exactly once.
    """
    n = len(ps)
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"{n} points exceeds the enumeration limit {ENUMERATION_LIMIT}")
    if n % 2 == 1:
        raise OddCount(f"{n} points cannot be perfectly matched")
    out: MatchingCatalog = []
    chosen: list[Segment] = []

    def extend(remaining: tuple[int, ...]):
        if not remaining:
            out.append(Matching(ps, chosen, check=False))
            return
        a = remaining[0]
        for b in remaining[1:]:
            if any(ps.segments_cross_ids(a, b, s.a, s.b) for s in chosen):
                continue
            chosen.append(Segment(a, b))
            extend(tuple(x for x in remaining if x != a and x != b))
            chosen.pop()

    extend(tuple(range(n)))
    return out


def naive_has_disjoint_compatible_pm(m: Matching) -> tuple[bool, Optional[Matching]]:
    """Does a perfect matching disjoint from and compatible with ``m`` exist?

    Equivalent to filtering enumerate_ncpm by both predicates, but the
    search prunes early: a candidate edge is rejected the moment it repeats
    an edge of ``m``, crosses ``m``, or crosses an edge already chosen.
    Returns (found, witness or None).
    """
    ps = m.base
    n = len(ps)
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"{n} points exceeds the enumeration limit {ENUMERATION_LIMIT}")
    if n % 2 == 1:
        return False, None
    m_edges = m.sorted_edges()
    chosen: list[Segment] = []

    def extend(remaining: tuple[int, ...]) -> Optional[list[Segment]]:
        if not remaining:
            return list(chosen)
        a = remaining[0]
        for b in remaining[1:]:
            seg = Segment(a, b)
            if seg in m.edges:
                continue
            if any(ps.segments_cross_ids(a, b, s.a, s.b) for s in m_edges):
                continue
            if any(ps.segments_cross_ids(a, b, s.a, s.b) for s in chosen):
                continue
            chosen.append(seg)
            found = extend(tuple(x for x in remaining if x != a and x != b))
            chosen.pop()
            if found is not None:
                return found
        return None

    witness = extend(tuple(range(n)))
    if witness is None:
        return False, None
    result = Matching(ps, witness, check=False)
    assert disjoint(m, result) and compatible(m, result)
    return True, result


def naive_visibility_graph(m: Matching, minus_m: bool = False) -> VisibilityGraph:
    """Segment uv is an edge iff it crosses no edge of ``m`` (other than
    itself); with ``minus_m``, m's own edges are removed as well."""
    ps = m.base
    n = len(ps)
    pairs = set()
    for u in range(n):
        for v in range(u + 1, n):
            seg = Segment(u, v)
            if minus_m and seg in m.edges:
                continue
            if any(
                s != seg and ps.segments_cross_ids(u, v, s.a, s.b) for s in m.edges
            ):
                continue
            pairs.add((u, v))
    return VisibilityGraph(n, frozenset(pairs))


def naive_constrained_matching(ps: PointSet, points, blockers=()) -> Optional[Matching]:
    """First perfect matching of ``points`` whose edges cross no blocker (the
    endpoint triples ``constrained_matching`` takes), or None.

    Plain backtracking: the first remaining point in ``points`` order is
    matched to each visible remaining point that crosses no chosen edge, by
    increasing squared length, then id.
    """
    if len(points) % 2 == 1:
        raise OddCount(f"{len(points)} points cannot be perfectly matched")
    table = frame_blocker_table(blockers)
    ix, iy = ps._ix, ps._iy
    chosen: list[Segment] = []

    def search(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        a = remaining[0]
        partners = [
            b
            for b in remaining[1:]
            if not crosses_any_blocker((ix[a], iy[a]), (ix[b], iy[b]), table)
            and not any(ps.segments_cross_ids(a, b, s.a, s.b) for s in chosen)
        ]
        partners.sort(key=lambda b: ((ix[a] - ix[b]) ** 2 + (iy[a] - iy[b]) ** 2, b))
        for b in partners:
            chosen.append(Segment(a, b))
            if search(tuple(x for x in remaining if x != a and x != b)):
                return True
            chosen.pop()
        return False

    if search(tuple(points)):
        return Matching(ps, chosen, check=False)
    return None
