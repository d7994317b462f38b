"""Brute-force oracles and small generators used by the test suite.

Everything here is written independently of the library internals (raw
Fraction / integer math, no reuse of the predicates under test) so that the
suite cross-checks two separate derivations of each fact.
"""

from fractions import Fraction
from random import Random
from typing import Optional

from geomatch.errors import OddCount, TooLarge
from geomatch.geom_core import Matching, Point, PointSet, Segment, compatible, disjoint
from geomatch.oracle import ENUMERATION_LIMIT, MatchingCatalog, VisibilityGraph


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
        if _has_collinear(pts):
            continue
        return PointSet.from_coords(pts)


def _has_collinear(pts):
    n = len(pts)
    for i in range(n):
        seen = set()
        for j in range(i + 1, n):
            dx = pts[j][0] - pts[i][0]
            dy = pts[j][1] - pts[i][1]
            from math import gcd

            g = gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            if (dx, dy) in seen:
                return True
            seen.add((dx, dy))
    return False


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
    from geomatch.orientation import Multigraph

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
    from geomatch.orientation import Multigraph

    edges = [(rng.randrange(v), v) for v in range(1, n_edges + 1)]
    return Multigraph(n_edges + 1, edges)


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


def replay_extensions(m, region_poly, geometry):
    """Recompute every ray stop with plain Fraction line algebra.

    Independent of the engine's integer fast paths: processes the recorded
    rays in order, intersecting each ray with all base segments, previously
    placed extensions, and the region boundary, and returns the list of
    (terminus, hit_boundary) it derives.
    """
    ps = m.base
    base = []
    for s in sorted(m.edges):
        inside = region_poly.contains(ps.coord(s.a), strict=True) or region_poly.contains(
            ps.coord(s.b), strict=True
        )
        if inside:
            base.append((s, ps.coord(s.a), ps.coord(s.b)))
    placed = []
    out = []
    for ray in geometry.rays:
        ox, oy = ray.origin
        other = ps.coord(ray.segment.other(ray.from_point))
        dx, dy = ox - other[0], oy - other[1]
        # collinear candidates (its own base segment) drop out via denom == 0
        candidates = [(p, q, False) for _s, p, q in base]
        candidates += [(p, q, False) for p, q in placed]
        candidates += [(p, q, True) for p, q in region_poly.edges()]
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
        placed.append((ray.origin, terminus))
        out.append((terminus, best_boundary))
    return out


# ---------------------------------------------------------------------------
# naive oracle references
#
# The plain backtracking searches the oracle started from: a tuple of free
# ids, a fresh Segment per candidate and a crossing test against every edge
# of m and every chosen edge at each step.  They use the library's
# ``segments_cross_ids`` (itself checked against ``segments_cross_coords``
# and ``brute_segments_cross``) and fix the order in which the memoised
# searches of ``geomatch.oracle`` must return their results.


def naive_enumerate_ncpm(ps: PointSet, limit: int = ENUMERATION_LIMIT) -> MatchingCatalog:
    """All non-crossing perfect matchings of ``ps``.

    Backtracks by always matching the lowest-id free point, so each matching
    is produced exactly once.
    """
    n = len(ps)
    if n > limit:
        raise TooLarge(f"{n} points exceeds the enumeration limit {limit}")
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


def naive_has_disjoint_compatible_pm(
    m: Matching, limit: int = ENUMERATION_LIMIT
) -> tuple[bool, Optional[Matching]]:
    """Does a perfect matching disjoint from and compatible with ``m`` exist?

    Equivalent to filtering enumerate_ncpm by both predicates, but the
    search prunes early: a candidate edge is rejected the moment it repeats
    an edge of ``m``, crosses ``m``, or crosses an edge already chosen.
    Returns (found, witness or None).
    """
    ps = m.base
    n = len(ps)
    if n > limit:
        raise TooLarge(f"{n} points exceeds the enumeration limit {limit}")
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
