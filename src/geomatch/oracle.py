"""Brute-force ground truth at desk scale.

The constructions elsewhere are checked against exhaustive answers computed
here: full enumeration of non-crossing perfect matchings, existence of a
disjoint compatible one, exact shortest transformation distances, and
visibility graphs.

``enumerate_ncpm`` and ``has_disjoint_compatible_pm`` run the backtracking
search of ``matching_engine``, which ``constrained_matching`` shares.  It
always matches the lowest free point (the lowest set bit of an integer
bitmask of free points); the oracle has it try the partners in increasing
id, so each matching is reached exactly once and the catalog, or the first
witness, comes out in a fixed order.  Within one call the search memoises
whether a pair may be used at all (not an edge of ``m`` and crossing none of
them) and whether a candidate pair crosses an already chosen one, so no
crossing test is repeated across backtracks.  One closure per call,
``_blocked_test``, holds the edges of ``m`` boxed in integers and tests a
pair only against an edge whose box meets its own; the search's usable-pair
test and ``visibility_graph`` both use it.  About a third of the crossing
tests that remain share an endpoint (a candidate against the ``m`` edges at
its own ends, or against a chosen pair it touches) and almost never cross;
``PointSet.segments_cross_ids`` answers those with one integer cross product
and, only for collinear ends, one dot product.  Segments are only built for
the matchings returned.
The plain backtracking versions, with a crossing test at every step, are
kept in ``tests/helpers.py`` as the reference these are tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import InvariantViolation, MismatchedVertexSet, OddCount, TooLarge, Unreachable
from .geom_core import Matching, PointSet, Segment, compatible, disjoint
from .matching_engine import _match_search

ENUMERATION_LIMIT = 16  # points, for full matching catalogs
DISTANCE_LIMIT = 12  # points, for BFS over the catalog

MatchingCatalog = list[Matching]


def _mates(ps: PointSet, m_edges: Iterable[Segment]) -> list[int]:
    """Each point's partner in ``m_edges`` (-1 if none)."""
    mate = [-1] * len(ps)
    for a, b in m_edges:
        mate[a], mate[b] = b, a
    return mate


def _blocked_test(ps: PointSet, m_edges: Iterable[Segment]) -> Callable[[int, int], bool]:
    """``blocked(u, v)``: whether segment uv crosses an edge of ``m_edges``
    other than uv itself.  The edges are boxed once in integers
    (``PointSet._edge_boxes``); an edge whose box misses uv's shares no
    point with it, so only the others reach ``segments_cross_ids``."""
    ix, iy = ps._ix, ps._iy
    cross = ps.segments_cross_ids
    edges = ps._edge_boxes(m_edges)

    def blocked(u: int, v: int) -> bool:
        xu, xv, yu, yv = ix[u], ix[v], iy[u], iy[v]
        x0, x1 = (xu, xv) if xu < xv else (xv, xu)
        y0, y1 = (yu, yv) if yu < yv else (yv, yu)
        for xlo, xhi, ylo, yhi, c, d, _ in edges:
            if xhi < x0 or x1 < xlo or yhi < y0 or y1 < ylo:
                continue
            if (c != u or d != v) and cross(u, v, c, d):
                return True
        return False

    return blocked


def _search(ps: PointSet, m_edges: list[Segment], first_only: bool) -> list[list[Segment]]:
    """Non-crossing perfect matchings of ``ps`` that share no edge with, and
    cross no edge of, ``m_edges``, in search order; only the first if
    ``first_only``.  ``len(ps)`` must be even."""
    n = len(ps)
    mate = _mates(ps, m_edges)
    blocked = _blocked_test(ps, m_edges)
    # partners by increasing id: the tails of one shared list, never sorted
    by_id = [(b, 1 << b) for b in range(n)]
    rows = [by_id[a + 1 :] for a in range(n)]

    def usable(a: int, b: int) -> bool:
        return mate[a] != b and not blocked(a, b)

    return _match_search(range(n), rows, usable, ps.segments_cross_ids, first_only)


def enumerate_ncpm(ps: PointSet) -> MatchingCatalog:
    """All non-crossing perfect matchings of ``ps``.

    Backtracks by always matching the lowest-id free point, so each matching
    is produced exactly once.
    """
    n = len(ps)
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"{n} points exceeds the enumeration limit {ENUMERATION_LIMIT}")
    if n % 2 == 1:
        raise OddCount(f"{n} points cannot be perfectly matched")
    return [Matching(ps, edges, check=False) for edges in _search(ps, [], False)]


def has_disjoint_compatible_pm(m: Matching) -> tuple[bool, Optional[Matching]]:
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
    found = _search(ps, m.sorted_edges(), True)
    if not found:
        return False, None
    result = Matching(ps, found[0], check=False)
    if not (disjoint(m, result) and compatible(m, result)):
        raise InvariantViolation("the witness must be disjoint from and compatible with m")
    return True, result


def transformation_distance(m1: Matching, m2: Matching) -> int:
    """Fewest steps between perfect matchings, consecutive ones compatible.

    Breadth-first search over the full catalog; exact but exponential, so
    only for small instances.
    """
    if m1.base != m2.base:
        raise MismatchedVertexSet("matchings live on different point sets")
    ps = m1.base
    if len(ps) > DISTANCE_LIMIT:
        raise TooLarge(f"{len(ps)} points exceeds the BFS limit {DISTANCE_LIMIT}")
    if m1 == m2:
        return 0
    catalog = enumerate_ncpm(ps)
    dist = {m1: 0}
    queue = deque([m1])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        for nxt in catalog:
            if nxt in dist or not compatible(cur, nxt):
                continue
            if nxt == m2:
                return d + 1
            dist[nxt] = d + 1
            queue.append(nxt)
    raise Unreachable("no transformation found; catalog should be connected")


@dataclass(frozen=True)
class VisibilityGraph:
    """Abstract graph: which point pairs see each other past a matching."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.pairs:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad vertex pair ({u}, {v})")


def visibility_graph(m: Matching, minus_m: bool = False) -> VisibilityGraph:
    """Segment uv is an edge iff it crosses no edge of ``m`` (other than
    itself); with ``minus_m``, m's own edges are removed as well."""
    ps = m.base
    n = len(ps)
    mate = _mates(ps, m.edges)
    blocked = _blocked_test(ps, m.edges)
    pairs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if minus_m and mate[u] == v:
                continue
            if not blocked(u, v):
                pairs.add((u, v))
    return VisibilityGraph(n, frozenset(pairs))
