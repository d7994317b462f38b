"""Brute-force ground truth at desk scale.

Everything here is deliberately simple and exhaustive so that the clever
constructions elsewhere can be checked against it: full enumeration of
non-crossing perfect matchings, existence of a disjoint compatible one,
exact shortest transformation distances, and visibility graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import MismatchedVertexSet, OddCount, TooLarge, Unreachable
from .geom_core import Matching, PointSet, Segment, compatible, disjoint

ENUMERATION_LIMIT = 16  # points, for full matching catalogs
DISTANCE_LIMIT = 12  # points, for BFS over the catalog
PERFECT_MATCHING_LIMIT = 24  # vertices, for abstract-graph matching search

MatchingCatalog = list[Matching]


def enumerate_ncpm(ps: PointSet, limit: int = ENUMERATION_LIMIT) -> MatchingCatalog:
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


def has_disjoint_compatible_pm(
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


def transformation_distance(
    m1: Matching, m2: Matching, limit: int = DISTANCE_LIMIT
) -> int:
    """Fewest steps between perfect matchings, consecutive ones compatible.

    Breadth-first search over the full catalog; exact but exponential, so
    only for small instances.
    """
    if m1.base != m2.base:
        raise MismatchedVertexSet("matchings live on different point sets")
    ps = m1.base
    if len(ps) > limit:
        raise TooLarge(f"{len(ps)} points exceeds the BFS limit {limit}")
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

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.pairs:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def visibility_graph(m: Matching, minus_m: bool = False) -> VisibilityGraph:
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


def graph_perfect_matching_exists(
    g: VisibilityGraph, limit: int = PERFECT_MATCHING_LIMIT
) -> bool:
    """Purely graph-theoretic perfect matching test (geometry ignored)."""
    n = g.n
    if n > limit:
        raise TooLarge(f"{n} vertices exceeds the matching-search limit {limit}")
    if n % 2 == 1:
        return False
    neighbor_mask = [0] * n
    for u, v in g.pairs:
        neighbor_mask[u] |= 1 << v
        neighbor_mask[v] |= 1 << u
    full = (1 << n) - 1
    memo: dict[int, bool] = {}

    def solve(mask: int) -> bool:
        if mask == full:
            return True
        cached = memo.get(mask)
        if cached is not None:
            return cached
        # lowest unmatched vertex must pair with an unmatched neighbor
        v = (~mask & full) & -(~mask & full)
        vi = v.bit_length() - 1
        ok = False
        cands = neighbor_mask[vi] & ~mask
        while cands:
            w = cands & -cands
            cands ^= w
            if solve(mask | v | w):
                ok = True
                break
        memo[mask] = ok
        return ok

    return solve(0)
