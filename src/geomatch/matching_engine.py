"""Matching constructors shared by all the big constructions.

Three building blocks: perfect matchings of convex-position points avoiding
(or merely tolerating) a boundary matching, exhaustive matchings under
blocker constraints, and the assembly step that turns an even orientation
of a subdivision dual into a full matching, cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    GeomatchError,
    InvariantViolation,
    OddCount,
    SameSegmentIndegreeTwo,
    TwoPointsAlreadyMatched,
)
from .geom_core import (
    Coord,
    Matching,
    PointSet,
    Segment,
    Triple,
    blocker_table,
    convex_position_order,
    crosses_any_blocker,
    frame_blocker_table,
)
from .orientation import EvenOrientation
from .subdivision import DualMultigraph


def _hull_cycle(ps: PointSet, pts: Sequence[int]) -> list[int]:
    order = convex_position_order(ps, pts)
    if len(order) % 2 == 1:
        raise OddCount(f"{len(order)} points cannot be perfectly matched")
    return order


def _check_boundary_matching(order: list[int], mb: frozenset[Segment]) -> None:
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


def convex_disjoint_matching(
    ps: PointSet, pts: Sequence[int], mb: Iterable[Segment] = ()
) -> Matching:
    """Perfect matching of convex-position points, disjoint from and
    compatible with the hull-edge matching ``mb``.

    Induction: repeatedly match a hull-consecutive pair not joined by mb
    (smallest ids first) and shrink.  With four points left, a pair is only
    taken if the two points it leaves behind are not an mb edge.
    """
    mb = frozenset(mb)
    if len(pts) == 2:
        a, b = pts
        if mb:
            raise TwoPointsAlreadyMatched(
                f"points {a} and {b} are already joined in the given matching"
            )
        return Matching(ps, [Segment(a, b)], check=False)
    if not pts:
        return Matching(ps, [], check=False)
    order = _hull_cycle(ps, pts)
    _check_boundary_matching(order, mb)
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


def convex_compatible_matching(
    ps: PointSet, pts: Sequence[int], mb: Iterable[Segment] = ()
) -> Matching:
    """Perfect matching of convex-position points whose union with the
    hull-edge matching ``mb`` is non-crossing; edges of mb may be reused."""
    mb = frozenset(mb)
    if len(pts) == 2:
        return Matching(ps, [Segment(pts[0], pts[1])], check=False)
    if not pts:
        return Matching(ps, [], check=False)
    order = _hull_cycle(ps, pts)
    _check_boundary_matching(order, mb)
    return Matching(
        ps,
        [Segment(order[i], order[i + 1]) for i in range(0, len(order), 2)],
        check=False,
    )


# ---------------------------------------------------------------------------
# constrained matchings

Blocker = tuple[Coord, Coord]


@dataclass(frozen=True)
class ConstrainedMatchProblem:
    """Match ``points`` perfectly with edges that cross no blocker.

    Blockers are coordinate segments (matching edges, extension rays clipped
    to segments, ...); touching one at a shared endpoint is fine, crossing
    or overlapping it is not.

    This is the ``Fraction`` edge of the search: :meth:`table` converts the
    blockers once per problem into the point set's integer frame
    (:func:`geom_core.blocker_table`), and :func:`constrained_matching`
    decides every visibility test there, in exact integer arithmetic.  The
    constructions, whose blockers are already integer triples, pose a
    :class:`FrameMatchProblem` instead.
    """

    ps: PointSet
    points: tuple[int, ...]
    blockers: tuple[Blocker, ...] = ()

    def table(self) -> tuple[tuple, ...]:
        return blocker_table(self.ps, self.blockers)


@dataclass(frozen=True)
class FrameMatchProblem:
    """A :class:`ConstrainedMatchProblem` whose blockers are endpoint triples
    in the point set's integer frame, so nothing is converted: points of the
    set as ``(ix, iy, 1)``, ray termini as ``RayExtensions.frame_termini``
    gives them."""

    ps: PointSet
    points: tuple[int, ...]
    blockers: Sequence[tuple[Triple, Triple]] = ()

    def table(self) -> tuple[tuple, ...]:
        return frame_blocker_table(self.blockers)


def constrained_matching(
    prob: Union[ConstrainedMatchProblem, FrameMatchProblem]
) -> Optional[Matching]:
    """First perfect matching (canonical order) satisfying the constraints,
    or None when exhaustive search shows there is none."""
    ps = prob.ps
    if len(prob.points) % 2 == 1:
        raise OddCount(f"{len(prob.points)} points cannot be perfectly matched")
    table = prob.table()
    ix, iy = ps._ix, ps._iy
    visible_cache: dict[tuple[int, int], bool] = {}

    def visible(i: int, j: int) -> bool:
        key = (i, j)
        got = visible_cache.get(key)
        if got is None:
            got = not crosses_any_blocker((ix[i], iy[i]), (ix[j], iy[j]), table)
            visible_cache[key] = got
        return got

    def sort_key(i: int, j: int):
        # squared length in the integer frame: scaling keeps the order
        return ((ix[i] - ix[j]) ** 2 + (iy[i] - iy[j]) ** 2, j)

    chosen: list[Segment] = []

    def search(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        a = remaining[0]
        partners = [
            b
            for b in remaining[1:]
            if visible(a, b)
            and not any(ps.segments_cross_ids(a, b, s.a, s.b) for s in chosen)
        ]
        if not partners:
            return False
        partners.sort(key=lambda b: sort_key(a, b))
        for b in partners:
            chosen.append(Segment(a, b))
            if search(tuple(x for x in remaining if x != a and x != b)):
                return True
            chosen.pop()
        return False

    if search(tuple(prob.points)):
        return Matching(ps, chosen, check=False)
    return None


# ---------------------------------------------------------------------------
# assembling a matching from an even orientation of the dual


@dataclass(frozen=True)
class CellAssignment:
    """Which cell each in-region matching vertex was handed to."""

    vertex_cell: dict[int, int]
    cell_vertices: dict[int, tuple[int, ...]]


def assignment_from_orientation(
    dual: DualMultigraph, orientation: EvenOrientation
) -> CellAssignment:
    if orientation.graph.edges != tuple(e.cells for e in dual.edges):
        raise GeomatchError("orientation does not belong to this dual multigraph")
    vertex_cell: dict[int, int] = {}
    cell_vertices: dict[int, list[int]] = {y: [] for y in range(dual.n)}
    for dedge, head in zip(dual.edges, orientation.heads):
        vertex_cell[dedge.vertex] = head
        cell_vertices[head].append(dedge.vertex)
    for y, vs in cell_vertices.items():
        if len(vs) % 2 == 1:
            raise InvariantViolation(f"cell {y} was assigned an odd vertex count")
    return CellAssignment(
        vertex_cell, {y: tuple(sorted(vs)) for y, vs in cell_vertices.items()}
    )


def assemble_from_orientation(
    m: Matching,
    dual: DualMultigraph,
    orientation: EvenOrientation,
    require_disjoint: bool = True,
) -> Matching:
    """Per-cell convex matchings of the assigned vertices, unioned.

    The orientation hands every in-region vertex to one of its two cells;
    each cell's batch is in convex position on the cell boundary, with the
    induced edges of ``m`` appearing as hull-consecutive pairs.  Those
    batches are matched disjointly (or just compatibly) and combined.
    """
    ps = m.base
    assignment = assignment_from_orientation(dual, orientation)
    vertex_cell = assignment.vertex_cell
    # edges of m with both endpoints handed to one cell, grouped by cell
    induced_in: dict[int, list[Segment]] = {}
    for s in m.edges:
        y = vertex_cell.get(s.a)
        if y is not None and vertex_cell.get(s.b) == y:
            induced_in.setdefault(y, []).append(s)
    edges: list[Segment] = []
    for y in range(dual.n):
        batch = assignment.cell_vertices[y]
        if not batch:
            continue
        induced = induced_in.get(y, [])
        if require_disjoint:
            if len(batch) == 2 and induced:
                raise SameSegmentIndegreeTwo(
                    f"cell {y} received exactly the two endpoints of {induced[0]}"
                )
            cell_matching = convex_disjoint_matching(ps, batch, induced)
        else:
            cell_matching = convex_compatible_matching(ps, batch, induced)
        edges.extend(cell_matching.edges)
    if 2 * len(edges) != len(assignment.vertex_cell):
        raise InvariantViolation("assembled matching does not cover every vertex")
    return Matching(ps, edges, check=False)
