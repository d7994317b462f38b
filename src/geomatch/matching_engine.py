"""Matching constructors shared by all the big constructions.

Three building blocks: perfect matchings of convex-position points avoiding
(or merely tolerating) a boundary matching, exhaustive matchings under
blocker constraints, and the assembly step that turns an even orientation
of a subdivision dual into a full matching, cell by cell.

The package's one backtracking matching search, :func:`_match_search`, is
here.  :func:`constrained_matching` and the exhaustive oracle
(``oracle.enumerate_ncpm``, ``oracle.has_disjoint_compatible_pm``) are thin
callers: each poses a list of points, a partner order per point and a
usable-pair test, and the search memoises every test within the call.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    GeomatchError,
    InvariantViolation,
    OddCount,
    SameSegmentIndegreeTwo,
    TwoPointsAlreadyMatched,
)
from .geom_core import (
    Matching,
    PointSet,
    Segment,
    Triple,
    convex_position_order,
    crosses_any_blocker,
    frame_blocker_table,
)
from .orientation import EvenOrientation
from .subdivision import DualMultigraph


def _convex_batch(
    ps: PointSet, pts: Sequence[int], mb: Iterable[Segment]
) -> tuple[list[int], set[Segment]]:
    """The CCW order of an even number of convex-position points, and the
    hull-edge matching ``mb`` on them as a set, each edge checked to join
    hull-consecutive points and to share no point with another."""
    order = convex_position_order(ps, pts)
    k = len(order)
    if k % 2 == 1:
        raise OddCount(f"{k} points cannot be perfectly matched")
    taken = set(mb)
    if taken:
        position = {v: i for i, v in enumerate(order)}
        seen: set[int] = set()
        for s in taken:
            a, b = s
            if a not in position or b not in position:
                raise GeomatchError(f"{s} is not an edge on the given points")
            if a in seen or b in seen:
                raise GeomatchError(f"{s} reuses a point of another boundary edge")
            seen.add(a)
            seen.add(b)
            if (position[a] - position[b]) % k not in (1, k - 1):
                raise GeomatchError(f"{s} does not join hull-consecutive points")
    return order, taken


def convex_disjoint_matching(
    ps: PointSet, pts: Sequence[int], mb: Iterable[Segment] = ()
) -> Matching:
    """Perfect matching of convex-position points, disjoint from and
    compatible with the hull-edge matching ``mb``.

    Induction: repeatedly match a hull-consecutive pair not joined by mb
    (smallest ids first) and shrink.  With four points left, a pair is only
    taken if the two points it leaves behind are not an mb edge.  A public
    front: no construction calls it, the assembly calls :func:`_disjoint_cell`.
    """
    return Matching(ps, _disjoint_cell(ps, pts, mb), check=False)


def _disjoint_cell(ps: PointSet, pts: Sequence[int], mb: Iterable[Segment]) -> list[Segment]:
    """The edges of ``convex_disjoint_matching``."""
    order, taken = _convex_batch(ps, pts, mb)
    if len(order) == 2 and taken:
        a, b = pts
        raise TwoPointsAlreadyMatched(
            f"points {a} and {b} are already joined in the given matching"
        )
    chosen: list[Segment] = []
    while len(order) > 2:
        k = len(order)
        best = None
        for i in range(k):
            v, w = order[i], order[i + 1 - k]
            # a sorted id pair equals the Segment it names
            pair = (v, w) if v < w else (w, v)
            if pair in taken:
                continue
            if k == 4:
                x, y = order[i - 2], order[i - 1]
                if ((x, y) if x < y else (y, x)) in taken:
                    continue
            if best is None or pair < best:
                best = pair
        if best is None:
            raise InvariantViolation("no extendable hull-consecutive pair exists")
        v, w = best
        chosen.append(Segment(v, w))
        order = [x for x in order if x != v and x != w]
    if order:
        v, w = order
        if ((v, w) if v < w else (w, v)) in taken:
            raise InvariantViolation("induction left an already-matched pair")
        chosen.append(Segment(v, w))
    return chosen


def convex_compatible_matching(
    ps: PointSet, pts: Sequence[int], mb: Iterable[Segment] = ()
) -> Matching:
    """Perfect matching of convex-position points whose union with the
    hull-edge matching ``mb`` is non-crossing; edges of mb may be reused.
    A public front: no construction calls it, the assembly calls
    :func:`_compatible_cell`."""
    return Matching(ps, _compatible_cell(ps, pts, mb), check=False)


def _compatible_cell(ps: PointSet, pts: Sequence[int], mb: Iterable[Segment]) -> list[Segment]:
    """The edges of ``convex_compatible_matching``."""
    order, _ = _convex_batch(ps, pts, mb)
    return [Segment(order[i], order[i + 1]) for i in range(0, len(order), 2)]


# ---------------------------------------------------------------------------
# the backtracking matching search


def _match_search(
    points: Sequence[int],
    rows: Sequence[Sequence[tuple[int, int]]],
    usable: Callable[[int, int], bool],
    cross: Callable[[int, int, int, int], bool],
    first_only: bool,
) -> list[list[Segment]]:
    """Non-crossing perfect matchings of ``points`` made of usable pairs, in
    search order; only the first if ``first_only``.

    The search keeps the free positions of ``points`` as the set bits of an
    integer and always matches the lowest free position ``a``, trying its
    partners in the order of ``rows[a]``: ``(b, 1 << b)`` for every position
    ``b > a``.  ``usable(a, b)`` and ``cross(a, b, c, d)`` take positions;
    each answer is memoised for the call, so no pair is tested twice and no
    candidate is tested twice against one chosen pair.  ``len(points)`` must
    be even.
    """
    n = len(points)
    nn = n * n
    # pair (a, b), a < b, is index a*n + b; ok[p] is None until tested
    ok: list[Optional[bool]] = [None] * nn
    # crossing verdict of candidate pair p against chosen pair q, at p*nn + q
    verdicts: dict[int, bool] = {}
    chosen: list[int] = []
    leaves: list[list[int]] = [] if n else [[]]

    def extend(free: int) -> bool:
        low = free & -free
        a = low.bit_length() - 1
        rest = free ^ low
        base = a * n
        for b, bit in rows[a]:
            if not rest & bit:
                continue
            p = base + b
            good = ok[p]
            if good is None:
                good = ok[p] = usable(a, b)
            if not good:
                continue
            key = p * nn
            for q in chosen:
                hit = verdicts.get(key + q)
                if hit is None:
                    c, d = divmod(q, n)
                    hit = verdicts[key + q] = cross(a, b, c, d)
                if hit:
                    break
            else:
                chosen.append(p)
                left = rest ^ bit
                if left:
                    if extend(left):
                        return True
                else:
                    leaves.append(list(chosen))
                    if first_only:
                        return True
                chosen.pop()
        return False

    if n:
        extend((1 << n) - 1)
    # the recursive closure holds itself through its cell: drop it, or it
    # and every table it reads live on as garbage for the cycle collector
    del extend
    return [
        [Segment(points[p // n], points[p % n]) for p in leaf] for leaf in leaves
    ]


def constrained_matching(
    ps: PointSet, points: Sequence[int], blockers: Iterable[tuple[Triple, Triple]] = ()
) -> Optional[Matching]:
    """First perfect matching of ``points`` whose edges cross no blocker, or
    None when exhaustive search shows there is none.

    Blockers are segments given by endpoint triples in the integer frame of
    ``ps`` (:func:`geom_core.frame_blocker_table`): points of the set as
    ``(ix, iy, 1)``, ray termini as ``subdivision._ray_termini`` gives
    them.  Touching one at a shared endpoint is fine, crossing or
    overlapping it is not.  The first free point in ``points`` order is
    matched first, to its partners by increasing length, then id.
    """
    n = len(points)
    if n % 2 == 1:
        raise OddCount(f"{n} points cannot be perfectly matched")
    table = frame_blocker_table(blockers)
    ix, iy = ps._ix, ps._iy
    at = [(ix[i], iy[i]) for i in points]
    rows = []
    for a, (xa, ya) in enumerate(at):
        # squared length in the integer frame: scaling keeps the order
        later = sorted(
            ((x - xa) ** 2 + (y - ya) ** 2, points[b], b)
            for b, (x, y) in enumerate(at[a + 1 :], a + 1)
        )
        rows.append([(b, 1 << b) for _, _, b in later])
    seg_cross = ps.segments_cross_ids

    def usable(a: int, b: int) -> bool:
        return not crosses_any_blocker(at[a], at[b], table)

    def cross(a: int, b: int, c: int, d: int) -> bool:
        return seg_cross(points[a], points[b], points[c], points[d])

    found = _match_search(points, rows, usable, cross, True)
    return Matching(ps, found[0], check=False) if found else None


# ---------------------------------------------------------------------------
# assembling a matching from an even orientation of the dual


def assemble_from_orientation(
    m: Matching,
    dual: DualMultigraph,
    orientation: EvenOrientation,
    require_disjoint: bool = True,
) -> Matching:
    """Per-cell convex matchings of the assigned vertices, unioned.

    The orientation hands every in-region vertex to one of its two cells
    (the head of its dual edge); each cell's batch is in convex position on
    the cell boundary, with the induced edges of ``m`` appearing as
    hull-consecutive pairs.  Those batches are matched disjointly (or just
    compatibly) and combined.  A two-point batch is paired directly: its
    only possible induced edge is the pair itself, which a disjoint matching
    rejects and a compatible one reuses.

    A public front that no construction calls: it checks that the
    orientation's graph has the dual's edges, in order, and leaves the rest
    to :func:`_assemble`, which the constructions call on the plain dual.
    """
    if orientation.graph.edges != tuple(e.cells for e in dual.edges):
        raise GeomatchError("orientation does not belong to this dual multigraph")
    vertices = [e.vertex for e in dual.edges]
    edges = _assemble(m.base, m.edges, vertices, orientation.heads, dual.n, require_disjoint)
    return Matching(m.base, edges, check=False)


def _assemble(
    ps: PointSet,
    m_edges: Iterable[Segment],
    vertices: Sequence[int],
    heads: Sequence[int],
    n_cells: int,
    require_disjoint: bool,
) -> list[Segment]:
    """The edges of ``assemble_from_orientation``: ``vertices[k]`` goes to
    cell ``heads[k]`` of the ``n_cells`` cells, and each cell's batch is
    matched around its boundary, avoiding (if ``require_disjoint``) or
    tolerating the edges of ``m_edges`` it induces."""
    vertex_cell = dict(zip(vertices, heads))
    batches: list[list[int]] = [[] for _ in range(n_cells)]
    for v, head in zip(vertices, heads):
        batches[head].append(v)
    for y, batch in enumerate(batches):
        if len(batch) % 2 == 1:
            raise InvariantViolation(f"cell {y} was assigned an odd vertex count")
    # edges of m with both endpoints handed to one cell, grouped by cell
    induced_in: dict[int, list[Segment]] = {}
    for s in m_edges:
        a, b = s
        y = vertex_cell.get(a)
        if y is not None and vertex_cell.get(b) == y:
            induced_in.setdefault(y, []).append(s)
    edges: list[Segment] = []
    for y, batch in enumerate(batches):
        if not batch:
            continue
        induced = induced_in.get(y, [])
        if len(batch) == 2:
            if require_disjoint and induced:
                raise SameSegmentIndegreeTwo(
                    f"cell {y} received exactly the two endpoints of {induced[0]}"
                )
            edges.append(Segment(*batch))
        elif require_disjoint:
            edges += _disjoint_cell(ps, sorted(batch), induced)
        else:
            edges += _compatible_cell(ps, sorted(batch), induced)
    if 2 * len(edges) != len(vertex_cell):
        raise InvariantViolation("assembled matching does not cover every vertex")
    return edges
