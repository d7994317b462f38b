"""End-to-end constructions on non-crossing perfect matchings.

Implements the logarithmic transformation between matchings, disjoint
compatible matchings for axis-parallel and convex-hull-connected inputs,
the 4/5-size guarantee for general even matchings, the relaxed variant
that tolerates crossings between the two halves, a searcher for the
two-trees dual structure, and instance generators (including the odd
counterexample families).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Optional, Sequence

from .errors import (
    DegenerateIncidence,
    DistinctXRequired,
    GenerationFailed,
    GeomatchError,
    InvariantViolation,
    MismatchedVertexSet,
    NotAxisParallel,
    NotCHC,
    OddCount,
    OddCut,
    OddMatching,
    OddN,
    VertexOnLine,
    VerticalSegment,
)
from .geom_core import (
    BoundingBox,
    Matching,
    Point,
    PointSet,
    Scalar,
    Segment,
    compatible,
    convex_hull,
    distinct_x,
    segments_cross_coords,
    shear_points,
    validate_general_position,
)
from .oracle import visibility_graph
from .matching_engine import _assemble, constrained_matching
from .orientation import (
    Multigraph,
    components,
    even_orientation,
    prune_odd_components,
)
from .subdivision import (
    DualMultigraph,
    _dual_view,
    _low_end,
    _plain_dual,
    _ray_termini,
    both_ways_rays,
    extend,
)

# an oriented line a*x + b*y = c; the halfplane selector picks the side
# where sign(a*x + b*y - c) equals it
Line = tuple[Scalar, Scalar, Scalar]

RED = "red"
GREEN = "green"
BLUE = "blue"


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class TransformationSequence:
    """A chain of perfect matchings, each compatible with the next."""

    matchings: tuple[Matching, ...]

    def __post_init__(self):
        if not self.matchings:
            raise GeomatchError("a transformation needs at least one matching")
        base = self.matchings[0].base
        covered = self.matchings[0].matched_ids
        for i, m in enumerate(self.matchings):
            if m.base != base:
                raise MismatchedVertexSet("sequence mixes point sets")
            if m.matched_ids != covered:
                raise InvariantViolation(f"entry {i} matches a different vertex set")
            if i and not compatible(self.matchings[i - 1], m):
                raise InvariantViolation(f"entries {i - 1} and {i} are incompatible")

    @property
    def length(self) -> int:
        return len(self.matchings) - 1

    @property
    def source(self) -> Matching:
        return self.matchings[0]

    @property
    def target(self) -> Matching:
        return self.matchings[-1]


@dataclass(frozen=True)
class ColoredDual:
    """A dual multigraph with one color per edge, two colors overall.

    The two dual edges arising from one segment always get distinct colors.
    """

    dual: DualMultigraph
    colors: tuple[str, ...]

    def __post_init__(self):
        if len(self.colors) != len(self.dual.edges):
            raise GeomatchError("one color per dual edge required")
        palette = set(self.colors)
        if not (palette <= {RED, GREEN} or palette <= {RED, BLUE}):
            raise GeomatchError(f"unsupported palette {sorted(palette)}")
        per_segment: dict[Segment, set[str]] = {}
        for e, c in zip(self.dual.edges, self.colors):
            per_segment.setdefault(e.segment, set()).add(c)
        for s, cs in per_segment.items():
            if len(cs) != 2:
                raise InvariantViolation(f"both edges of {s} are colored {cs.pop()}")

    def subgraph(self, color: str) -> Multigraph:
        return Multigraph(
            self.dual.n,
            tuple(e.cells for e, c in zip(self.dual.edges, self.colors) if c == color),
        )


class _ColoredView:
    """``ColoredDual(_dual_view(m, vertices, g), colors)``, built on the
    first call of :meth:`built` and kept; equality, hashing and repr are
    those of the built view."""

    __slots__ = ("_m", "_vertices", "_g", "_colors", "_view")

    def __init__(self, m: Matching, vertices: list[int], g: Multigraph, colors: tuple[str, ...]):
        self._m = m
        self._vertices = vertices
        self._g = g
        self._colors = colors
        self._view: Optional[ColoredDual] = None

    def built(self) -> ColoredDual:
        if self._view is None:
            self._view = ColoredDual(_dual_view(self._m, self._vertices, self._g), self._colors)
        return self._view

    def __eq__(self, other) -> bool:
        return isinstance(other, _ColoredView) and self.built() == other.built()

    def __hash__(self) -> int:
        return hash(self.built())

    def __repr__(self) -> str:
        return repr(self.built())


@dataclass(frozen=True)
class FourFifthsReport:
    """What :func:`four_fifths_matching` found: the matching, n, the
    guaranteed and the achieved size, and f(R), the number of odd
    components of the red subgraph.

    ``colored``, the colored dual, is built on its first read from the
    plain dual the construction kept, and kept.  Reports compare, hash and
    print by it too, so the first comparison also builds it.
    """

    matching: Matching
    n: int
    guarantee: int
    achieved: int
    odd_components: int
    _colored: _ColoredView

    @property
    def colored(self) -> ColoredDual:
        return self._colored.built()


@dataclass(frozen=True)
class TwoTreesResult:
    found: bool
    rays: Optional[tuple[tuple[Segment, int], ...]]
    assignment: Optional[tuple[int, ...]]
    dual: Optional[DualMultigraph]
    orders_tried: int
    orders_skipped: int


# ---------------------------------------------------------------------------
# transformation (canonical matchings and log-length chains)


def canonical_matching(ps: PointSet) -> Matching:
    """Sort by x and pair consecutively; the strips make it non-crossing."""
    if len(ps) % 2 == 1:
        raise OddCount(f"{len(ps)} points cannot be perfectly matched")
    if not distinct_x(ps):
        raise DistinctXRequired("canonical matching needs distinct x-coordinates")
    order = sorted(ps.ids, key=lambda i: ps._ix[i])
    return Matching(ps, [Segment(order[i], order[i + 1]) for i in range(0, len(order), 2)])


def _frame_line_sides(
    ps: PointSet, edges: Collection[Segment], ia: int, ib: int, ic: int
) -> dict[int, int]:
    """Side of the line ia*X + ib*Y = ic per point of ``edges`` (in id
    order), on the integer frame of ``ps`` (X, Y are the coordinates times
    its scale).  Raises VertexOnLine for the first point on the line, then
    OddCut if an odd number of the edges cross it."""
    ix, iy = ps._ix, ps._iy
    sides = {}
    # each point is on at most one edge, so no id repeats
    for i in sorted([i for e in edges for i in e]):
        v = ia * ix[i] + ib * iy[i] - ic
        if v == 0:
            raise VertexOnLine(f"point {i} lies on the cut line")
        sides[i] = 1 if v > 0 else -1
    cut = sum(sides[a] != sides[b] for a, b in edges)
    if cut % 2 == 1:
        raise OddCut(cut)
    return sides


def halfplane_matching(m: Matching, line: Line, keep: int) -> Matching:
    """Perfect matching of m's vertices on one side of the line, compatible
    with m: extend m inside ``BoundingBox.around`` the points, cut by the
    line, by one ray beyond every endpoint on the kept side (in sorted edge
    order), orient the dual evenly and match each cell's assigned vertices
    around its boundary.  A box cut by a vertical or horizontal line is
    again a box.  An oblique line a*x + b*y = c is first taken onto the
    vertical line a*x' = c by the x-shear x' = x + (b/a)*y of the points;
    the shear is affine, so it changes no side, crossing or compatibility,
    and the box is the one around the sheared points.

    Only a side of six points or more is extended.  Two points are paired.
    Four points a < b < c < d take the first of ab|cd, ac|bd and ad|bc
    whose two segments cross neither each other nor an edge of m; if none
    does, which needs points off general position, the step raises
    ``DegenerateIncidence``.
    """
    if keep not in (1, -1):
        raise GeomatchError("halfplane selector must be +1 or -1")
    return _cut_matching(m, line, (keep,))


def even_cut_matching(m: Matching, line: Line) -> Matching:
    """Match both sides of the line; the union never crosses the line.
    Each side is matched as by ``halfplane_matching``: a side of four points
    by the first compatible of its three pairings (or
    ``DegenerateIncidence``), a side of six or more by an extension."""
    # each side is non-crossing on its own and the open halfplanes are
    # disjoint, so the union needs no crossing re-check
    return _cut_matching(m, line, (1, -1))


def _cut_matching(m: Matching, line: Line, keeps: tuple[int, ...]) -> Matching:
    """The public front of ``_cut``: the edges of each kept side, as one
    matching on m's points."""
    a, b, c = (Fraction(v) for v in line)
    if not m.edges:
        # nothing to match, and an empty point set has no bounding box
        return Matching(m.base, [], check=False)
    ps = m.base
    if a != 0 and b != 0:
        # an oblique line: a*x' = c on the sheared points, whose sides are
        # those of the given points
        shift = b / a
        ps = PointSet([Point(p.x + shift * p.y, p.y, p.id) for p in ps.points])
        b = Fraction(0)
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    ia, ib, ic = int(a * den), int(b * den), int(c * den) * ps._scale
    per_side = _cut(ps, m.edges, ia, ib, ic, BoundingBox.around(ps), keeps)
    return Matching(m.base, [e for side in per_side for e in side], check=False)


def _cut(
    ps: PointSet,
    edges: Collection[Segment],
    ia: int,
    ib: int,
    ic: int,
    within: BoundingBox,
    keeps: tuple[int, ...],
) -> list[Collection[Segment]]:
    """The halfplane step on the integer frame of ``ps``: for each kept
    side of the line ia*X + ib*Y = ic, a perfect matching of the points
    of ``edges`` on that side, compatible with them.  ``within`` is a box
    around the points; each kept side's region is ``within`` clipped by the
    integer line itself (``BoundingBox._clip``, the clip behind
    ``clip_halfplane``), so no ``Fraction`` is built.  The line must be
    vertical or horizontal, or have the zero normal.

    Only a side of six points or more is extended.  A side of four points
    takes the first of its three perfect matchings that is compatible with
    ``edges`` (``_match_four``), and raises ``DegenerateIncidence`` if none
    is, which needs points off general position."""
    sides = _frame_line_sides(ps, edges, ia, ib, ic)
    m = first = None
    out = []
    for keep in keeps:
        inside = [i for i, s in sides.items() if s == keep]
        if len(inside) <= 2:
            # Two points have a single perfect matching, the one the
            # extension below would assemble, and it is compatible with the
            # edges: those on the far side lie in the other open halfplane,
            # and an edge leaving the side from one of the two points could
            # only overlap it if the other point touched that edge, which a
            # matching rules out.
            out.append([Segment(*inside)] if inside else [])
            continue
        if len(inside) == 4:
            if first is None:
                first = ps._first_blocker(edges)
            out.append(_match_four(ps, inside, first))
            continue
        if m is None:
            m = Matching(ps, edges, check=False)
            ordered = m.sorted_edges()
        # the line is ia*x + ib*y = ic / scale
        region = within._clip(ia, ib, ic, ps._scale, keep)
        if region is None:
            raise InvariantViolation("the bounding box misses the kept halfplane")
        rays = [(e, i) for e in ordered for i in e if sides[i] == keep]
        _, sub = extend(m, region, rays)
        # every in-region vertex is an endpoint of m
        vertices, dual = _plain_dual(sub)
        orientation = even_orientation(dual)
        if orientation is None:
            raise InvariantViolation("dual of a halfplane extension must orient evenly")
        out.append(_assemble(ps, m.edges, vertices, orientation.heads, dual.n, False))
    return out


def _match_four(ps: PointSet, inside: list[int], first) -> list[Segment]:
    """The first of the pairings ab|cd, ac|bd, ad|bc of the points
    a < b < c < d whose two segments cross neither each other nor an edge
    (``first``, the ``_first_blocker`` of the edges).  By the halfplane
    lemma one of them is compatible, the one an extension would assemble,
    so ``DegenerateIncidence`` needs points off general position."""
    a, b, c, d = inside
    cross = ps.segments_cross_ids
    for (p, q), (r, s) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        if not cross(p, q, r, s) and first(p, q) is None and first(r, s) is None:
            return [Segment(p, q), Segment(r, s)]
    raise DegenerateIncidence(
        f"no perfect matching of points {a}, {b}, {c}, {d} is compatible with the edges"
    )


def _canonical_steps(
    ps: PointSet,
    ids: list[int],
    edges: Collection[Segment],
    within: BoundingBox,
) -> list[frozenset[Segment]]:
    """Edge sets from ``edges`` to the canonical matching of ``ids``.

    One even-cut step at the median, then both halves advance in lockstep
    (the vertical line keeps them from ever interacting).  ``within`` is
    the box around all of ``ps``.  The step is ``even_cut_matching`` on the
    line x = cx, as one ``_cut`` on the line 2*X = 2*cx of the point set's
    integer frame: cx lies halfway between the k-th and the (k+1)-th point
    by x, which differ, so no point is on the line and the k (even) points
    left of it leave an even cut.
    """
    n_seg = len(ids) // 2
    if n_seg <= 1:
        return [frozenset(edges)]
    ix = ps._ix
    by_x = sorted(ids, key=ix.__getitem__)
    k = 2 * (n_seg // 2)
    mid2 = ix[by_x[k - 1]] + ix[by_x[k]]  # 2 * cx in frame units
    step = frozenset(edges)
    right, left = _cut(ps, step, 2, 0, mid2, within, (1, -1))
    lseq = _canonical_steps(ps, by_x[:k], left, within)
    rseq = _canonical_steps(ps, by_x[k:], right, within)
    depth = max(len(lseq), len(rseq))
    lseq += [lseq[-1]] * (depth - len(lseq))
    rseq += [rseq[-1]] * (depth - len(rseq))
    return [step] + [l | r for l, r in zip(lseq, rseq)]


def _collapse(steps: Sequence[frozenset[Segment]]) -> list[frozenset[Segment]]:
    out: list[frozenset[Segment]] = []
    for s in steps:
        if not out or out[-1] != s:
            out.append(s)
    return out


def _chain_to_canonical(m: Matching) -> list[Matching]:
    """The matchings of a transformation from m to the canonical matching
    of its points (with distinct x), each one checked non-crossing, at most
    ceil(log2 n) steps long and ending at the canonical matching.
    Consecutive entries are not checked for compatibility here: the
    ``TransformationSequence`` built from the chain does that."""
    if not m.is_perfect:
        raise GeomatchError("transformation requires a perfect matching")
    ps = m.base
    within = BoundingBox.around(ps)
    steps = _canonical_steps(ps, list(ps.ids), m.sorted_edges(), within)
    chain = [Matching(ps, s) for s in _collapse(steps)]
    n = len(m)
    bound = math.ceil(math.log2(n)) if n > 1 else 0
    if len(chain) - 1 > bound:
        raise InvariantViolation(f"length {len(chain) - 1} exceeds log bound {bound}")
    if chain[-1].edges != canonical_matching(ps).edges:
        raise InvariantViolation("transformation did not reach the canonical matching")
    return chain


def transform_to_canonical(m: Matching) -> TransformationSequence:
    """A transformation from m to the canonical matching of its points,
    of length at most ceil(log2 n).  The canonical matching follows the
    given x-order, so tied x-coordinates raise ``DistinctXRequired``."""
    # a matching that is not perfect is refused by the chain itself
    if m.is_perfect and not distinct_x(m.base):
        raise DistinctXRequired("transformation needs distinct x-coordinates")
    return TransformationSequence(tuple(_chain_to_canonical(m)))


def transform(m1: Matching, m2: Matching) -> TransformationSequence:
    """A transformation between two perfect matchings of one point set,
    of length at most 2*ceil(log2 n), through the canonical matching.

    Tied x-coordinates are first sheared apart by ``shear_points``; a shear
    is affine, so the edge sets of the steps are valid, and re-checked, on
    the given points.  Each pair of consecutive matchings of the result is
    checked once."""
    if m1.base != m2.base:
        raise MismatchedVertexSet("matchings live on different point sets")
    ps = m1.base
    tied = not distinct_x(ps)
    if tied:
        sheared, _ = shear_points(ps)
        m1 = Matching(sheared, m1.edges, check=False)
        m2 = Matching(sheared, m2.edges, check=False)
    f = _chain_to_canonical(m1)
    b = _chain_to_canonical(m2)
    # both chains end at the canonical matching; a shared tail would make
    # the walk double back on itself, so cut it (M = M2 collapses to zero)
    while len(f) > 1 and len(b) > 1 and f[-2] == b[-2]:
        f.pop()
        b.pop()
    steps = f
    for m in b[-2::-1]:
        if m != steps[-1]:
            steps.append(m)
    if tied:
        steps = [Matching(ps, m.edges) for m in steps]
    seq = TransformationSequence(tuple(steps))
    n = len(m1)
    bound = 2 * math.ceil(math.log2(n)) if n > 1 else 0
    if seq.length > bound:
        raise InvariantViolation(f"length {seq.length} exceeds bound {bound}")
    return seq


# ---------------------------------------------------------------------------
# axis-parallel matchings


def _is_horizontal(ps: PointSet, e: Segment) -> bool:
    return ps._iy[e.a] == ps._iy[e.b]


def _is_vertical(ps: PointSet, e: Segment) -> bool:
    return ps._ix[e.a] == ps._ix[e.b]


def _disjoint_by_parts(m: Matching, vertices: list[int], n_cells: int, parts) -> Matching:
    """Orient each part ``(name, positions, g)`` of the plain dual evenly on
    its own, ``g`` holding the dual edges at ``positions`` in order, and
    match the heads disjointly per cell; a vertex in no part stays out."""
    heads: list[Optional[int]] = [None] * len(vertices)
    for name, at, g in parts:
        orientation = even_orientation(g)
        if orientation is None:
            raise InvariantViolation(f"the {name}-endpoint subgraph must orient evenly")
        for k, h in zip(at, orientation.heads):
            heads[k] = h
    kept = [k for k, h in enumerate(heads) if h is not None]
    edges = _assemble(
        m.base, m.edges, [vertices[k] for k in kept], [heads[k] for k in kept], n_cells, True
    )
    return Matching(m.base, edges, check=False)


def hv_disjoint_matching(m: Matching) -> tuple[Optional[Matching], ColoredDual]:
    """Disjoint compatible matching for axis-parallel segments.

    Horizontal segments are extended first (both ways), then vertical ones.
    Left/bottom endpoint edges of the dual are red, right/top green; both
    color classes are spanning trees, which forces the per-cell batches to
    pair off without ever reusing a segment.  For an odd matching only the
    colored dual is produced (no even orientation exists).
    """
    if not m.is_perfect:
        raise GeomatchError("input must be a perfect matching")
    ps = m.base
    horizontals = [e for e in m.sorted_edges() if _is_horizontal(ps, e)]
    verticals = [e for e in m.sorted_edges() if _is_vertical(ps, e)]
    if len(horizontals) + len(verticals) != len(m):
        bad = next(
            e for e in m.sorted_edges()
            if not _is_horizontal(ps, e) and not _is_vertical(ps, e)
        )
        raise NotAxisParallel(f"{bad} is neither horizontal nor vertical")
    region = BoundingBox.around(ps)
    _, sub = extend(m, region, both_ways_rays(horizontals + verticals))
    vertices, dual = _plain_dual(sub)
    lows = {_low_end(ps, e) for e in m.edges}
    colors = tuple(RED if v in lows else GREEN for v in vertices)
    colored = ColoredDual(_dual_view(m, vertices, dual), colors)
    parts = []
    for color in (RED, GREEN):
        at = [k for k, c in enumerate(colors) if c == color]
        g = Multigraph(dual.n, [dual.edges[k] for k in at])
        if not _is_spanning_tree(g):
            raise InvariantViolation(f"the {color} subgraph is not a spanning tree")
        parts.append((color, at, g))
    if len(m) % 2 == 1:
        return None, colored
    return _disjoint_by_parts(m, vertices, dual.n, parts), colored


# ---------------------------------------------------------------------------
# convex-hull-connected matchings


def is_convex_hull_connected(m: Matching) -> bool:
    ids = sorted(m.matched_ids)
    if len(ids) == 2:
        return True
    hull = set(convex_hull(m.base, ids).hull_ids)
    return all(e.a in hull or e.b in hull for e in m.edges)


def _chc_recurse(ps: PointSet, edges: list[Segment]) -> list[Segment]:
    ids = sorted(i for e in edges for i in e)
    hull_order = list(convex_hull(ps, ids).hull_ids)
    hull_pos = {v: i for i, v in enumerate(hull_order)}
    k = len(hull_order)
    edge_set = set(edges)

    splitter = None
    for e in sorted(edges):
        a, b = e
        if a in hull_pos and b in hull_pos:
            if (hull_pos[a] - hull_pos[b]) % k not in (1, k - 1):
                splitter = e
                break
    if splitter is not None:
        side1, side2 = [], []
        for e in edges:
            if e == splitter:
                continue
            sa = ps.orient_ids(splitter.a, splitter.b, e.a)
            sb = ps.orient_ids(splitter.a, splitter.b, e.b)
            if sa != sb:
                raise InvariantViolation(f"{e} straddles the splitter {splitter}")
            (side1 if sa > 0 else side2).append(e)
        if len(side1) % 2 == 1:
            side1.append(splitter)
        else:
            side2.append(splitter)
        return _chc_recurse(ps, side1) + _chc_recurse(ps, side2)

    # no splitter: take alternate gaps of the hull, then match what remains
    # inside the hull, walled off by the matching and the chosen gaps
    gaps = []
    for i in range(k):
        v, w = hull_order[i], hull_order[(i + 1) % k]
        if Segment(v, w) not in edge_set:
            gaps.append(Segment(v, w))
    if len(gaps) % 2 == 1:
        raise InvariantViolation("a splitter-free hull must have evenly many gaps")
    first = min(range(len(gaps)), key=lambda i: gaps[i])
    chosen = [gaps[i] for i in range(len(gaps)) if (i - first) % 2 == 0]
    covered = {v for g in chosen for v in g}
    for e in edges:
        a, b = e
        if (a in covered) == (b in covered):
            raise InvariantViolation(f"alternate gaps cover {e} unevenly")
    remaining = tuple(i for i in ids if i not in covered)
    ix, iy = ps._ix, ps._iy
    blockers = [((ix[a], iy[a], 1), (ix[b], iy[b], 1)) for a, b in edges + chosen]
    inner = constrained_matching(ps, remaining, blockers)
    if inner is None:
        raise InvariantViolation("no inner matching despite the gap structure")
    return chosen + list(inner.edges)


def chc_disjoint_matching(m: Matching) -> Matching:
    """Disjoint compatible matching for convex-hull-connected inputs:
    recurse on splitter segments, otherwise pair alternate hull gaps and
    match the leftover endpoints behind them.  The points must be in
    general position (CollinearTriple otherwise)."""
    validate_general_position(m.base)
    if not m.is_perfect:
        raise GeomatchError("input must be a perfect matching")
    if len(m) % 2 == 1:
        raise OddMatching(f"{len(m)} segments; an even matching is required")
    if not is_convex_hull_connected(m):
        raise NotCHC("some segment has no endpoint on the convex hull")
    return Matching(m.base, _chc_recurse(m.base, list(m.sorted_edges())))


# ---------------------------------------------------------------------------
# the 4/5 guarantee


def _left_right(ps: PointSet, e: Segment) -> tuple[int, int]:
    ax, bx = ps._ix[e.a], ps._ix[e.b]
    if ax == bx:
        raise VerticalSegment(f"{e} is vertical")
    return (e.a, e.b) if ax < bx else (e.b, e.a)


def four_fifths_matching(m: Matching) -> FourFifthsReport:
    """Disjoint compatible matching of guaranteed size ceil((4n-1)/5).

    All right extensions are placed first, then all left extensions; the
    left-endpoint (blue) dual edges then form a spanning tree.  Odd
    components of the right-endpoint (red) subgraph each give up one edge,
    each color is oriented evenly on its own, and the heads are assembled
    per cell.  The dual stays plain cell pairs (:func:`_plain_dual`); the
    report's ``colored`` view of it is built only when it is read.
    """
    if not m.is_perfect:
        raise GeomatchError("input must be a perfect matching")
    n = len(m)
    if n % 2 == 1:
        raise OddN(f"{n} segments; the guarantee needs an even matching")
    ps = m.base
    order = m.sorted_edges()
    ends = [_left_right(ps, e) for e in order]
    rays = [(e, end[1]) for e, end in zip(order, ends)]
    rays += [(e, end[0]) for e, end in zip(order, ends)]
    _, sub = extend(m, BoundingBox.around(ps), rays)
    vertices, dual = _plain_dual(sub)
    color_of = {left: BLUE for left, _ in ends}
    color_of.update((right, RED) for _, right in ends)
    colors = tuple(color_of.get(v) for v in vertices)
    # every dual vertex an endpoint and every endpoint a dual vertex: then
    # each segment has one dual edge of each color
    if None in colors or len(vertices) != 2 * n:
        raise InvariantViolation("each segment needs one dual edge of each color")

    pairs = dual.edges
    blue_at = [k for k, c in enumerate(colors) if c == BLUE]
    blue = Multigraph(dual.n, [pairs[k] for k in blue_at])
    if not _is_spanning_tree(blue):
        raise InvariantViolation("the left-endpoint subgraph is not a spanning tree")
    red_at = [k for k, c in enumerate(colors) if c == RED]
    red = Multigraph(dual.n, [pairs[k] for k in red_at])
    # one edge leaves each odd component, so f(R) is the number removed
    pruned, removed = prune_odd_components(red)
    f_red = len(removed)
    gone = set(removed)
    red_at = [k for j, k in enumerate(red_at) if j not in gone]

    parts = [("left", blue_at, blue), ("pruned right", red_at, pruned)]
    out = _disjoint_by_parts(m, vertices, dual.n, parts)

    guarantee = -(-(4 * n - 1) // 5)
    achieved = len(out)
    if 2 * achieved != 2 * n - f_red:
        raise InvariantViolation("output size must be n - f(R)/2")
    if achieved < guarantee:
        raise InvariantViolation(f"only {achieved} segments; {guarantee} guaranteed")
    colored = _ColoredView(m, vertices, dual, colors)
    return FourFifthsReport(out, n, guarantee, achieved, f_red, colored)


# ---------------------------------------------------------------------------
# matchings with crossings allowed between the two halves


def crossings_matchings(m: Matching) -> tuple[Matching, Matching]:
    """Perfect matchings of the left endpoints and of the right endpoints,
    neither of which crosses m (they may cross each other)."""
    if not m.is_perfect:
        raise GeomatchError("input must be a perfect matching")
    if len(m) % 2 == 1:
        raise OddMatching(f"{len(m)} segments; an even matching is required")
    ps = m.base
    order = m.sorted_edges()
    ends = [_left_right(ps, e) for e in order]
    region = BoundingBox.around(ps)
    ix, iy = ps._ix, ps._iy

    def one_side(ray_end: int) -> Matching:
        rays = [(e, end[ray_end]) for e, end in zip(order, ends)]
        points = [end[1 - ray_end] for end in ends]
        # each segment and its ray block as one wall, from the point to
        # match to the terminus: the wall is their union, a terminus is
        # never a point of the set, and an edge between points to match
        # can share only its own end with either, so the verdicts agree
        termini = _ray_termini(m, region, rays)
        walls = [((ix[i], iy[i], 1), t) for i, t in zip(points, termini)]
        got = constrained_matching(ps, sorted(points), walls)
        if got is None:
            raise InvariantViolation("rays never block a whole endpoint class")
        return got

    m_l = one_side(1)  # right rays block, left endpoints match
    m_r = one_side(0)  # left rays block, right endpoints match
    return m_l, m_r


# ---------------------------------------------------------------------------
# two-trees structure search


def _is_spanning_tree(g: Multigraph) -> bool:
    return len(g.edges) == g.n - 1 and len(components(g)) == 1


def two_trees_search(m: Matching, max_orders: int = 24) -> TwoTreesResult:
    """Look for an extension order whose dual splits into two trees with
    the two edges of every segment in different trees.

    Orders are tried deterministically: for each permutation of the
    segments, first everything both-ways, then (for non-vertical inputs)
    all right extensions before all left ones.  ``max_orders`` must be at
    least 1: a search that tries nothing would report an open structure.
    """
    if not m.is_perfect:
        raise GeomatchError("input must be a perfect matching")
    if max_orders < 1:
        raise GeomatchError(f"max_orders must be at least 1 (got {max_orders})")
    ps = m.base
    base_edges = m.sorted_edges()
    no_verticals = all(ps._ix[e.a] != ps._ix[e.b] for e in base_edges)
    region = BoundingBox.around(ps)

    def candidate_orders():
        for perm in itertools.permutations(base_edges):
            yield both_ways_rays(perm)
            if no_verticals:
                rights = [(e, _left_right(ps, e)[1]) for e in perm]
                lefts = [(e, _left_right(ps, e)[0]) for e in perm]
                yield rights + lefts

    tried = skipped = 0
    for rays in candidate_orders():
        if tried >= max_orders:
            break
        tried += 1
        try:
            _, sub = extend(m, region, rays)
        except DegenerateIncidence:
            skipped += 1
            continue
        vertices, dual = _plain_dual(sub)
        pos = {v: k for k, v in enumerate(vertices)}
        if pos.keys() != m.matched_ids:
            raise InvariantViolation("each segment must contribute two dual edges")
        # the positions of each segment's two dual edges
        pairs = [(pos[a], pos[b]) for a, b in base_edges]
        for mask in range(1 << (len(pairs) - 1)):
            assign = [0] * len(vertices)
            for j, (e1, e2) in enumerate(pairs):
                bit = (mask >> (j - 1)) & 1 if j else 0
                assign[e1], assign[e2] = bit, 1 - bit
            t0 = [c for c, part in zip(dual.edges, assign) if part == 0]
            t1 = [c for c, part in zip(dual.edges, assign) if part == 1]
            if all(_is_spanning_tree(Multigraph(dual.n, t)) for t in (t0, t1)):
                return TwoTreesResult(
                    True, tuple(rays), tuple(assign), _dual_view(m, vertices, dual), tried, skipped
                )
    return TwoTreesResult(False, None, None, None, tried, skipped)


# ---------------------------------------------------------------------------
# generators


def gen_parallel_chords(k: int) -> Matching:
    """k horizontal chords of the unit circle (rational points); for odd k
    the result has no disjoint compatible perfect matching."""
    if k < 1:
        raise GeomatchError("need at least one chord")
    coords = []
    edges = []
    for i in range(k):
        t = Fraction(i + 1, k + 2)
        x = (1 - t * t) / (1 + t * t)
        y = 2 * t / (1 + t * t)
        coords.append((-x, y))
        coords.append((x, y))
        edges.append(Segment(2 * i, 2 * i + 1))
    ps = PointSet.from_coords(coords)
    validate_general_position(ps)
    return Matching(ps, edges)


def gen_general_odd(n: int) -> Matching:
    """2n+1 segments with no disjoint compatible perfect matching: n long
    parallel blockers and one short segment in each of the n+1 regions
    between them.  Any segment joining two short-segment endpoints from
    different regions stays within the blockers' shadow and is cut, so the
    2n+2 short-segment endpoints outnumber the 2n blocker endpoints they
    would have to pair with."""
    if n < 1:
        raise GeomatchError("need at least one blocker segment")
    unit = 4 * (n + 2)
    wide = 40 * unit
    levels = [unit * (i + 1) * (i + 1) for i in range(n)]
    mids = [levels[0] - unit]
    mids += [(levels[j - 1] + levels[j]) // 2 for j in range(1, n)]
    mids += [levels[-1] + unit]
    # the short segments all sit within |x| <= n+2, deep inside every
    # blocker's span, so a jittered placement keeps the shadow argument
    # intact; the jitter only has to break collinearities
    rng = random.Random(f"general-odd:{n}")
    for _ in range(200):
        coords: list[tuple] = []
        edges: list[Segment] = []
        for y in levels:
            coords.append((-wide - rng.randrange(unit), y))
            coords.append((wide + 1 + rng.randrange(unit), y))
            edges.append(Segment(len(coords) - 2, len(coords) - 1))
        for y in mids:
            x = rng.randrange(-n - 2, n + 2)
            coords.append((x, y))
            coords.append((x + 1, y + 1))
            edges.append(Segment(len(coords) - 2, len(coords) - 1))
        ps = PointSet.from_coords(coords)
        try:
            validate_general_position(ps)
        except GeomatchError:
            continue
        m = Matching(ps, edges)
        vis = visibility_graph(m, minus_m=True)
        if any(u >= 2 * n and v >= 2 * n for u, v in vis.pairs):
            raise InvariantViolation("short-segment endpoints must be blocked")
        return m
    raise GenerationFailed("no general-position placement of the short segments")


class Flavor:
    GENERAL = "general"
    AXIS_PARALLEL = "axis-parallel"
    CHC = "chc"
    ALL = (GENERAL, AXIS_PARALLEL, CHC)


def _ccw_around(ps: PointSet, anchor: int, rest: list[int]) -> list[int]:
    """``rest`` in counter-clockwise order around the lowest point ``anchor``.

    Every point of ``rest`` lies above the anchor or to its right on its
    level, so ``-cot`` of its angle, ``(ax - x) / (y - ay)`` (``-inf`` on
    the level), increases counter-clockwise.  ``int / int`` is correctly
    rounded, so the float sort is monotone; one cross product per adjacent
    pair confirms a strict turn, and a float tie, a point collinear with the
    anchor or a quotient too large for a float falls back to the exact
    sort of ``rest`` as given.
    """
    ix, iy = ps._ix, ps._iy
    ax, ay = ix[anchor], iy[anchor]
    try:
        order = sorted(
            rest, key=lambda i: (ax - ix[i]) / (iy[i] - ay) if iy[i] != ay else -math.inf
        )
    except OverflowError:
        order = None
    if order is not None and all(
        (ix[i] - ax) * (iy[j] - ay) > (iy[i] - ay) * (ix[j] - ax)
        for i, j in zip(order, order[1:])
    ):
        return order
    return sorted(rest, key=functools.cmp_to_key(lambda i, j: -ps.orient_ids(anchor, i, j)))


def _random_ncpm(ps: PointSet, rng: random.Random, ids: Optional[list[int]] = None) -> set[Segment]:
    if ids is None:
        ids = list(ps.ids)
    if not ids:
        return set()
    if len(ids) == 2:
        return {Segment(ids[0], ids[1])}
    ix, iy = ps._ix, ps._iy
    anchor = min(ids, key=lambda i: (iy[i], ix[i]))
    rest = _ccw_around(ps, anchor, [i for i in ids if i != anchor])
    k = rng.randrange((len(rest) + 1) // 2) * 2
    out = {Segment(anchor, rest[k])}
    out |= _random_ncpm(ps, rng, rest[:k])
    out |= _random_ncpm(ps, rng, rest[k + 1 :])
    return out


_GRID = 10**6
_ATTEMPTS = 200


def _gen_general(rng: random.Random, n: int) -> Matching:
    for _ in range(_ATTEMPTS):
        coords = [(rng.randrange(_GRID), rng.randrange(_GRID)) for _ in range(2 * n)]
        if len(set(coords)) < 2 * n:
            continue
        ps = PointSet.from_coords(coords)
        try:
            validate_general_position(ps)
        except GeomatchError:
            continue
        return Matching(ps, _random_ncpm(ps, rng))
    raise GenerationFailed("no general-position instance found")


def _gen_axis_parallel(rng: random.Random, n: int) -> Matching:
    span = max(_GRID // (3 * n), 4)
    for _ in range(_ATTEMPTS):
        used_x: set[int] = set()
        used_y: set[int] = set()
        placed: list[tuple[tuple[int, int], tuple[int, int]]] = []
        coords: list[tuple[int, int]] = []
        ok = True
        for _seg in range(n):
            for _try in range(_ATTEMPTS):
                horizontal = rng.random() < 0.5
                length = rng.randrange(span // 2, span)
                lo = rng.randrange(_GRID - length)
                other = rng.randrange(_GRID)
                if horizontal:
                    x1, x2, y = lo, lo + length, other
                    fresh = {x1, x2}.isdisjoint(used_x) and y not in used_y
                    p, q = (x1, y), (x2, y)
                else:
                    y1, y2, x = lo, lo + length, other
                    fresh = {y1, y2}.isdisjoint(used_y) and x not in used_x
                    p, q = (x, y1), (x, y2)
                # fresh coordinates rule out touches: a shared point is a crossing
                if not fresh or any(segments_cross_coords(p, q, r, t) for r, t in placed):
                    continue
                placed.append((p, q))
                used_x.update((p[0], q[0]))
                used_y.update((p[1], q[1]))
                coords += (p, q)
                break
            else:
                ok = False
                break
        if not ok:
            continue
        ps = PointSet.from_coords(coords)
        try:
            validate_general_position(ps)
        except GeomatchError:
            continue
        return Matching(ps, [Segment(2 * i, 2 * i + 1) for i in range(n)])
    raise GenerationFailed("no axis-parallel instance found")


def _gen_chc(rng: random.Random, n: int) -> Matching:
    radius = 10**7
    k = 2 * n
    for _ in range(_ATTEMPTS):
        angles = sorted(
            (i + rng.random() * 0.6) * 2 * math.pi / k for i in range(k)
        )
        coords: list[tuple] = [
            (round(radius * math.cos(a)), round(radius * math.sin(a)))
            for a in angles
        ]
        if len(set(coords)) < k:
            continue
        # pull some second endpoints inward along their own segment
        for i in range(0, k, 2):
            if n >= 2 and rng.random() < 0.5:
                (ax, ay), (bx, by) = coords[i], coords[i + 1]
                t = Fraction(rng.randrange(1, 4), 4)
                coords[i + 1] = (ax + t * (bx - ax), ay + t * (by - ay))
        ps = PointSet.from_coords(coords)
        try:
            validate_general_position(ps)
            matching = Matching(ps, [Segment(i, i + 1) for i in range(0, k, 2)])
        except GeomatchError:
            continue
        if not is_convex_hull_connected(matching):
            continue
        return matching
    raise GenerationFailed("no convex-hull-connected instance found")


def gen_random_matching(n: int, seed: int, flavor: str = Flavor.GENERAL) -> Matching:
    """A random non-crossing perfect matching with n segments; deterministic
    per (n, seed, flavor)."""
    if n < 1:
        raise GeomatchError("need at least one segment")
    rng = random.Random(f"{flavor}:{n}:{seed}")
    if flavor == Flavor.GENERAL:
        return _gen_general(rng, n)
    if flavor == Flavor.AXIS_PARALLEL:
        return _gen_axis_parallel(rng, n)
    if flavor == Flavor.CHC:
        if n == 1:
            return _gen_general(rng, 1)
        return _gen_chc(rng, n)
    raise GeomatchError(f"unknown flavor {flavor!r}; use one of {Flavor.ALL}")
