import random
import re
from fractions import Fraction

import pytest

from geomatch.errors import (
    DegenerateIncidence,
    GeomatchError,
    InvariantViolation,
    NotConvexPosition,
    OddCount,
    SameSegmentIndegreeTwo,
    TwoPointsAlreadyMatched,
    VerticalSegment,
)
from geomatch.geom_core import (
    BoundingBox,
    Matching,
    PointSet,
    Segment,
    compatible,
    disjoint,
)
from geomatch.matching_engine import (
    assemble_from_orientation,
    constrained_matching,
    convex_compatible_matching,
    convex_disjoint_matching,
)
from geomatch.oracle import enumerate_ncpm, has_disjoint_compatible_pm
from geomatch.orientation import EvenOrientation, even_orientation
from geomatch.subdivision import both_ways_rays, dual_multigraph, extend

from helpers import (
    frame_blockers,
    gift_wrap_order,
    naive_constrained_matching,
    naive_convex_compatible_matching,
    naive_convex_disjoint_matching,
    random_general_pointset,
)


def square() -> PointSet:
    return PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])


def circle_points(k: int) -> PointSet:
    # Strictly convex position with integer coordinates.
    coords = []
    for i in range(k):
        angle = 2 * 3.14159265 * i / k
        import math

        coords.append(
            (round(1000 * math.cos(angle)) + i, round(1000 * math.sin(angle)))
        )
    return PointSet.from_coords(coords)


def test_convex_disjoint_square_avoids_given_edge():
    ps = square()
    out = convex_disjoint_matching(ps, [0, 1, 2, 3], [Segment(0, 1)])
    assert set(out.edges) == {Segment(1, 2), Segment(0, 3)}


def test_convex_disjoint_square_free_choice_is_lowest_pair():
    ps = square()
    out = convex_disjoint_matching(ps, [0, 1, 2, 3])
    assert set(out.edges) == {Segment(0, 1), Segment(2, 3)}


def test_convex_disjoint_two_points_already_matched():
    ps = square()
    with pytest.raises(TwoPointsAlreadyMatched):
        convex_disjoint_matching(ps, [0, 1], [Segment(0, 1)])


def test_convex_disjoint_rejects_odd_and_nonconvex_and_bad_mb():
    ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
    with pytest.raises(OddCount):
        convex_disjoint_matching(ps, [0, 1, 2])
    with pytest.raises(NotConvexPosition):
        convex_disjoint_matching(ps, [0, 1, 2, 4])
    with pytest.raises(GeomatchError):
        # a diagonal is not hull-consecutive
        convex_disjoint_matching(ps, [0, 1, 2, 3], [Segment(0, 2)])


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_convex_disjoint_against_catalog(k):
    ps = circle_points(k)
    order = list(range(k))
    mb = [Segment(order[i], order[i + 1]) for i in range(0, k, 2)]
    out = convex_disjoint_matching(ps, order, mb)
    base = Matching(ps, mb)
    assert disjoint(base, out)
    assert compatible(base, out)
    assert out.is_perfect
    # the same output must appear in the exhaustively enumerated catalog
    assert any(set(c.edges) == set(out.edges) for c in enumerate_ncpm(ps))


def test_convex_disjoint_four_point_guard():
    # With {1-2} given, taking 3-0 first would strand 1 and 2; the guard
    # must steer to a safe pair instead.
    ps = square()
    out = convex_disjoint_matching(ps, [0, 1, 2, 3], [Segment(1, 2)])
    assert set(out.edges) == {Segment(0, 1), Segment(2, 3)}


def test_convex_disjoint_random_boundary_matchings():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.choice([4, 6, 8, 10, 12])
        ps = circle_points(k)
        # random non-adjacent set of hull edges as the boundary matching
        mb = []
        used: set[int] = set()
        for i in rng.sample(range(k), k):
            j = (i + 1) % k
            if i in used or j in used or rng.random() < 0.4:
                continue
            used.update((i, j))
            mb.append(Segment(i, j))
        out = convex_disjoint_matching(ps, range(k), mb)
        assert out.is_perfect
        if mb:
            base = Matching(ps, mb)
            assert disjoint(base, out) and compatible(base, out)


def test_convex_disjoint_four_point_guard_keeps_the_last_pair_free():
    # with {2-3} given, the lowest pair 0-1 would leave exactly 2 and 3
    ps = square()
    out = convex_disjoint_matching(ps, [0, 1, 2, 3], [Segment(2, 3)])
    assert set(out.edges) == {Segment(0, 3), Segment(1, 2)}


def test_convex_matchings_check_mb_on_two_and_zero_points():
    ps = square()
    for match in (convex_disjoint_matching, convex_compatible_matching):
        with pytest.raises(GeomatchError, match="is not an edge on the given points") as ei:
            match(ps, [0, 1], [Segment(2, 3)])
        assert type(ei.value) is GeomatchError
        with pytest.raises(GeomatchError, match="is not an edge on the given points"):
            match(ps, [], [Segment(0, 1)])
    with pytest.raises(TwoPointsAlreadyMatched, match="points 1 and 0 are already joined"):
        convex_disjoint_matching(ps, [1, 0], [Segment(0, 1)])
    assert set(convex_compatible_matching(ps, [1, 0], [Segment(0, 1)]).edges) == {Segment(0, 1)}
    assert len(convex_disjoint_matching(ps, [], [])) == 0


def random_convex_batch(rng: random.Random):
    """A point set and a shuffled batch of 0-12 of its ids, with a boundary
    matching for it.  The batch is in convex position (on a parabola)
    unless one of its points is moved inside or onto the hull of the rest,
    or every point is put on one line; the matching is a random set of
    disjoint hull-consecutive pairs, sometimes with a random extra segment
    (a diagonal, a pair off the batch or one reusing a point)."""
    k = rng.randrange(13)
    xs = rng.sample(range(-40, 41), k + 3)
    coords = [(6 * x, 6 * x * x) for x in xs]
    batch = rng.sample(range(k + 3), k)
    kind = rng.random()
    if kind < 0.1 and k >= 4:
        a, b, c = (xs[i] for i in batch[:3])
        coords[batch[-1]] = (2 * (a + b + c), 2 * (a * a + b * b + c * c))
    elif kind < 0.2 and k >= 3:
        a, b = (xs[i] for i in batch[:2])
        coords[batch[-1]] = (3 * (a + b), 3 * (a * a + b * b))
    elif kind < 0.25:
        coords = [(x, 2 * x + 1) for x in xs]
    ps = PointSet.from_coords(coords)
    try:
        order = gift_wrap_order(ps, batch)
    except GeomatchError:
        order = sorted(batch)
    mb = []
    for i in rng.sample(range(len(order)), len(order)):
        v, w = order[i], order[(i + 1) % len(order)]
        if v != w and rng.random() < 0.5 and not any(v in s.ids or w in s.ids for s in mb):
            mb.append(Segment(v, w))
    if rng.random() < 0.3:
        v, w = rng.sample(range(k + 3), 2)
        mb.append(Segment(v, w))
    rng.shuffle(mb)
    return ps, batch, mb


def outcome(call, *args):
    """A matching as its sorted id pairs, or an error as class and message."""
    try:
        return sorted(s.ids for s in call(*args).edges)
    except GeomatchError as exc:
        return (type(exc).__name__, str(exc))


def test_convex_matchings_equal_the_references():
    rng = random.Random(1729)
    seen = set()
    for _ in range(200):
        ps, batch, mb = random_convex_batch(rng)
        for call, naive in (
            (convex_disjoint_matching, naive_convex_disjoint_matching),
            (convex_compatible_matching, naive_convex_compatible_matching),
        ):
            got = outcome(call, ps, batch, mb)
            assert got == outcome(naive, ps, batch, mb), (ps, batch, mb)
            seen.add(got[0] if isinstance(got, tuple) else "ok")
    assert seen == {
        "ok", "GeomatchError", "OddCount", "NotConvexPosition", "CollinearTriple",
        "TwoPointsAlreadyMatched",
    }


def test_convex_compatible_pairs_consecutively():
    ps = square()
    out = convex_compatible_matching(ps, [0, 1, 2, 3], [Segment(0, 1)])
    assert set(out.edges) == {Segment(0, 1), Segment(2, 3)}
    two = convex_compatible_matching(ps, [2, 3], [Segment(2, 3)])
    assert set(two.edges) == {Segment(2, 3)}


def test_convex_compatible_random_union_is_noncrossing():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.choice([4, 6, 8])
        ps = circle_points(k)
        mb = [Segment(i, i + 1) for i in range(0, k, 2) if rng.random() < 0.5]
        out = convex_compatible_matching(ps, range(k), mb)
        assert out.is_perfect
        if mb:
            assert compatible(Matching(ps, mb), out)


def test_constrained_trivial_and_blocked():
    ps = PointSet.from_coords([(0, 0), (10, 1), (4, 5), (5, -6)])
    free = constrained_matching(ps, (0, 1, 2, 3))
    assert free is not None and free.is_perfect
    # a wall between top and bottom forces pairing within each side
    wall = ((Fraction(-100), Fraction(0)), (Fraction(100), Fraction(0)))
    ps2 = PointSet.from_coords([(0, 1), (10, 2), (1, -1), (11, -3)])
    out = constrained_matching(ps2, (0, 1, 2, 3), frame_blockers(ps2, [wall]))
    assert out is not None
    assert set(out.edges) == {Segment(0, 1), Segment(2, 3)}


def test_constrained_odd_count():
    ps = PointSet.from_coords([(0, 0), (10, 1), (4, 5)])
    with pytest.raises(OddCount):
        constrained_matching(ps, (0, 1, 2))


def test_constrained_none_when_fully_blocked():
    # two points that can only see each other through a wall
    wall = ((Fraction(-5), Fraction(0)), (Fraction(5), Fraction(0)))
    ps = PointSet.from_coords([(0, 3), (1, -3)])
    out = constrained_matching(ps, (0, 1), frame_blockers(ps, [wall]))
    assert out is None


def test_constrained_prefers_shorter_edges():
    ps = PointSet.from_coords([(0, 0), (1, 1), (20, 0), (21, 1)])
    out = constrained_matching(ps, (0, 1, 2, 3))
    assert out is not None
    assert set(out.edges) == {Segment(0, 1), Segment(2, 3)}


def test_constrained_agrees_with_disjoint_compatible_oracle():
    rng = random.Random(23)
    agreements = 0
    for _ in range(40):
        n = rng.choice([4, 6])
        ps = random_general_pointset(rng, n, grid=30)
        catalog = enumerate_ncpm(ps)
        m = catalog[rng.randrange(len(catalog))]
        blockers = frame_blockers(ps, [(ps.coord(s.a), ps.coord(s.b)) for s in m.edges])
        got = constrained_matching(ps, tuple(range(n)), blockers)
        expect, _ = has_disjoint_compatible_pm(m)
        assert (got is not None) == expect
        if got is not None:
            assert disjoint(m, got) and compatible(m, got)
            agreements += 1
    assert agreements > 0


def test_constrained_none_for_parallel_chords():
    # three near-parallel chords of a circle admit no disjoint compatible
    # perfect matching; the exhaustive search must prove that.
    ps = PointSet.from_coords(
        [
            (Fraction(-3, 5), Fraction(4, 5)),
            (Fraction(3, 5), Fraction(4, 5)),
            (Fraction(-1), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(-3, 5), Fraction(-4, 5)),
            (Fraction(3, 5), Fraction(-4, 5)),
        ]
    )
    m = Matching(ps, [Segment(0, 1), Segment(2, 3), Segment(4, 5)])
    blockers = frame_blockers(ps, [(ps.coord(s.a), ps.coord(s.b)) for s in m.edges])
    assert constrained_matching(ps, tuple(range(6)), blockers) is None


def _random_blockers(ps: PointSet, rng: random.Random, m: Matching) -> list:
    """Endpoint triples of some edges of ``m``, some ray termini that
    ``extend`` computes for ``m`` and some segments with fractional ends."""
    ix, iy = ps._ix, ps._iy
    blockers = [
        ((ix[s.a], iy[s.a], 1), (ix[s.b], iy[s.b], 1))
        for s in m.sorted_edges()
        if rng.random() < 0.5
    ]
    rays = [(e, rng.choice(e.ids)) for e in m.sorted_edges() if rng.random() < 0.7]
    try:
        geometry, _ = extend(m, BoundingBox.around(ps), rays, partial=True)
    except DegenerateIncidence:
        geometry = None
    if geometry is not None:
        blockers += [
            ((ix[i], iy[i], 1), terminus)
            for (_, i), terminus in zip(rays, geometry.rays.frame_termini())
        ]
    span = max(max(ix) - min(ix), max(iy) - min(iy), 1)

    def anywhere():
        return (
            Fraction(rng.randrange(-span, 2 * span), 7 * ps._scale),
            Fraction(rng.randrange(-span, 2 * span), 3 * ps._scale),
        )

    blockers += frame_blockers(ps, [(anywhere(), anywhere()) for _ in range(rng.randrange(3))])
    return blockers


def test_constrained_agrees_with_naive_reference_on_random_subsets():
    rng = random.Random(71)
    found = blocked = 0
    for trial in range(300):
        n = rng.choice([4, 6, 8, 10])
        if trial % 3 == 0:
            # small grids have collinear points, which reach the touch rules
            cells = sorted({(rng.randrange(6), rng.randrange(4)) for _ in range(2 * n)})
            ps = PointSet.from_coords(rng.sample(cells, min(n, len(cells)) // 2 * 2))
        else:
            ps = random_general_pointset(rng, n, grid=60)
        if trial % 4 == 1:
            # a frame with _scale > 1
            ps = PointSet.from_coords((p.x / 3, p.y / 3) for p in ps)
        catalog = enumerate_ncpm(ps)
        m = catalog[rng.randrange(len(catalog))]
        blockers = _random_blockers(ps, rng, m)
        k = rng.randrange(0, len(ps) + 1, 2)
        points = rng.sample(range(len(ps)), k)  # unsorted, as given
        got = constrained_matching(ps, points, blockers)
        want = naive_constrained_matching(ps, points, blockers)
        assert got == want, (trial, points)
        if got is None:
            blocked += 1
        else:
            found += 1
            assert got.matched_ids == frozenset(points)
    assert found > 150 and blocked > 20


def test_constrained_agrees_with_naive_reference_inside_the_constructions(monkeypatch):
    from geomatch import algorithms

    calls = []

    def both(ps, points, blockers):
        got = constrained_matching(ps, points, blockers)
        assert got == naive_constrained_matching(ps, points, blockers)
        calls.append(got)
        return got

    monkeypatch.setattr(algorithms, "constrained_matching", both)
    for seed in range(12):
        for n in (2, 4, 6, 8):
            m = algorithms.gen_random_matching(n, seed)
            try:
                algorithms.crossings_matchings(m)
            except (DegenerateIncidence, VerticalSegment):
                continue
    halves = len(calls)
    for seed in range(12):
        for n in (2, 4, 6, 8):
            m = algorithms.gen_random_matching(n, seed, algorithms.Flavor.CHC)
            algorithms.chc_disjoint_matching(m)
    assert halves > 50 and len(calls) - halves > 20
    assert all(got is not None for got in calls)


def one_segment_setup():
    ps = PointSet.from_coords([(0, 0), (2, 1)])
    m = Matching(ps, [Segment(0, 1)])
    region = BoundingBox.around(ps)
    _, sub = extend(m, region, both_ways_rays(m.sorted_edges()))
    dual = dual_multigraph(sub, m)
    return ps, m, dual


def two_segment_setup():
    ps = PointSet.from_coords([(0, 0), (10, 1), (1, 5), (11, 7)])
    m = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    _, sub = extend(m, BoundingBox.around(ps), both_ways_rays(m.sorted_edges()))
    return ps, m, dual_multigraph(sub, m)


def test_assignment_partitions_vertices():
    # the orientation hands each point vertex to exactly one cell
    ps, m, dual = one_segment_setup()
    orient = even_orientation(dual.graph())
    assert orient is not None
    vertex_cell = {e.vertex: h for e, h in zip(dual.edges, orient.heads)}
    assert sorted(vertex_cell) == [0, 1]
    assert len(set(vertex_cell.values())) == 1  # both endpoints must go to the same side
    assert len(dual.edges) == 2


def test_assemble_same_segment_indegree_two():
    ps, m, dual = one_segment_setup()
    orient = even_orientation(dual.graph())
    with pytest.raises(SameSegmentIndegreeTwo):
        assemble_from_orientation(m, dual, orient, require_disjoint=True)
    reused = assemble_from_orientation(m, dual, orient, require_disjoint=False)
    assert set(reused.edges) == set(m.edges)


def test_assemble_rejects_foreign_orientation():
    ps, m, dual = one_segment_setup()
    from geomatch.orientation import Multigraph

    other = Multigraph(2, ((0, 1),))
    with pytest.raises(GeomatchError, match="does not belong"):
        assemble_from_orientation(m, dual, EvenOrientation(other, (0,)))


def test_assemble_accepts_an_equal_graph_that_is_not_the_duals_own():
    from geomatch.orientation import Multigraph

    ps, m, dual = two_segment_setup()
    own = even_orientation(dual.graph())
    copy = Multigraph(dual.n, [e.cells for e in dual.edges])
    assert copy is not dual.graph() and copy.edges == dual.graph().edges
    got = assemble_from_orientation(m, dual, EvenOrientation(copy, own.heads), False)
    assert got == assemble_from_orientation(m, dual, own, False)


def test_assemble_rejects_an_odd_cell_before_matching_any():
    from helpers import brute_even_orientations

    ps, m, dual = two_segment_setup()
    g = dual.graph()
    even = set(brute_even_orientations(g.n, g.edges))
    odd = []
    for mask in range(1 << len(g.edges)):
        heads = tuple(e[mask >> k & 1] for k, e in enumerate(g.edges))
        if heads not in even:
            odd.append(heads)
    assert odd
    for heads in odd:
        counts = [heads.count(y) for y in range(dual.n)]
        first = next(y for y, c in enumerate(counts) if c % 2 == 1)
        for require_disjoint in (True, False):
            with pytest.raises(InvariantViolation, match=f"cell {first} was assigned an odd"):
                assemble_from_orientation(m, dual, EvenOrientation(g, heads), require_disjoint)


def test_assemble_two_point_cell_with_one_segment():
    # a cell handed exactly the two endpoints of one segment: the disjoint
    # assembly names that cell and segment, the compatible one reuses it
    from helpers import brute_even_orientations

    ps, m, dual = two_segment_setup()
    g = dual.graph()
    seen = 0
    for heads in brute_even_orientations(g.n, g.edges):
        batches = [
            sorted(e.vertex for e, h in zip(dual.edges, heads) if h == y) for y in range(dual.n)
        ]
        same = [(y, s) for y, b in enumerate(batches) for s in m.edges if b == [s.a, s.b]]
        orient = EvenOrientation(g, heads)
        if not same:
            assemble_from_orientation(m, dual, orient)
            continue
        seen += 1
        y, s = same[0]
        message = rf"cell {y} received .* of {re.escape(str(s))}$"
        with pytest.raises(SameSegmentIndegreeTwo, match=message):
            assemble_from_orientation(m, dual, orient, require_disjoint=True)
        loose = assemble_from_orientation(m, dual, orient, require_disjoint=False)
        assert s in loose.edges
    assert seen > 0


def _per_cell_reference(m, dual, heads, require_disjoint):
    """The union of the public convex matchings of each cell's batch."""
    match = convex_disjoint_matching if require_disjoint else convex_compatible_matching
    edges = []
    for y in range(dual.n):
        batch = [e.vertex for e, h in zip(dual.edges, heads) if h == y]
        if batch:
            induced = [s for s in m.edges if s.a in batch and s.b in batch]
            edges += match(m.base, batch, induced).edges
    return Matching(m.base, edges, check=False)


def test_assemble_two_segments_all_even_orientations():
    from helpers import brute_even_orientations

    ps, m, dual = two_segment_setup()
    g = dual.graph()
    disjoint_found = 0
    for heads in brute_even_orientations(g.n, g.edges):
        orient = EvenOrientation(g, heads)
        loose = assemble_from_orientation(m, dual, orient, require_disjoint=False)
        assert loose.is_perfect and compatible(m, loose)
        assert loose == _per_cell_reference(m, dual, heads, False)
        try:
            out = assemble_from_orientation(m, dual, orient)
        except SameSegmentIndegreeTwo:
            continue
        assert out.is_perfect
        assert out == _per_cell_reference(m, dual, heads, True)
        assert disjoint(m, out) and compatible(m, out)
        disjoint_found += 1
    assert disjoint_found > 0


def test_assemble_random_compatible_pipeline():
    from geomatch.errors import DegenerateIncidence

    rng = random.Random(5)
    built = 0
    for _ in range(15):
        n = rng.choice([4, 6, 8])
        ps = random_general_pointset(rng, n)
        catalog = enumerate_ncpm(ps)
        m = catalog[rng.randrange(len(catalog))]
        region = BoundingBox.around(ps)
        try:
            _, sub = extend(m, region, both_ways_rays(m.sorted_edges()))
        except DegenerateIncidence:
            continue
        dual = dual_multigraph(sub, m)
        g = dual.graph()
        orient = even_orientation(g)
        assert orient is not None  # the dual always has evenly many edges
        out = assemble_from_orientation(m, dual, orient, require_disjoint=False)
        assert out.is_perfect
        assert compatible(m, out)
        assert out == _per_cell_reference(m, dual, orient.heads, False)
        # Not every instance admits a disjoint assembly from THIS subdivision,
        # but whenever some even orientation does, the result must check out.
        from helpers import brute_even_orientations

        for heads in brute_even_orientations(g.n, g.edges):
            try:
                strict = assemble_from_orientation(m, dual, EvenOrientation(g, heads))
            except SameSegmentIndegreeTwo:
                continue
            assert disjoint(m, strict) and compatible(m, strict)
            assert strict == _per_cell_reference(m, dual, heads, True)
            built += 1
    assert built > 0
