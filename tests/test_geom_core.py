import copy
import pickle
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cmp_to_key
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomatch.errors import (
    CollinearTriple,
    DuplicatePoint,
    GeomatchError,
    MismatchedVertexSet,
    NotConvexPosition,
    TooFewPoints,
)
from geomatch.geom_core import (
    BoundingBox,
    ConvexPolygon,
    Matching,
    Point,
    PointSet,
    Segment,
    compatible,
    convex_hull,
    convex_position_order,
    crosses_any_blocker,
    disjoint,
    distinct_x,
    orientation_test,
    segments_cross,
    segments_cross_coords,
    shear_points,
    validate_general_position,
)
from helpers import (
    blocker_table,
    box_polygon,
    box_strictly_contains,
    brute_hull_ids,
    brute_orient,
    brute_segments_cross,
    brute_union_noncrossing,
    gift_wrap_order,
    naive_collinear_triple,
    pairwise_shear_K,
    polygon_area2,
    polygon_contains,
    polygon_edges,
    random_general_pointset,
    random_matching_pair,
    random_ncpm_edges,
)

coord = st.integers(min_value=-50, max_value=50)
point = st.tuples(coord, coord)


# ---------------------------------------------------------------------------
# orientation


def test_orientation_basic():
    p = Point(0, 0, 0)
    q = Point(1, 0, 1)
    r = Point(0, 1, 2)
    assert orientation_test(p, q, r) == 1  # left turn
    assert orientation_test(q, p, r) == -1  # swap flips the sign
    assert orientation_test(p, q, Point(2, 0, 3)) == 0  # collinear


def test_orientation_exact_on_small_rationals():
    # A float evaluation would misclassify near-degenerate triples like this.
    p = Point(0, 0, 0)
    q = Point(Fraction(1, 3), Fraction(1, 3), 1)
    r = Point(Fraction(2, 3), Fraction(2, 3) + Fraction(1, 10**40), 2)
    assert orientation_test(p, q, r) == 1


@given(point, point, point)
def test_orientation_matches_brute_determinant(p, q, r):
    pp, qq, rr = Point(*p, 0), Point(*q, 1), Point(*r, 2)
    assert orientation_test(pp, qq, rr) == brute_orient(p, q, r)


@given(point, point, point)
def test_orientation_cyclic_invariance(p, q, r):
    pp, qq, rr = Point(*p, 0), Point(*q, 1), Point(*r, 2)
    a = orientation_test(pp, qq, rr)
    assert a == orientation_test(qq, rr, pp) == orientation_test(rr, pp, qq)
    assert a == -orientation_test(qq, pp, rr)


# ---------------------------------------------------------------------------
# segment crossing


def cross_on_ids(coords, e1, e2):
    ps = PointSet.from_coords(coords)
    return segments_cross(ps, Segment(*e1), Segment(*e2))


def test_cross_proper():
    assert cross_on_ids([(0, 0), (2, 2), (0, 2), (2, 0)], (0, 1), (2, 3))


def test_cross_shared_endpoint_only_is_not_a_crossing():
    assert not cross_on_ids([(0, 0), (1, 1), (2, 0)], (0, 1), (1, 2))


def test_cross_t_contact_counts():
    # endpoint of one segment interior to the other
    assert cross_on_ids([(0, 0), (4, 0), (2, 2), (2, 0)], (0, 1), (2, 3))


def test_cross_collinear_overlap_counts():
    assert segments_cross_coords((0, 0), (3, 0), (1, 0), (5, 0))
    assert segments_cross_coords((0, 0), (3, 0), (3, 0), (1, 0))  # shares (3,0) plus overlap
    assert not segments_cross_coords((0, 0), (1, 0), (2, 0), (3, 0))  # disjoint collinear
    assert not segments_cross_coords((0, 0), (1, 0), (1, 0), (3, 0))  # touch at common endpoint


def test_cross_disjoint():
    assert not cross_on_ids([(0, 0), (1, 0), (0, 1), (1, 1)], (0, 1), (2, 3))


@given(st.lists(point, min_size=4, max_size=4, unique=True))
def test_cross_matches_parametric_oracle(pts):
    p, q, r, s = pts
    assert segments_cross_coords(p, q, r, s) == brute_segments_cross(p, q, r, s)


def test_cross_ids_agrees_with_coords_on_random_sets():
    rng = Random(7)
    for _ in range(200):
        coords = [(rng.randrange(20), rng.randrange(20)) for _ in range(4)]
        if len(set(coords)) < 4:
            continue
        ps = PointSet.from_coords(coords)
        got = ps.segments_cross_ids(0, 1, 2, 3)
        want = brute_segments_cross(*coords)
        assert got == want, coords


def test_segments_cross_ids_exhaustive_on_small_grid():
    # every ordered pair of segments on a 4x4 grid: all collinear,
    # T-contact, overlap and shared-endpoint configurations occur; on the
    # grid of thirds the set is rescaled (_scale 3) before the integer tests
    for unit, scale in ((1, 1), (Fraction(1, 3), 3)):
        ps = PointSet.from_coords([(x * unit, y * unit) for x in range(4) for y in range(4)])
        assert ps._scale == scale
        coords = [ps.coord(i) for i in ps.ids]
        segs = [(a, b) for a in ps.ids for b in ps.ids if a != b]
        for a, b in segs:
            p, q = coords[a], coords[b]
            for c, d in segs:
                want = segments_cross_coords(p, q, coords[c], coords[d])
                assert ps.segments_cross_ids(a, b, c, d) == want, (unit, a, b, c, d)


def test_first_crossing_between_skips_shared_edges_only():
    ps = PointSet.from_coords([(0, 0), (2, 2), (0, 2), (2, 0), (5, 0), (6, 3), (3, 3)])
    shared = [Segment(4, 5)]
    # equal segments built apart are skipped; a crossing pair is not, nor
    # an overlap of two segments with one common endpoint
    assert ps.first_crossing_between(shared, [Segment(5, 4)]) is None
    got = ps.first_crossing_between(shared + [Segment(0, 1)], [Segment(4, 5), Segment(2, 3)])
    assert got == (Segment(0, 1), Segment(2, 3))
    assert ps.first_crossing_between([Segment(0, 1)], [Segment(0, 6)]) == (
        Segment(0, 1),
        Segment(0, 6),
    )


# ---------------------------------------------------------------------------
# blockers in the integer frame

# denominators like those of extension-ray termini
BIG_DENOMS = (1, 3, 10**9 + 7, 2**61 - 1)


def frame_cross(p, q, blockers):
    """crosses_any_blocker on edge pq, with pq taken from a two-point set."""
    ps = PointSet.from_coords([p, q])
    return crosses_any_blocker(ps.scaled(0), ps.scaled(1), blocker_table(ps, blockers))


def along(p, q, t):
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


F = Fraction
P0, Q0 = (F(1, 3), F(2, 7)), (F(13, 3), F(-5, 7))  # frame scale 21
MID, OFF = along(P0, Q0, F(1, 2)), (F(0), F(9))  # OFF is off pq's line
DEGENERATE_CONTACTS = [
    # (case, blocker r, blocker s, crosses)
    ("proper crossing", along(MID, OFF, F(1, 2)), along(MID, OFF, F(-1, 2)), True),
    ("shared endpoint", P0, (F(-7, 10**9 + 7), F(9, 2)), False),
    ("shared endpoint, reversed", (F(5, 2**61 - 1), F(9, 2)), Q0, False),
    ("blocker endpoint inside pq", along(P0, Q0, F(3, 10**9 + 7)), OFF, True),
    ("p inside the blocker", (F(1, 3), F(-4)), (F(1, 3), F(7, 2)), True),
    ("q inside the blocker", along(Q0, OFF, F(-1, 3)), along(Q0, OFF, F(2, 5)), True),
    ("collinear overlap", along(P0, Q0, F(-1, 2)), along(P0, Q0, F(1, 10**9 + 7)), True),
    ("collinear, blocker inside pq", along(P0, Q0, F(1, 5)), along(P0, Q0, F(4, 5)), True),
    ("collinear, overlap past a shared endpoint", Q0, MID, True),
    ("identical segment", Q0, P0, True),
    ("collinear disjoint", along(P0, Q0, F(2**61, 2**61 - 1)), along(P0, Q0, F(3)), False),
    ("collinear, touch at one common endpoint", Q0, along(P0, Q0, F(7, 3)), False),
    ("collinear, touch at p only", along(P0, Q0, F(-2, 3)), P0, False),
    ("endpoint on pq's line, outside pq", along(P0, Q0, F(5, 4)), OFF, False),
    ("point blocker inside pq", MID, MID, True),
    ("point blocker at p", P0, P0, False),
]


@pytest.mark.parametrize(
    "r,s,crosses", [c[1:] for c in DEGENERATE_CONTACTS], ids=[c[0] for c in DEGENERATE_CONTACTS]
)
def test_blocker_kernel_degenerate_contacts(r, s, crosses):
    assert segments_cross_coords(P0, Q0, r, s) == crosses
    assert frame_cross(P0, Q0, [(r, s)]) == crosses
    assert frame_cross(Q0, P0, [(s, r)]) == crosses


def test_blocker_kernel_matches_reference_on_random_rationals():
    rng = Random(41)

    def coord():
        d = rng.choice(BIG_DENOMS)
        return F(rng.randint(-5 * d, 5 * d), d)

    def small():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3)))

    kinds = set()
    for trial in range(3000):
        pick = coord if trial % 2 else small
        p, q = (pick(), pick()), (pick(), pick())
        if p == q:
            continue
        t1, t2 = F(rng.randint(-3, 6), rng.choice(BIG_DENOMS[1:])), F(rng.randint(-3, 6), 4)
        kind = trial % 6
        if kind == 0:
            r, s = (pick(), pick()), (pick(), pick())
        elif kind == 1:  # shared endpoint
            r, s = rng.choice((p, q)), (pick(), pick())
        elif kind == 2:  # blocker endpoint on pq's line
            r, s = along(p, q, t1), (pick(), pick())
        elif kind == 3:  # blocker on pq's line
            r, s = along(p, q, t1), along(p, q, t2)
        elif kind == 4:  # p on the blocker's line
            d = (pick(), pick())
            r, s = along(p, d, t1), along(p, d, -t2)
        else:  # collinear, touching or overlapping at q
            r, s = q, along(p, q, 1 + t1)
        want = segments_cross_coords(p, q, r, s)
        assert frame_cross(p, q, [(r, s)]) == want, (p, q, r, s)
        kinds.add((kind, want))
    # every construction met both verdicts
    assert kinds == {(k, v) for k in range(6) for v in (False, True)}
    # a table answers for all its blockers at once
    p, q = (F(-3), F(1, 2)), (F(4), F(1, 3))
    blockers = [((coord(), coord()), (coord(), coord())) for _ in range(40)]
    for k in range(len(blockers)):
        want = any(segments_cross_coords(p, q, r, s) for r, s in blockers[:k])
        assert frame_cross(p, q, blockers[:k]) == want


# ---------------------------------------------------------------------------
# point sets and validation


def test_pointset_rejects_duplicates():
    with pytest.raises(DuplicatePoint) as ei:
        PointSet.from_coords([(0, 0), (1, 1), (0, 0)])
    assert (ei.value.i, ei.value.j) == (0, 2)


def test_pointset_rescales_rational_coordinates():
    ps = PointSet.from_coords([(Fraction(1, 3), 0), (Fraction(1, 2), 1), (2, Fraction(5, 6))])
    assert ps.orient_ids(0, 1, 2) == orientation_test(ps[0], ps[1], ps[2])


def test_general_position_reports_triple():
    with pytest.raises(CollinearTriple) as ei:
        validate_general_position(PointSet.from_coords([(0, 0), (5, 5), (1, 1), (3, 0)]))
    assert set(ei.value.triple) == {0, 1, 2}


def test_general_position_accepts_generic_square():
    validate_general_position(PointSet.from_coords([(0, 0), (5, 1), (1, 4), (6, 6)]))


def test_general_position_matches_brute_on_random_sets():
    rng = Random(11)
    for _ in range(120):
        pts = [(rng.randrange(12), rng.randrange(12)) for _ in range(6)]
        if len(set(pts)) < 6:
            continue
        ps = PointSet.from_coords(pts)
        brute_bad = any(
            brute_orient(pts[i], pts[j], pts[k]) == 0
            for i in range(6)
            for j in range(i + 1, 6)
            for k in range(j + 1, 6)
        )
        try:
            validate_general_position(ps)
            assert not brute_bad
        except CollinearTriple:
            assert brute_bad


def test_pointset_reports_the_first_error_in_index_order():
    # a bad id before a duplicate, and a duplicate before a bad id
    with pytest.raises(GeomatchError, match="found id 7 at index 1") as ei:
        PointSet([Point(0, 0, 0), Point(1, 1, 7), Point(0, 0, 2)])
    assert not isinstance(ei.value, DuplicatePoint)
    with pytest.raises(DuplicatePoint) as ei:
        PointSet([Point(0, 0, 0), Point(1, 1, 1), Point(0, 0, 2), Point(3, 3, 9)])
    assert (ei.value.i, ei.value.j) == (0, 2)


def test_pointset_catches_a_duplicate_spelled_differently():
    with pytest.raises(DuplicatePoint) as ei:
        PointSet.from_coords([(Fraction(1, 2), 1), (0, Fraction(1, 3)), ("2/4", "3/3")])
    assert (ei.value.i, ei.value.j) == (0, 2)
    ps = PointSet.from_coords([(Fraction(1, 2), 1), ("1/3", 0)])
    assert (ps._scale, ps._ix, ps._iy) == (6, [3, 2], [6, 0])


def library_triple(ps: PointSet):
    try:
        validate_general_position(ps)
    except CollinearTriple as exc:
        return exc.triple
    return None


def test_general_position_names_the_reference_triple():
    rng = Random(5)
    sets = [random_general_pointset(rng, n) for n in (3, 4, 10, 40) for _ in range(3)]
    for _ in range(150):
        # small grids: many collinear triples, verticals and horizontals
        w, h = rng.randrange(2, 7), rng.randrange(2, 7)
        cells = [(x, y) for x in range(w) for y in range(h)]
        k = rng.randrange(3, min(len(cells), 12) + 1)
        sets.append(PointSet.from_coords(rng.sample(cells, k)))
    bad = 0
    for ps in sets:
        for scale in (1, Fraction(1, 3), Fraction(5, 11)):
            sc = PointSet.from_coords((p.x * scale, p.y * scale) for p in ps)
            want = naive_collinear_triple(sc)
            assert library_triple(sc) == want
            bad += want is not None
    assert bad > 300


def test_general_position_confirms_a_float_slope_collision():
    # 1 / 10**18 and 1 / (10**18 + 1) are one float but not one slope
    big = 10**18
    assert 1 / big == 1 / (big + 1)
    ps = PointSet.from_coords([(0, 0), (big, 1), (big + 1, 1)])
    assert library_triple(ps) is None
    # equal slopes of differences no float holds: each quotient is rounded
    # once, so the keys are equal (rounding 2**53 + 1 first would break that)
    odd = 2**53 + 1
    ps = PointSet.from_coords([(0, 0), (odd, 1), (3 * odd, 3)])
    assert library_triple(ps) == (0, 1, 2)
    # a true collinear triple behind the same collision
    for coords, want in (
        ([(0, 0), (big, 1), (big + 1, 1), (2 * big + 2, 2)], (0, 2, 3)),
        ([(0, 0), (big, 1), (big + 1, 1), (2 * big, 2)], (0, 1, 3)),
        ([(5, 5), (0, 0), (big, 1), (big + 1, 1), (2 * big + 2, 2)], (1, 3, 4)),
    ):
        ps = PointSet.from_coords(coords)
        assert library_triple(ps) == naive_collinear_triple(ps) == want


def test_general_position_survives_slopes_beyond_float_range():
    huge = 10**400
    with pytest.raises(OverflowError):
        huge / 1
    for coords in (
        [(0, 0), (1, huge), (2, 3 * huge), (huge, 1)],
        [(0, 0), (1, huge), (2, 2 * huge)],
        [(huge, huge + 1), (huge + 1, 3), (2, huge), (huge + 2, 2 * huge - 1)],
        [(Fraction(1, 3), huge), (0, 0), (1, -huge), (2, 2 * huge + 1)],
    ):
        ps = PointSet.from_coords(coords)
        assert library_triple(ps) == naive_collinear_triple(ps)
    assert library_triple(PointSet.from_coords([(0, 0), (1, huge), (2, 2 * huge)])) == (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(-2, 3)), min_size=3, max_size=10, unique=True
    )
)
def test_general_position_property_on_small_grids(cells):
    ps = PointSet.from_coords(cells)
    assert library_triple(ps) == naive_collinear_triple(ps)


# ---------------------------------------------------------------------------
# matchings, compatibility, disjointness


def test_segment_is_its_sorted_id_pair():
    s = Segment(3, 1)
    assert (s.a, s.b) == (1, 3)
    assert Segment(b=1, a=3) == s
    assert s.ids == (1, 3) and type(s.ids) is tuple
    assert tuple(s) == (1, 3)
    a, b = s
    assert (a, b) == (1, 3)
    assert repr(s) == "Segment(a=1, b=3)"
    assert str(s) == repr(s)


def test_segment_rejects_a_point_joined_to_itself():
    with pytest.raises(GeomatchError, match="segment joins point 4 to itself"):
        Segment(4, 4)
    with pytest.raises(GeomatchError, match="segment joins point 3 to itself"):
        Segment(1, 3)._replace(a=3)
    assert Segment(1, 3)._replace(b=0) == (0, 1)


def test_segment_hashes_and_compares_as_its_id_pair():
    assert hash(Segment(3, 1)) == hash((1, 3))
    assert Segment(3, 1) == (1, 3)
    assert Segment(3, 1) != (3, 1)
    assert (1, 3) in {Segment(1, 3)}
    assert Segment(1, 3) in {(1, 3): None}
    segs = [Segment(2, 0), Segment(1, 5), Segment(0, 1), Segment(1, 2)]
    assert sorted(segs) == [Segment(0, 1), Segment(0, 2), Segment(1, 2), Segment(1, 5)]
    assert sorted(segs) == sorted(s.ids for s in segs)


def test_segment_survives_pickle_and_deepcopy():
    s = Segment(7, 2)
    for again in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert type(again) is Segment
        assert again == s and (again.a, again.b) == (2, 7)


def square_ps():
    return PointSet.from_coords([(0, 0), (10, 1), (11, 10), (1, 9)])


def test_matching_rejects_reused_point():
    ps = square_ps()
    with pytest.raises(GeomatchError):
        Matching(ps, [Segment(0, 1), Segment(1, 2)])


def test_matching_names_the_first_bad_segment():
    # the degree check runs once over all ids; a failing set is walked
    # segment by segment, so the message names the segment that fails
    ps = square_ps()
    bad_sets = ([Segment(0, 1), Segment(2, 7)], [Segment(0, 4)], [Segment(-1, 2), Segment(0, 1)])
    for edges in bad_sets:
        bad = [s for s in frozenset(edges) if not 0 <= min(s) <= max(s) < len(ps)][0]
        with pytest.raises(GeomatchError, match=rf"^segment {re.escape(repr(bad))} references"):
            Matching(ps, edges)
    edges = frozenset([Segment(0, 1), Segment(1, 2)])
    second = re.escape(repr(list(edges)[1]))
    with pytest.raises(GeomatchError, match=rf"^point reused by segment {second}$"):
        Matching(ps, edges)
    assert Matching(ps, [Segment(0, 1), Segment(2, 3)], check=False).is_perfect
    assert len(Matching(ps, [])) == 0


def test_matching_rejects_crossing_edges():
    ps = square_ps()
    with pytest.raises(GeomatchError):
        Matching(ps, [Segment(0, 2), Segment(1, 3)])  # the two diagonals


def test_matching_perfect_flag():
    ps = square_ps()
    assert Matching(ps, [Segment(0, 1), Segment(2, 3)]).is_perfect
    assert not Matching(ps, [Segment(0, 1)]).is_perfect


def test_compatible_and_disjoint_basics():
    ps = square_ps()
    m_bottom_top = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    m_left_right = Matching(ps, [Segment(0, 3), Segment(1, 2)])
    assert compatible(m_bottom_top, m_left_right)
    assert disjoint(m_bottom_top, m_left_right)
    assert compatible(m_bottom_top, m_bottom_top)
    assert not disjoint(m_bottom_top, m_bottom_top)


def test_compatible_detects_crossing_union():
    ps = PointSet.from_coords([(0, 0), (10, 0), (5, -3), (5, 7), (20, 1), (21, 2)])
    m1 = Matching(ps, [Segment(0, 1), Segment(4, 5)])
    m2 = Matching(ps, [Segment(2, 3), Segment(4, 5)])
    assert not compatible(m1, m2)  # (0-1) crosses (2-3)


def test_compatible_requires_same_point_set():
    m1 = Matching(square_ps(), [Segment(0, 1)])
    m2 = Matching(PointSet.from_coords([(0, 0), (10, 1), (11, 10), (1, 8)]), [Segment(0, 1)])
    with pytest.raises(MismatchedVertexSet):
        compatible(m1, m2)


def test_compatible_matches_brute_union_check():
    rng = Random(23)
    for _ in range(40):
        m1, m2 = random_matching_pair(rng, rng.randrange(2, 5), grid=100)
        coords = [p.coord for p in m1.base]
        want = brute_union_noncrossing(
            coords, [s.ids for s in m1.edges], [s.ids for s in m2.edges]
        )
        assert compatible(m1, m2) == want


# ---------------------------------------------------------------------------
# hulls and convex position


def test_hull_square_with_interior_point():
    ps = PointSet.from_coords([(0, 0), (10, 1), (11, 10), (1, 9), (5, 5)])
    res = convex_hull(ps)
    assert set(res.hull_ids) == {0, 1, 2, 3}
    assert res.interior_ids == (4,)
    assert polygon_area2(res.polygon) > 0


def test_hull_of_collinear_points_names_three_distinct_ones():
    # the two chain ends and the point next to the first, by position
    for coords, triple in (
        ([(0, 0), (1, 1), (2, 2), (3, 3)], (0, 1, 3)),
        ([(3, 3), (0, 0), (2, 2), (1, 1)], (1, 3, 0)),
        ([(5, 1), (5, -2), (5, 7)], (1, 0, 2)),
    ):
        ps = PointSet.from_coords(coords)
        with pytest.raises(CollinearTriple) as ei:
            convex_hull(ps)
        assert ei.value.triple == triple
        assert str(ei.value) == "points {}, {}, {} are collinear".format(*triple)
        assert ps.orient_ids(*triple) == 0


def test_hull_requires_three_points():
    with pytest.raises(TooFewPoints):
        convex_hull(PointSet.from_coords([(0, 0), (1, 1)]))


def test_hull_matches_brute_membership_on_random_sets():
    rng = Random(5)
    for _ in range(30):
        ps = random_general_pointset(rng, 20, grid=1000)
        res = convex_hull(ps)
        coords = [p.coord for p in ps]
        assert set(res.hull_ids) == brute_hull_ids(coords)
        assert set(res.interior_ids) == set(ps.ids) - set(res.hull_ids)


def test_hull_order_is_ccw():
    rng = Random(6)
    ps = random_general_pointset(rng, 12, grid=1000)
    order = convex_hull(ps).hull_ids
    m = len(order)
    for i in range(m):
        assert ps.orient_ids(order[i], order[(i + 1) % m], order[(i + 2) % m]) == 1


def test_convex_position_order_rejects_interior_point():
    ps = PointSet.from_coords([(0, 0), (10, 1), (11, 10), (1, 9), (5, 5)])
    with pytest.raises(NotConvexPosition):
        convex_position_order(ps, [0, 1, 2, 3, 4])
    order = convex_position_order(ps, [0, 1, 2, 3])
    assert order[0] == 0 and set(order) == {0, 1, 2, 3}


def test_convex_position_order_equals_gift_wrapping():
    # random sets (mostly with interior points), points on a parabola (in
    # convex position), small-grid subsets (collinear triples, points on
    # hull edges) and points on one line, as shuffled id lists
    rng = Random(31)
    kinds = set()
    for trial in range(160):
        k = rng.randrange(13)
        if trial % 4 == 0:
            ps = random_general_pointset(rng, k, grid=1000)
        elif trial % 4 == 1:
            ps = PointSet.from_coords((x, x * x) for x in rng.sample(range(-30, 31), k))
        elif trial % 4 == 2:
            cells = [(x, y) for x in range(4) for y in range(3)]
            ps = PointSet.from_coords(rng.sample(cells, k))
        else:
            ps = PointSet.from_coords((x, 2 * x + 1) for x in rng.sample(range(-30, 31), k))
        ids = list(ps.ids)
        rng.shuffle(ids)
        try:
            want = gift_wrap_order(ps, ids)
        except GeomatchError as exc:
            want = (type(exc).__name__, str(exc))
        try:
            got = convex_position_order(ps, ids)
        except GeomatchError as exc:
            got = (type(exc).__name__, str(exc))
        assert got == want, (ps, ids)
        kinds.add(got[0] if isinstance(got, tuple) else "order")
    assert kinds == {"order", "NotConvexPosition", "CollinearTriple"}


# ---------------------------------------------------------------------------
# polygons and boxes


def test_polygon_requires_strict_ccw():
    with pytest.raises(GeomatchError):
        ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    with pytest.raises(GeomatchError):
        ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])  # collinear run
    with pytest.raises(GeomatchError) as ei:
        # a convex pentagon's corners in star order: every corner turns left
        ConvexPolygon([(0, 10), (-6, -8), (10, 3), (-10, 3), (6, -8)])
    assert str(ei.value) == "polygon vertices are not in strictly convex CCW order"
    ConvexPolygon([(0, 10), (-10, 3), (-6, -8), (6, -8), (10, 3)])


def test_polygon_contains():
    square = ConvexPolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert polygon_contains(square, (2, 2), strict=True)
    assert polygon_contains(square, (0, 2)) and not polygon_contains(square, (0, 2), strict=True)
    assert not polygon_contains(square, (5, 2))


def _convex_polygon(points):
    """The strictly convex CCW polygon on the hull corners of some points,
    or None when they are collinear."""
    pts = sorted(set(points))
    hull = [pts[i] for i in brute_hull_ids(pts)]
    # a hull point strictly between two others is on an edge, not a corner
    corners = [
        p for p in hull
        if not any(
            brute_orient(q, p, r) == 0 and min(q, r) < p < max(q, r)
            for q in hull for r in hull
        )
    ]
    if len(corners) < 3:
        return None
    low = min(corners, key=lambda p: (p[1], p[0]))
    rest = sorted(
        (p for p in corners if p != low),
        key=cmp_to_key(lambda p, q: -brute_orient(low, p, q)),
    )
    return ConvexPolygon([low] + rest)


_grid = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=9
)


@settings(max_examples=300, deadline=None)
@given(
    _grid,
    st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(2, 5)]),
    st.sampled_from(["corner", "edge", "two corners", "miss", "any"]),
    st.integers(0, 100),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_polygon_clip_properties(cells, unit, kind, pick, far):
    poly = _convex_polygon([(x * unit, y * unit) for x, y in cells])
    if poly is None:
        return
    v = poly.vertices
    m = len(v)
    corner = v[pick % m]
    p, q = {
        "corner": (corner, (far[0] * unit / 2, far[1] * unit / 2)),
        "edge": (corner, v[(pick + 1) % m]),
        "two corners": (corner, v[(pick + 2) % m]),
        "miss": (None, None),
        "any": ((Fraction(far[1], 5), Fraction(-far[0], 2)), (Fraction(far[0], 7), unit)),
    }[kind]
    if p is None:
        # a line beside the polygon, normal to the direction far
        a, b = far if far != (0, 0) else (1, 0)
        c = max(a * x + b * y for x, y in v) + 1
    elif p == q:
        return
    else:
        a, b = q[1] - p[1], p[0] - q[0]
        c = a * p[0] + b * p[1]
    area = Fraction(0)
    for keep in (1, -1):
        side = [keep * (a * x + b * y - c) for x, y in v]
        got = poly.clip_halfplane(a, b, c, keep)
        assert (got is None) == (max(side) <= 0)
        if got is None:
            continue
        assert ConvexPolygon(got.vertices).vertices == got.vertices
        area += polygon_area2(got)
        for x, y in got.vertices:
            if (x, y) in v:
                assert side[v.index((x, y))] >= 0
            else:
                assert a * x + b * y == c
                assert any(
                    brute_orient(s, t, (x, y)) == 0
                    and min(s[0], t[0]) <= x <= max(s[0], t[0])
                    and min(s[1], t[1]) <= y <= max(s[1], t[1])
                    for s, t in polygon_edges(poly)
                )
    assert area == polygon_area2(poly)


def test_polygon_halfplane_clip():
    square = ConvexPolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    left = square.clip_halfplane(1, 0, 2, keep=-1)  # x <= 2
    assert left is not None
    assert set(left.vertices) == {(0, 0), (2, 0), (2, 4), (0, 4)}
    assert polygon_area2(left) == polygon_area2(square) / 2
    assert square.clip_halfplane(1, 0, 10, keep=1) is None  # x >= 10: empty


def test_bounding_box_margin_is_one_plus_spread():
    ps = PointSet.from_coords([(0, 0), (4, 1), (2, 3)])
    box = BoundingBox.around(ps)  # spread = max(4, 3) = 4, margin 5
    assert (box.xmin, box.ymin, box.xmax, box.ymax) == (-5, -5, 9, 8)
    for p in ps:
        assert box_strictly_contains(box, p.coord)


def test_bounding_box_around_matches_fraction_formula():
    from geomatch.algorithms import Flavor, gen_random_matching

    sets = [
        PointSet.from_coords([(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 2), 4)]),
        PointSet.from_coords([(Fraction(-7, 6), Fraction(9, 4))]),
    ]
    chc = [gen_random_matching(6, seed, Flavor.CHC).base for seed in range(4)]
    assert any(p.x.denominator > 1 for ps in chc for p in ps)
    for flavor in (Flavor.GENERAL, Flavor.AXIS_PARALLEL):
        sets += [gen_random_matching(6, seed, flavor).base for seed in range(4)]
    for ps in sets + chc:
        xs = [p.x for p in ps]
        ys = [p.y for p in ps]
        margin = 1 + max(max(xs) - min(xs), max(ys) - min(ys))
        expected = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
        box = BoundingBox.around(ps)
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == expected
        assert all(isinstance(v, Fraction) for v in (box.xmin, box.ymin, box.xmax, box.ymax))


def test_sorted_edges_are_in_id_pair_order():
    rng = Random(4)
    ps = random_general_pointset(rng, 40)
    m = Matching(ps, random_ncpm_edges(ps, rng))
    assert m.sorted_edges() == sorted(m.edges)
    assert [s.ids for s in m.sorted_edges()] == sorted(s.ids for s in m.edges)


def _rotated_to(vertices, first):
    k = vertices.index(first)
    return vertices[k:] + vertices[:k]


@pytest.mark.parametrize("keep", [1, -1])
def test_box_clip_matches_polygon_clip(keep):
    box = BoundingBox(Fraction(-7, 2), -3, 5, Fraction(9, 4))
    poly = box_polygon(box)
    third = Fraction(1, 3)
    lines = [(1, 0, c) for c in (-4, Fraction(-7, 2), -1, third, 5, 6)]
    lines += [(-2, 0, 2 * c) for c in (-1, third)]  # the same lines, negated
    lines += [(0, 1, c) for c in (-4, -3, third, Fraction(9, 4), 3)]
    lines += [(0, Fraction(-1, 2), c / -2) for c in (-1, third)]
    for a, b, c in lines:
        cut = box.clip_halfplane(a, b, c, keep)
        ref = poly.clip_halfplane(a, b, c, keep)
        if ref is None:
            assert cut is None, (a, b, c)
            continue
        assert isinstance(cut, BoundingBox)
        got = box_polygon(cut).vertices
        assert all(isinstance(v, Fraction) for xy in got for v in xy)
        if a == 0 and b * keep > 0:
            # cut by a horizontal line keeping the upper side: the same
            # corners, but box_polygon starts at the lower-left one
            assert got == _rotated_to(ref.vertices, got[0]), (a, b, c)
        else:
            assert got == ref.vertices, (a, b, c)
    # a cut that misses the box keeps all of it, or none of it
    assert box.clip_halfplane(1, 0, 6, keep) == (box if keep == -1 else None)
    with pytest.raises(GeomatchError):
        box.clip_halfplane(1, 0, 0, 0)


@pytest.mark.parametrize("keep", [1, -1])
def test_box_clip_equals_the_checked_box(keep):
    # the cut box skips the constructor's checks; it must still be the box
    # the constructor builds from the same bounds, or None when the cut
    # leaves no interior
    box = BoundingBox(Fraction(-7, 2), -3, 5, Fraction(9, 4))
    bounds = (box.xmin, box.ymin, box.xmax, box.ymax)
    third = Fraction(1, 3)
    cases = []
    for a, c in ((1, third), (-2, -1), (3, 15), (Fraction(1, 2), -2), (1, -4), (1, 5)):
        at = Fraction(c) / a  # the vertical line x = c / a
        xmin, ymin, xmax, ymax = bounds
        if keep * a > 0:
            xmin = max(xmin, at)
        else:
            xmax = min(xmax, at)
        cases.append(((a, 0, c), (xmin, ymin, xmax, ymax)))
    for b, c in ((1, third), (-3, 1), (Fraction(2, 7), -Fraction(6, 7)), (1, 3), (1, -3)):
        at = Fraction(c) / b  # the horizontal line y = c / b
        xmin, ymin, xmax, ymax = bounds
        if keep * b > 0:
            ymin = max(ymin, at)
        else:
            ymax = min(ymax, at)
        cases.append(((0, b, c), (xmin, ymin, xmax, ymax)))
    for c in (-5, 0, third):
        cases.append(((0, 0, c), bounds if keep * c <= 0 else None))
    empty = 0
    for (a, b, c), want in cases:
        got = box.clip_halfplane(a, b, c, keep)
        if want is not None and not (want[0] < want[2] and want[1] < want[3]):
            with pytest.raises(GeomatchError, match="empty interior"):
                BoundingBox(*want)
            want = None
        if want is None:
            assert got is None, (a, b, c)
            empty += 1
            continue
        ref = BoundingBox(*want)
        assert type(got) is BoundingBox
        assert (got.xmin, got.ymin, got.xmax, got.ymax) == want
        assert all(type(v) is Fraction for v in (got.xmin, got.ymin, got.xmax, got.ymax))
        assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref)
        # the integer state too: one reduced frame, so equal boxes hold
        # equal integers
        assert got._ints == ref._ints
    assert empty >= 3


def test_box_public_behaviour_is_that_of_its_fraction_bounds():
    # a box is its four Fraction bounds: built from ints, Fractions,
    # strings or bounds over a reducible frame, around a point set or cut
    # from a larger box, equal bounds give equal boxes with equal hashes,
    # the same repr and the same Fraction fields
    F = Fraction
    bounds = (F(1, 2), F(0), F(3, 2), F(1))
    ps = PointSet.from_coords([(1, F(1, 2)), (F(3, 2), F(1, 2))])  # margin 3/2
    same = [
        BoundingBox(*bounds),
        BoundingBox(F(2, 4), 0, F(3, 2), 1),
        BoundingBox("1/2", "0", "6/4", F(7, 7)),
        BoundingBox(xmin=F(1, 2), ymin=0, xmax=F(3, 2), ymax=1),
        BoundingBox(F(1, 2), -1, F(3, 2), 1).clip_halfplane(0, 2, 0, 1),
        BoundingBox(F(1, 2), 0, 7, 1).clip_halfplane(F(2, 3), 0, 1, -1),
        BoundingBox(-5, 0, F(3, 2), 1).clip_halfplane(-4, 0, F(-2), -1),
        BoundingBox(F(1, 2), 0, F(3, 2), F(9, 4)).clip_halfplane(0, 1, 1, -1),
        BoundingBox.around(ps).clip_halfplane(1, 0, F(1, 2), 1)
        .clip_halfplane(0, 1, 0, 1).clip_halfplane(2, 0, 3, -1).clip_halfplane(0, 3, 3, -1),
    ]
    want_repr = (
        "BoundingBox(xmin=Fraction(1, 2), ymin=Fraction(0, 1), "
        "xmax=Fraction(3, 2), ymax=Fraction(1, 1))"
    )
    for box in same:
        assert type(box) is BoundingBox
        fields = (box.xmin, box.ymin, box.xmax, box.ymax)
        assert fields == bounds and all(type(v) is Fraction for v in fields)
        assert box == same[0] and not box != same[0]
        assert hash(box) == hash(bounds) == hash(same[0])
        assert repr(box) == want_repr
        assert box._ints == (1, 0, 3, 2, 2)
    around = BoundingBox.around(ps)
    assert around == BoundingBox(F(-1, 2), -1, 3, 2) and repr(around) == (
        "BoundingBox(xmin=Fraction(-1, 2), ymin=Fraction(-1, 1), "
        "xmax=Fraction(3, 1), ymax=Fraction(2, 1))"
    )
    # not equal to another box, nor to its bounds as a tuple
    box = same[0]
    assert box != BoundingBox(F(1, 2), 0, F(3, 2), F(3, 2)) and box != bounds
    # frozen: no field or other attribute can be set or deleted
    for name in ("xmin", "ymax", "_ints", "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(box, name, 0)
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'xmin'"):
        del box.xmin
    assert repr(box) == want_repr
    # copies and pickles are equal boxes
    for back in (copy.copy(box), copy.deepcopy(box), pickle.loads(pickle.dumps(box))):
        assert type(back) is BoundingBox and back == box
        assert hash(back) == hash(box) and repr(back) == want_repr
    # the constructor's errors, in argument order
    with pytest.raises(GeomatchError, match="empty interior"):
        BoundingBox(F(3, 2), 0, F(6, 4), 1)
    with pytest.raises(GeomatchError, match="empty interior"):
        BoundingBox(0, 1, 1, 1)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, "x", "y")


@pytest.mark.parametrize("keep", [1, -1])
def test_box_clip_refuses_an_oblique_line_and_keeps_all_or_nothing_of_a_zero_normal(keep):
    box = BoundingBox(Fraction(-7, 2), -3, 5, Fraction(9, 4))
    # an oblique line does not cut a box into a box; callers shear it first
    for a, b in ((1, 1), (2, Fraction(-1, 5)), (-3, 7)):
        with pytest.raises(GeomatchError, match="vertical or horizontal"):
            box.clip_halfplane(a, b, Fraction(1, 3), keep)
    # sign(0*x + 0*y - c) is the sign of -c everywhere, and 0 is always kept,
    # as the polygon clip keeps it
    for c in (-5, 0, Fraction(1, 3)):
        want = box if keep * c <= 0 else None
        assert box.clip_halfplane(0, 0, c, keep) == want
        ref = box_polygon(box).clip_halfplane(0, 0, c, keep)
        assert (ref is None) == (want is None) and (ref is None or ref == box_polygon(box))


# ---------------------------------------------------------------------------
# shear


def test_shear_breaks_x_ties_and_preserves_structure():
    ps = PointSet.from_coords([(0, 0), (0, 5), (3, 2), (3, 9), (7, 4), (9, 9)])
    assert not distinct_x(ps)
    sheared, K = shear_points(ps)
    assert K > 0
    assert distinct_x(sheared)
    # strict x-order of non-tied pairs is preserved
    for i in range(len(ps)):
        for j in range(len(ps)):
            if ps[i].x < ps[j].x:
                assert sheared[i].x < sheared[j].x
    # orientation signs unchanged (affine map)
    for i, j, k in [(0, 1, 2), (1, 3, 4), (2, 4, 5), (0, 3, 5)]:
        assert ps.orient_ids(i, j, k) == sheared.orient_ids(i, j, k)


def test_shear_parameter_matches_the_pairwise_formula():
    rng = Random(12)
    for scale in (1, Fraction(1, 3), Fraction(5, 11)):
        for _ in range(40):
            n = rng.randrange(0, 9)
            coords = list({(rng.randrange(6), rng.randrange(40)) for _ in range(n)})
            ps = PointSet.from_coords((x * scale, y * scale) for x, y in coords)
            assert shear_points(ps)[1] == pairwise_shear_K(ps)
        # every x equal: K is the y-extent plus one
        ps = PointSet.from_coords((2 * scale, y * scale) for y in (0, 7, 3))
        assert shear_points(ps)[1] == pairwise_shear_K(ps) == 7 * scale + 1


def test_distinct_x_agrees_with_the_fraction_coordinates():
    # distinct_x compares the integer frame; it must agree with the x
    # coordinates themselves at any scale, with and without ties
    rng = Random(8)
    seen = set()
    for scale in (1, Fraction(1, 3), Fraction(5, 11)):
        for _ in range(30):
            n = rng.randrange(1, 9)
            coords = list({(rng.randrange(6), rng.randrange(40)) for _ in range(n)})
            ps = PointSet.from_coords((x * scale, y * scale) for x, y in coords)
            expected = len({p.x for p in ps}) == len(ps)
            assert distinct_x(ps) == expected
            seen.add(expected)
    assert seen == {True, False}


@settings(max_examples=50)
@given(st.lists(point, min_size=3, max_size=8, unique=True))
def test_shear_preserves_orientation_signs(pts):
    ps = PointSet.from_coords(pts)
    sheared, _ = shear_points(ps)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                assert ps.orient_ids(i, j, k) == sheared.orient_ids(i, j, k)


def test_random_ncpm_helper_produces_valid_perfect_matchings():
    rng = Random(3)
    for _ in range(20):
        ps = random_general_pointset(rng, 10, grid=500)
        m = Matching(ps, random_ncpm_edges(ps, rng))
        assert m.is_perfect
