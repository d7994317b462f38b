"""Oracle self-checks: small counts are pinned, bigger cases cross-checked."""

from fractions import Fraction
from random import Random

import pytest

from geomatch.algorithms import gen_general_odd, gen_parallel_chords
from geomatch.errors import InvariantViolation, OddCount, TooLarge, Unreachable
from geomatch.geom_core import (
    Matching,
    PointSet,
    Segment,
    compatible,
    disjoint,
    segments_cross_coords,
)
from geomatch.oracle import (
    enumerate_ncpm,
    has_disjoint_compatible_pm,
    transformation_distance,
    visibility_graph,
)

from helpers import (
    brute_pm_exists,
    naive_enumerate_ncpm,
    naive_has_disjoint_compatible_pm,
    naive_visibility_graph,
    random_general_pointset,
    random_ncpm_edges,
)


def convex_points(m):
    """2m points in convex position (on a parabola)."""
    return PointSet.from_coords([(i, i * i) for i in range(2 * m)])


def square():
    return PointSet.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])


def circle_chords():
    """Three parallel chords of the unit circle at heights 4/5, 0, -4/5."""
    ps = PointSet.from_coords(
        [
            (Fraction(-3, 5), Fraction(4, 5)),
            (Fraction(3, 5), Fraction(4, 5)),
            (-1, 0),
            (1, 0),
            (Fraction(-3, 5), Fraction(-4, 5)),
            (Fraction(3, 5), Fraction(-4, 5)),
        ]
    )
    return Matching(ps, [Segment(0, 1), Segment(2, 3), Segment(4, 5)])


def grid_pointset(rng, n, side):
    """n distinct points of a side x side integer grid (collinear triples
    and axis-parallel pairs are the rule, not the exception)."""
    cells = [(x, y) for x in range(side) for y in range(side)]
    return PointSet.from_coords(rng.sample(cells, n))


def assert_same_catalog(ps):
    got = [m.edges for m in enumerate_ncpm(ps)]
    assert got == [m.edges for m in naive_enumerate_ncpm(ps)]
    return got


def assert_same_probe(m):
    got = has_disjoint_compatible_pm(m)
    assert got == naive_has_disjoint_compatible_pm(m), sorted(m.edges)
    return got


# --- enumeration -----------------------------------------------------------


def test_enumerate_two_points():
    ps = PointSet.from_coords([(0, 0), (1, 1)])
    assert len(enumerate_ncpm(ps)) == 1


def test_enumerate_square_has_two():
    cat = enumerate_ncpm(square())
    assert len(cat) == 2
    for m in cat:
        assert m.is_perfect


@pytest.mark.parametrize("m,count", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (6, 132)])
def test_enumerate_convex_catalan(m, count):
    assert len(enumerate_ncpm(convex_points(m))) == count


def test_enumerate_guard():
    ps = random_general_pointset(Random(1), 18)
    with pytest.raises(TooLarge):
        enumerate_ncpm(ps)


def test_enumerate_no_duplicates_and_noncrossing():
    rng = Random(5)
    ps = random_general_pointset(rng, 8)
    cat = enumerate_ncpm(ps)
    assert len({m.edges for m in cat}) == len(cat)
    for m in cat:
        # re-validate via the checking constructor
        Matching(ps, m.edges)


# --- disjoint compatible existence -----------------------------------------


def test_single_segment_has_no_disjoint_mate():
    ps = PointSet.from_coords([(0, 0), (1, 0)])
    m = Matching(ps, [Segment(0, 1)])
    assert has_disjoint_compatible_pm(m) == (False, None)


def test_three_circle_chords_have_no_disjoint_mate():
    found, witness = has_disjoint_compatible_pm(circle_chords())
    assert not found and witness is None


def test_two_circle_chords_have_a_disjoint_mate():
    ps = PointSet.from_coords(
        [
            (Fraction(-3, 5), Fraction(4, 5)),
            (Fraction(3, 5), Fraction(4, 5)),
            (Fraction(-3, 5), Fraction(-4, 5)),
            (Fraction(3, 5), Fraction(-4, 5)),
        ]
    )
    m = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    found, witness = has_disjoint_compatible_pm(m)
    assert found
    assert disjoint(m, witness) and compatible(m, witness)
    assert witness.is_perfect


def test_random_even_matchings_have_disjoint_mates():
    # observed property at small sizes; a failure here would be a discovery
    rng = Random(12)
    for _ in range(25):
        n = rng.choice([2, 4, 6])
        ps = random_general_pointset(rng, 2 * n)
        m = Matching(ps, random_ncpm_edges(ps, rng), check=False)
        found, witness = has_disjoint_compatible_pm(m)
        assert found, f"no disjoint compatible mate for {sorted(m.edges)} on {list(ps)}"
        assert witness.is_perfect


# --- equivalence with the naive references ---------------------------------
#
# The memoised bitmask search must return exactly what the plain
# backtracking in helpers returns: the same catalog in the same order, and
# the same first witness.


def test_search_matches_naive_reference_on_general_sets():
    rng = Random(31)
    for n in range(2, 15, 2):
        for _ in range(2 if n < 14 else 1):
            ps = random_general_pointset(rng, n)
            catalog = assert_same_catalog(ps)
            probes = [random_ncpm_edges(ps, rng) for _ in range(3)]
            probes += [catalog[0], catalog[-1], catalog[len(catalog) // 2]]
            for edges in probes:
                assert_same_probe(Matching(ps, edges, check=False))


def test_search_matches_naive_reference_on_grid_sets():
    rng = Random(32)
    for trial in range(40):
        side = rng.choice([3, 4, 5])
        n = rng.randint(1, min(10, side * side))
        ps = grid_pointset(rng, n, side)
        if n % 2:
            with pytest.raises(OddCount):
                enumerate_ncpm(ps)
            with pytest.raises(OddCount):
                naive_enumerate_ncpm(ps)
            # an odd count is never perfectly matched, whatever m is
            catalog = naive_enumerate_ncpm(PointSet.from_coords(ps.coord(i) for i in range(n - 1)))
            m = Matching(ps, rng.choice(catalog).edges)
            assert assert_same_probe(m) == (False, None)
            continue
        catalog = assert_same_catalog(ps)
        for edges in rng.sample(catalog, min(4, len(catalog))):
            assert_same_probe(Matching(ps, edges))
            # a partial m leaves points without a partner in m
            assert_same_probe(Matching(ps, sorted(edges)[: len(edges) // 2]))


def test_search_matches_naive_reference_on_families_without_mate():
    cases = [circle_chords(), gen_general_odd(1), gen_general_odd(2), gen_general_odd(3)]
    cases += [gen_parallel_chords(k) for k in (1, 3, 5, 7)]
    for m in cases:
        assert assert_same_probe(m) == (False, None)
    for k in (2, 4, 6):
        found, witness = assert_same_probe(gen_parallel_chords(k))
        assert found and witness.is_perfect


def test_witness_check_is_a_typed_error(monkeypatch):
    # the witness is re-checked with the library predicates; a failure is an
    # InvariantViolation, which python -O keeps
    import geomatch.oracle as oracle

    m = gen_parallel_chords(2)
    assert has_disjoint_compatible_pm(m)[0]
    monkeypatch.setattr(oracle, "compatible", lambda m1, m2: False)
    with pytest.raises(InvariantViolation):
        has_disjoint_compatible_pm(m)


# --- transformation distance ------------------------------------------------


def test_distance_zero_iff_equal():
    ps = square()
    cat = enumerate_ncpm(ps)
    assert transformation_distance(cat[0], cat[0]) == 0
    assert transformation_distance(cat[0], cat[1]) == 1


def test_distance_symmetric_small():
    rng = Random(77)
    for _ in range(10):
        ps = random_general_pointset(rng, 6)
        cat = enumerate_ncpm(ps)
        a, b = rng.sample(cat, 2)
        d = transformation_distance(a, b)
        assert d == transformation_distance(b, a) >= 1


def test_distance_guard():
    rng = Random(3)
    ps = random_general_pointset(rng, 14)
    m1 = Matching(ps, random_ncpm_edges(ps, rng), check=False)
    m2 = Matching(ps, random_ncpm_edges(ps, rng), check=False)
    with pytest.raises(TooLarge):
        transformation_distance(m1, m2)


# --- visibility graphs ------------------------------------------------------


def test_visibility_single_segment():
    ps = PointSet.from_coords([(0, 0), (1, 0)])
    m = Matching(ps, [Segment(0, 1)])
    assert visibility_graph(m, minus_m=True).pairs == frozenset()
    assert visibility_graph(m, minus_m=False).pairs == {(0, 1)}


def test_visibility_square_opposite_sides():
    ps = square()
    m = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    g = visibility_graph(m, minus_m=True)
    # remaining sides and both diagonals: blocked by nothing in m
    assert g.pairs == {(1, 2), (0, 3), (0, 2), (1, 3)}
    full = visibility_graph(m, minus_m=False)
    assert full.pairs == g.pairs | {(0, 1), (2, 3)}


def test_visibility_blocked_pair():
    # a long near-horizontal wall separates the points above from below
    ps = PointSet.from_coords(
        [(-10, 0), (10, 1), (0, 5), (0, -5), (3, 7), (3, -7)]
    )
    m = Matching(ps, [Segment(0, 1), Segment(2, 4), Segment(3, 5)])
    g = visibility_graph(m, minus_m=False)
    assert (2, 3) not in g.pairs  # the wall blocks top from bottom
    assert (4, 5) not in g.pairs
    assert (0, 2) in g.pairs
    assert (2, 4) in g.pairs  # m's own edge is visible without minus_m


def test_visibility_graph_matches_naive_expression():
    rng = Random(33)
    for trial in range(30):
        n = rng.choice([2, 4, 6, 8, 10])
        if trial % 2:
            ps = random_general_pointset(rng, n)
            edges = random_ncpm_edges(ps, rng)
        else:
            ps = grid_pointset(rng, n, 4)
            edges = rng.choice(naive_enumerate_ncpm(ps)).edges
        # a full and a partial matching
        for m in (Matching(ps, edges), Matching(ps, sorted(edges)[1:])):
            for minus_m in (False, True):
                assert visibility_graph(m, minus_m) == naive_visibility_graph(m, minus_m)


def test_blocked_test_agrees_with_the_coordinate_predicate():
    # on grid sets, where collinear overlaps and T-contacts are common,
    # against segments_cross_coords on the Fraction coordinates
    from geomatch.oracle import _blocked_test

    rng = Random(61)
    for _ in range(20):
        ps = grid_pointset(rng, rng.choice([4, 6, 8]), 4)
        edges = rng.choice(naive_enumerate_ncpm(ps)).edges
        for m_edges in (edges, sorted(edges)[1:]):
            blocked = _blocked_test(ps, m_edges)
            for u in ps.ids:
                for v in range(u + 1, len(ps)):
                    want = any(
                        s != Segment(u, v)
                        and segments_cross_coords(
                            ps.coord(u), ps.coord(v), ps.coord(s.a), ps.coord(s.b)
                        )
                        for s in m_edges
                    )
                    assert blocked(u, v) == want, (u, v)


def test_visibility_minus_m_has_perfect_matching():
    rng = Random(8)
    for _ in range(15):
        n = rng.choice([2, 4, 6])
        ps = random_general_pointset(rng, 2 * n)
        m = Matching(ps, random_ncpm_edges(ps, rng), check=False)
        g = visibility_graph(m, minus_m=True)
        assert brute_pm_exists(g.n, g.pairs)
