"""Extension engine: ray stops, cell structure, dual multigraph."""

from fractions import Fraction
from random import Random

import pytest

from geomatch.errors import (
    DegenerateIncidence,
    GeomatchError,
    SegmentOutsideRegionRule,
)
from geomatch.geom_core import BoundingBox, ConvexPolygon, Matching, PointSet, Segment
from geomatch.orientation import components
from geomatch.subdivision import EndpointRole, both_ways_rays, dual_multigraph, extend

from helpers import random_general_pointset, random_ncpm_edges, replay_extensions


def test_single_segment_both_directions():
    ps = PointSet.from_coords([(-1, 0), (1, 0)])
    m = Matching(ps, [Segment(0, 1)])
    box = BoundingBox(-2, -2, 2, 2)
    geo, sub = extend(m, box, both_ways_rays([Segment(0, 1)]))

    assert len(geo.rays) == 2
    termini = {r.terminus for r in geo.rays}
    assert termini == {(Fraction(-2), Fraction(0)), (Fraction(2), Fraction(0))}
    assert all(r.went_to_infinity for r in geo.rays)

    assert len(sub.cells) == 2
    assert sum(c.area2() for c in sub.cells) == box.polygon().area2()
    # the left cell (looking from (-1,0) to (1,0)) is the upper half
    upper = next(i for i, c in enumerate(sub.cells) if c.contains((0, 1), strict=True))
    lower = 1 - upper
    assert sub.vertex_cells[0] == (upper, lower)
    assert sub.vertex_cells[1] == (upper, lower)

    dual = dual_multigraph(sub, m)
    assert dual.n == 2
    assert len(dual.edges) == 2
    assert {e.cells for e in dual.edges} == {(upper, lower)}
    assert {e.role for e in dual.edges} == {EndpointRole.LEFT_END, EndpointRole.RIGHT_END}


def test_vertical_segment_roles():
    ps = PointSet.from_coords([(0, -1), (0, 1)])
    m = Matching(ps, [Segment(0, 1)])
    _, sub = extend(m, BoundingBox(-2, -2, 2, 2), both_ways_rays([Segment(0, 1)]))
    dual = dual_multigraph(sub, m)
    roles = {e.vertex: e.role for e in dual.edges}
    assert roles == {0: EndpointRole.BOTTOM_END, 1: EndpointRole.TOP_END}


def test_mixed_region_counts():
    # s0 fully inside the square region, s1 pokes out through the right wall
    ps = PointSet.from_coords([(2, 2), (4, 5), (7, 3), (13, 4)])
    m = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    region = ConvexPolygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    rays = [(Segment(0, 1), 0), (Segment(0, 1), 1), (Segment(2, 3), 2)]
    geo, sub = extend(m, region, rays)
    assert len(geo.rays) == 3
    assert not any(r.went_to_infinity for r in geo.rays)  # region is a real polygon
    assert len(sub.cells) == 3  # |M1| + |M2| + 1 = 1 + 1 + 1
    assert sorted(sub.vertex_cells) == [0, 1, 2]  # vertex 3 is outside
    dual = dual_multigraph(sub, m)
    assert dual.n == 3 and len(dual.edges) == 3
    assert len(components(dual.graph())) == 1


def test_segment_crossing_region_without_endpoint_inside():
    ps = PointSet.from_coords([(2, 2), (4, 5), (-5, 8), (15, 9)])
    m = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    region = ConvexPolygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    with pytest.raises(SegmentOutsideRegionRule):
        extend(m, region, both_ways_rays([Segment(0, 1), Segment(2, 3)]))


def test_ray_validation_errors():
    ps = PointSet.from_coords([(2, 2), (4, 5), (7, 3), (13, 4), (20, 20), (24, 21)])
    m = Matching(ps, [Segment(0, 1), Segment(2, 3), Segment(4, 5)])
    region = ConvexPolygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    s01, s23, s45 = Segment(0, 1), Segment(2, 3), Segment(4, 5)
    both01 = [(s01, 0), (s01, 1)]
    with pytest.raises(GeomatchError, match="fully extend"):  # s23 not covered
        extend(m, region, both01)
    with pytest.raises(GeomatchError, match="not an endpoint"):  # 3 is outside
        extend(m, region, both01 + [(s23, 3)])
    with pytest.raises(GeomatchError, match="not an endpoint"):  # 2 is not on s01
        extend(m, region, both01 + [(s23, 2), (s01, 2)])
    with pytest.raises(GeomatchError, match="not in the region"):
        extend(m, region, both01 + [(s23, 2), (s45, 4)])
    with pytest.raises(GeomatchError, match="twice"):
        extend(m, region, both01 + [(s23, 2), (s01, 0)])
    with pytest.raises(GeomatchError, match="twice"):  # also when partial
        extend(m, region, [(s23, 2), (s23, 2)], partial=True)
    geo, sub = extend(m, region, both01 + [(s23, 2)])
    assert len(geo.rays) == 3 and len(sub.cells) == 3


def test_extend_places_rays_in_list_order():
    rng = Random(8)
    ps = random_general_pointset(rng, 10)
    m = Matching(ps, random_ncpm_edges(ps, rng), check=False)
    box = BoundingBox.around(ps)
    for _ in range(4):
        rays = both_ways_rays(m.sorted_edges())
        rng.shuffle(rays)
        geo, sub = extend(m, box, rays)
        assert [(r.segment, r.from_point) for r in geo.rays] == rays
        assert len(sub.cells) == len(m) + 1
        replay = replay_extensions(m, box.polygon(), geo)
        for ray, (terminus, _) in zip(geo.rays, replay):
            assert ray.terminus == terminus


def test_ray_through_foreign_vertex_aborts():
    # the rightward extension of segment 0-1 runs straight into vertex 2
    ps = PointSet.from_coords([(0, 0), (2, 0), (5, 0), (6, 3)])
    m = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    with pytest.raises(DegenerateIncidence):
        extend(
            m,
            BoundingBox.around(ps),
            both_ways_rays([Segment(0, 1), Segment(2, 3)]),
        )


def test_collinear_segments_abort():
    ps = PointSet.from_coords([(0, 0), (1, 0), (3, 0), (4, 0)])
    m = Matching(ps, [Segment(0, 1), Segment(2, 3)])
    with pytest.raises(DegenerateIncidence):
        extend(
            m,
            BoundingBox.around(ps),
            both_ways_rays([Segment(0, 1), Segment(2, 3)]),
        )


def test_partial_extension_left_rays_only():
    rng = Random(11)
    ps = random_general_pointset(rng, 8)
    m = Matching(ps, random_ncpm_edges(ps, rng), check=False)
    rays = [
        (s, s.a if ps.coord(s.a) < ps.coord(s.b) else s.b) for s in m.sorted_edges()
    ]
    geo, sub = extend(m, BoundingBox.around(ps), rays, partial=True)
    assert sub is None
    assert len(geo.rays) == 4
    replay = replay_extensions(m, BoundingBox.around(ps).polygon(), geo)
    for ray, (terminus, _) in zip(geo.rays, replay):
        assert ray.terminus == terminus


def test_random_runs_match_independent_replay():
    rng = Random(404)
    for _ in range(12):
        n = rng.choice([2, 3, 4, 5, 6])
        ps = random_general_pointset(rng, 2 * n)
        m = Matching(ps, random_ncpm_edges(ps, rng), check=False)
        box = BoundingBox.around(ps)
        order = m.sorted_edges()
        rng.shuffle(order)
        geo, sub = extend(m, box, both_ways_rays(order))
        replay = replay_extensions(m, box.polygon(), geo)
        assert len(sub.cells) == n + 1
        for ray, (terminus, hit_boundary) in zip(geo.rays, replay):
            assert ray.terminus == terminus
            assert ray.went_to_infinity == hit_boundary


def test_counts_are_order_invariant():
    rng = Random(2718)
    ps = random_general_pointset(rng, 10)
    m = Matching(ps, random_ncpm_edges(ps, rng), check=False)
    box = BoundingBox.around(ps)
    seen = set()
    for _ in range(6):
        order = m.sorted_edges()
        rng.shuffle(order)
        geo, sub = extend(m, box, both_ways_rays(order))
        dual = dual_multigraph(sub, m)
        seen.add((len(sub.cells), dual.n, len(dual.edges)))
        assert len(components(dual.graph())) == 1
    assert seen == {(6, 6, 10)}


def test_halfplane_style_region_with_cut_segments():
    rng = Random(99)
    for _ in range(8):
        ps = random_general_pointset(rng, 10)
        m = Matching(ps, random_ncpm_edges(ps, rng), check=False)
        xs = sorted(p.x for p in ps)
        cut = (xs[4] + xs[5]) / 2
        box = BoundingBox.around(ps)
        region = box.polygon().clip_halfplane(Fraction(1), Fraction(0), cut, keep=-1)
        rays = [(s, i) for s in m.sorted_edges() for i in s.ids if ps.coord(i)[0] < cut]
        geo, sub = extend(m, region, rays)
        assert len(sub.cells) == len({s for s, _ in rays}) + 1
        dual = dual_multigraph(sub, m)
        assert len(dual.edges) == len(sub.vertex_cells)
        assert len(components(dual.graph())) == 1
        replay = replay_extensions(m, region, geo)
        for ray, (terminus, _) in zip(geo.rays, replay):
            assert ray.terminus == terminus


def test_no_segments_in_region_gives_one_cell():
    ps = PointSet.from_coords([(20, 20), (24, 21)])
    m = Matching(ps, [Segment(0, 1)])
    region = ConvexPolygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    geo, sub = extend(m, region, [])
    assert geo.rays == ()
    assert len(sub.cells) == 1
    assert sub.vertex_cells == {}
    dual = dual_multigraph(sub, m)
    assert dual.n == 1 and dual.edges == ()
