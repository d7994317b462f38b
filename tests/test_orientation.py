"""Even-orientation machinery, validated against 2^|E| brute enumeration."""

from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

from geomatch.errors import GeomatchError, OddComponentInPart
from geomatch.orientation import (
    Multigraph,
    components,
    count_odd_components,
    even_orientation,
    orientation_from_partition,
    prune_odd_components,
)

from helpers import (
    NotATree,
    OddTree,
    brute_even_orientations,
    indegrees,
    is_even,
    random_multigraph,
    random_tree,
    tree_even_orientation,
    two_pass_even_orientation,
)


def all_small_multigraphs(max_n, max_m):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for m in range(0, max_m + 1):
            for combo in combinations_with_replacement(pairs, m):
                yield Multigraph(n, list(combo))


def test_multigraph_rejects_loops():
    with pytest.raises(GeomatchError):
        Multigraph(3, [(1, 1)])


def _fresh_adjacency(g):
    adj = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    return adj


def test_adjacency_is_built_once_and_shared():
    # components and even_orientation read one cached adjacency; their
    # results must be those on a graph that never built it, in any order
    rng = Random(77)
    for _ in range(200):
        g = random_multigraph(rng, max_n=9, max_m=14)
        adj = g.adjacency()
        assert adj == _fresh_adjacency(g)
        assert g.adjacency() is adj and all(a is b for a, b in zip(g.adjacency(), adj))
        orient = even_orientation(g)
        comps = components(g)
        fresh = Multigraph(g.n, g.edges)
        fresh_comps = components(fresh)
        fresh_orient = even_orientation(fresh)
        assert comps == fresh_comps == components(g)
        assert (orient is None) == (fresh_orient is None)
        if orient is not None:
            assert orient.heads == fresh_orient.heads == even_orientation(g).heads
        assert g.adjacency() is adj and adj == _fresh_adjacency(g)


def test_one_search_per_component_matches_the_two_pass_reference():
    # the same heads (or None for both) as listing the components first and
    # searching each again; the seeded graphs must include every shape below
    rng = Random(1717)
    shapes = {"parallel": 0, "isolated": 0, "several": 0, "odd": 0, "even": 0}
    for _ in range(600):
        g = random_multigraph(rng, max_n=9, max_m=14)
        got, ref = even_orientation(g), two_pass_even_orientation(g)
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.heads == ref.heads and is_even(got)
        comps = components(g)
        shapes["parallel"] += len(set(map(frozenset, g.edges))) < len(g.edges)
        shapes["isolated"] += any(len(verts) == 1 for verts, _ in comps)
        shapes["several"] += sum(len(eids) > 0 for _, eids in comps) > 1
        shapes["odd"] += ref is None
        shapes["even"] += ref is not None and len(g.edges) > 0
    assert min(shapes.values()) >= 20, shapes


def test_parallel_pair_both_heads_agree():
    g = Multigraph(2, [(0, 1), (0, 1)])
    o = even_orientation(g)
    assert o is not None and is_even(o)
    assert o.heads[0] == o.heads[1]


def test_single_edge_has_no_even_orientation():
    assert even_orientation(Multigraph(2, [(0, 1)])) is None


def test_exhaustive_small_graphs_match_brute_force():
    for g in all_small_multigraphs(3, 4):
        o = even_orientation(g)
        brute = brute_even_orientations(g.n, g.edges)
        if brute:
            assert o is not None
            assert o.heads in brute
            assert sum(indegrees(o)) == len(g.edges)
        else:
            assert o is None


def test_random_graphs_succeed_iff_all_components_even():
    rng = Random(2024)
    for _ in range(300):
        g = random_multigraph(rng, max_n=9, max_m=16)
        o = even_orientation(g)
        odd = count_odd_components(g)
        if odd == 0:
            assert o is not None and is_even(o)
        else:
            assert o is None


def test_tree_path_points_into_center():
    t = Multigraph(3, [(0, 1), (1, 2)])
    o = tree_even_orientation(t)
    assert o.heads == (1, 1)


def test_tree_star_points_inward():
    t = Multigraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    o = tree_even_orientation(t)
    assert o.heads == (0, 0, 0, 0)


def test_tree_orientation_is_the_unique_even_one():
    rng = Random(7)
    for _ in range(60):
        t = random_tree(rng, rng.choice([2, 4, 6, 8, 10]))
        brute = brute_even_orientations(t.n, t.edges)
        assert len(brute) == 1
        assert tree_even_orientation(t).heads == brute[0]


def test_tree_orientation_rejects_non_trees():
    with pytest.raises(NotATree):
        tree_even_orientation(Multigraph(3, [(0, 1), (1, 2), (2, 0)]))
    with pytest.raises(NotATree):
        tree_even_orientation(Multigraph(4, [(0, 1), (2, 3), (0, 1)]))
    with pytest.raises(OddTree):
        tree_even_orientation(Multigraph(4, [(0, 1), (1, 2), (2, 3)]))


def test_partition_parallel_edges_two_plus_two():
    g = Multigraph(2, [(0, 1)] * 4)
    o = orientation_from_partition(g, {0: "a", 1: "a", 2: "b", 3: "b"})
    assert is_even(o)
    assert o.heads[0] == o.heads[1] and o.heads[2] == o.heads[3]


def test_partition_four_cycle_opposite_pairs_fails():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(OddComponentInPart) as exc:
        orientation_from_partition(g, {0: "a", 2: "a", 1: "b", 3: "b"})
    assert exc.value.part in ("a", "b")


def test_partition_must_cover_all_edges():
    g = Multigraph(2, [(0, 1), (0, 1)])
    with pytest.raises(GeomatchError):
        orientation_from_partition(g, {0: "a"})


def test_partition_indegree_two_comes_from_one_part():
    rng = Random(99)
    trials = 0
    while trials < 40:
        a = prune_odd_components(random_multigraph(rng, 6, 8))[0]
        b = prune_odd_components(random_multigraph(rng, 6, 8))[0]
        if not a.edges or not b.edges:
            continue
        trials += 1
        n = max(a.n, b.n)
        edges = list(a.edges) + list(b.edges)
        g = Multigraph(n, edges)
        part = {i: ("a" if i < len(a.edges) else "b") for i in range(len(edges))}
        o = orientation_from_partition(g, part)
        assert is_even(o)
        indeg = indegrees(o)
        for v in range(n):
            if indeg[v] == 2:
                labels = {part[eid] for eid, h in enumerate(o.heads) if h == v}
                assert len(labels) == 1


def test_count_odd_components():
    assert count_odd_components(Multigraph(2, [(0, 1)])) == 1
    triangle_plus_isolated = Multigraph(4, [(0, 1), (1, 2), (2, 0)])
    assert count_odd_components(triangle_plus_isolated) == 1
    assert count_odd_components(Multigraph(3, [])) == 0


def test_prune_single_edge():
    pruned, removed = prune_odd_components(Multigraph(2, [(0, 1)]))
    assert removed == [0]
    assert pruned.edges == ()


def test_prune_triangle_removes_one_cycle_edge():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    pruned, removed = prune_odd_components(g)
    assert len(removed) == 1
    assert count_odd_components(pruned) == 0
    assert len(pruned.edges) == 2


def test_prune_prefers_leaf_edges():
    # odd path: ends are leaves, so a leaf edge goes, not the middle one
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    _, removed = prune_odd_components(g)
    assert removed == [0]


def test_prune_random_graphs_leaves_no_odd_component():
    rng = Random(31337)
    for _ in range(200):
        g = random_multigraph(rng, 8, 12)
        f = count_odd_components(g)
        pruned, removed = prune_odd_components(g)
        assert len(removed) == f
        assert count_odd_components(pruned) == 0
        assert len(pruned.edges) == len(g.edges) - f


def test_even_orientation_after_pruning_always_works():
    rng = Random(4)
    for _ in range(100):
        pruned, _ = prune_odd_components(random_multigraph(rng, 7, 11))
        o = even_orientation(pruned)
        assert o is not None and is_even(o)
