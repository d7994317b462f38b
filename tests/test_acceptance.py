"""End-to-end acceptance battery: one test per shipped guarantee.

Every test pins a wall-clock budget and uses fixed seeds, exact arithmetic
and zero tolerances, so a failure here is a real regression rather than
flakiness.  Run with ``-v`` to get one pass/fail line per guarantee and
with ``-s`` to see the per-criterion summary lines.
"""

import math
import time
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

from geomatch.algorithms import (
    BLUE,
    GREEN,
    RED,
    Flavor,
    chc_disjoint_matching,
    crossings_matchings,
    four_fifths_matching,
    gen_general_odd,
    gen_parallel_chords,
    gen_random_matching,
    hv_disjoint_matching,
    is_convex_hull_connected,
    transform,
)
from geomatch.fileio import dump_instance
from geomatch.geom_core import (
    Matching,
    PointSet,
    compatible,
    disjoint,
    segments_cross,
)
from geomatch.oracle import (
    enumerate_ncpm,
    has_disjoint_compatible_pm,
    transformation_distance,
    visibility_graph,
)
from geomatch.orientation import (
    Multigraph,
    components,
    even_orientation,
)

from helpers import (
    brute_even_orientations,
    is_even,
    random_general_pointset,
    random_multigraph,
    random_ncpm_edges,
    random_tree,
    tree_even_orientation,
)


def random_perfect_pair(rng: Random, n_segments: int):
    """Two random non-crossing perfect matchings on one point set."""
    ps = random_general_pointset(rng, 2 * n_segments)
    m1 = Matching(ps, random_ncpm_edges(ps, rng))
    m2 = Matching(ps, random_ncpm_edges(ps, rng))
    return m1, m2


def has_vertical_edge(m: Matching) -> bool:
    ps = m.base
    return any(ps.coord(e.a)[0] == ps.coord(e.b)[0] for e in m.edges)


def is_spanning_tree(g: Multigraph) -> bool:
    return len(g.edges) == g.n - 1 and len(components(g)) == 1


def all_small_multigraphs(max_n, max_m):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for m in range(0, max_m + 1):
            for combo in combinations_with_replacement(pairs, m):
                yield Multigraph(n, list(combo))


def test_criterion_01_transform_length_bound():
    rng = Random("acceptance-1")
    start = time.perf_counter()
    pairs = 0
    for n in (2, 4, 8, 16, 32, 64):
        bound = 2 * math.ceil(math.log2(n))
        for _ in range(100):
            m1, m2 = random_perfect_pair(rng, n)
            seq = transform(m1, m2)
            assert seq.source == m1 and seq.target == m2
            assert seq.length <= bound
            for a, b in zip(seq.matchings, seq.matchings[1:]):
                assert compatible(a, b)
            pairs += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 1: {pairs} pairs within 2*ceil(log2 n) steps, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_oracle_distance_consistency():
    rng = Random("acceptance-2")
    start = time.perf_counter()
    for i in range(50):
        m1, m2 = random_perfect_pair(rng, 2 + i % 3)
        assert transformation_distance(m1, m2) <= transform(m1, m2).length
    elapsed = time.perf_counter() - start
    print(f"criterion 2: 50 pairs, BFS distance never beaten, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_03_axis_parallel_trees_and_assembly():
    rng = Random("acceptance-3")
    start = time.perf_counter()
    parities = set()
    for _ in range(200):
        n = rng.randint(1, 50)
        parities.add(n % 2)
        m = gen_random_matching(n, rng.randrange(2**32), Flavor.AXIS_PARALLEL)
        out, colored = hv_disjoint_matching(m)
        assert colored.dual.n == n + 1
        for color in (RED, GREEN):
            assert is_spanning_tree(colored.subgraph(color))
        if n % 2 == 0:
            assert out is not None and out.is_perfect
            assert disjoint(m, out) and compatible(m, out)
        else:
            assert out is None
    assert parities == {0, 1}
    elapsed = time.perf_counter() - start
    print(f"criterion 3: 200 axis-parallel instances, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_04_four_fifths_guarantee():
    rng = Random("acceptance-4")
    start = time.perf_counter()
    done = skipped = 0
    while done < 200:
        n = 2 * rng.randint(1, 25)
        m = gen_random_matching(n, rng.randrange(2**32), Flavor.GENERAL)
        if has_vertical_edge(m):  # left/right roles need distinct edge x-spans
            skipped += 1
            continue
        rep = four_fifths_matching(m)
        assert is_spanning_tree(rep.colored.subgraph(BLUE))
        assert disjoint(m, rep.matching) and compatible(m, rep.matching)
        assert rep.achieved == len(rep.matching) >= rep.guarantee
        assert rep.guarantee == -(-(4 * n - 1) // 5)
        assert 5 * rep.odd_components <= 2 * (n + 1)
        done += 1
    assert skipped <= 20
    elapsed = time.perf_counter() - start
    print(f"criterion 4: 200 even instances hit the 4/5 bound, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_05_hull_connected_matchings():
    rng = Random("acceptance-5")
    start = time.perf_counter()
    for _ in range(100):
        n = 2 * rng.randint(1, 10)
        m = gen_random_matching(n, rng.randrange(2**32), Flavor.CHC)
        assert is_convex_hull_connected(m)
        out = chc_disjoint_matching(m)
        assert out.is_perfect
        assert disjoint(m, out) and compatible(m, out)
    elapsed = time.perf_counter() - start
    print(f"criterion 5: 100 hull-connected instances solved, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_06_odd_counterexamples():
    start = time.perf_counter()
    for k in (1, 3, 5):
        found, _ = has_disjoint_compatible_pm(gen_parallel_chords(k))
        assert not found, f"{k} parallel chords must admit no disjoint partner"
    for n in (1, 2):
        found, _ = has_disjoint_compatible_pm(gen_general_odd(n))
        assert not found, f"general-position family at n={n} must admit none"
    m4 = gen_parallel_chords(4)
    found, witness = has_disjoint_compatible_pm(m4)
    assert found and witness is not None and witness.is_perfect
    assert disjoint(m4, witness) and compatible(m4, witness)
    elapsed = time.perf_counter() - start
    print(f"criterion 6: odd families exhaustively refuted, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_07_even_orientation_characterization():
    start = time.perf_counter()
    exhaustive = 0
    for g in all_small_multigraphs(4, 6):
        even_components = all(len(eids) % 2 == 0 for _, eids in components(g))
        brute = brute_even_orientations(g.n, g.edges)
        o = even_orientation(g)
        assert (o is not None) == even_components == bool(brute)
        if o is not None:
            assert is_even(o)
        exhaustive += 1
    rng = Random("acceptance-7")
    for _ in range(1000):
        g = random_multigraph(rng)
        even_components = all(len(eids) % 2 == 0 for _, eids in components(g))
        o = even_orientation(g)
        assert (o is not None) == even_components
        if o is not None:
            assert is_even(o)
    for _ in range(60):
        tree = random_tree(rng, 2 * rng.randint(1, 5))
        brute = brute_even_orientations(tree.n, tree.edges)
        assert len(brute) == 1, "an even tree orients evenly in exactly one way"
        assert tree_even_orientation(tree).heads == brute[0]
    elapsed = time.perf_counter() - start
    print(f"criterion 7: {exhaustive} exhaustive + 1060 random graphs, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_08_left_right_crossings():
    rng = Random("acceptance-8")
    start = time.perf_counter()
    done = skipped = 0
    while done < 100:
        n = 2 * rng.randint(1, 10)
        m = gen_random_matching(n, rng.randrange(2**32), Flavor.GENERAL)
        if has_vertical_edge(m):
            skipped += 1
            continue
        ps = m.base
        m_l, m_r = crossings_matchings(m)
        union = sorted(m_l.edges) + sorted(m_r.edges)
        for e in m.sorted_edges():
            for f in union:
                assert not segments_cross(ps, e, f)
        covered = sorted(i for f in union for i in f.ids)
        assert covered == sorted(ps.ids)  # a perfect pairing of the vertices
        vis = visibility_graph(m, minus_m=True)
        for f in union:
            assert tuple(sorted(f.ids)) in vis.pairs
        done += 1
    assert skipped <= 20
    elapsed = time.perf_counter() - start
    print(f"criterion 8: 100 instances, halves never cross the input, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_09_catalan_enumeration():
    start = time.perf_counter()
    for m in range(1, 7):
        pts = PointSet.from_coords([(i, i * i) for i in range(2 * m)])
        catalog = enumerate_ncpm(pts)
        assert len(catalog) == math.comb(2 * m, m) // (m + 1)
    elapsed = time.perf_counter() - start
    print(f"criterion 9: convex enumeration matches Catalan numbers, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_10_conjecture_probe():
    rng = Random("acceptance-10")
    start = time.perf_counter()
    for _ in range(500):
        n = 2 * rng.randint(1, 3)
        m = gen_random_matching(n, rng.randrange(2**32), Flavor.GENERAL)
        found, _ = has_disjoint_compatible_pm(m)
        if not found:
            # stop everything: this would be a research-grade counterexample
            pytest.exit(
                "even matching without a disjoint compatible partner:\n"
                + dump_instance(m),
                returncode=3,
            )
    elapsed = time.perf_counter() - start
    print(f"criterion 10: 500 even instances all admit a partner, {elapsed:.1f}s")
