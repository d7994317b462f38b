"""Output-hash dump of the public constructions on fixed instances.

Records the text of every instance (``fileio.dump_instance`` and the
coordinates in id order) and ``validate_general_position`` on its points,
with the triple it names on the grids.  Runs ``transform``,
``four_fifths_matching``, ``crossings_matchings``,
``chc_disjoint_matching``, ``hv_disjoint_matching``, ``two_trees_search``
(two extension orders), ``has_disjoint_compatible_pm``, ``enumerate_ncpm``
and ``visibility_graph``, and the sha256 of the SVG with every layer
(``svg_render.render_matching``), on fixed seeds: random general-position
matchings, axis-parallel and convex-hull-connected ones, the odd
counterexample families and matchings of small integer grids (collinear
points, vertical segments).  On the same
matchings it records the region geometry that those results hide:
``subdivision.extend`` (every ray terminus and ``went_to_infinity``, every
cell corner and ``vertex_cells``) on the box around the points and on that
box cut by a vertical line, and ``halfplane_matching`` on each side of an
oblique line (which shears the points so that the line becomes vertical).
Each result, or each ``GeomatchError`` as class and message, is one record;
the script prints ``<records> <sha256>`` over all of them.  Two trees that
print the same line give the same outputs and raise the same errors on these
inputs, which is how a refactor shows that it changed no behaviour::

    python tests/output_dump.py               # the instances as generated
    python tests/output_dump.py --scale 1/3   # every coordinate times 1/3
    python tests/output_dump.py --records     # one record per line as well
    python tests/output_dump.py --check       # exit 1 unless the line is pinned

``output_dump.expected`` pins the line for scales 1, 1/3 and 5/11, each
after its scale; ``--check`` compares the printed line with the one pinned
for its scale.  A change that alters an output on purpose updates that file
and says which records moved.  A scale whose denominator does not divide
the coordinates gives point sets whose integer frame (``PointSet._scale``)
is greater than one.  Pytest does not collect this file;
``test_output_dump.py`` checks the line for scale 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from geomatch import algorithms, fileio, oracle, subdivision, svg_render  # noqa: E402
from geomatch.algorithms import Flavor  # noqa: E402
from geomatch.errors import GeomatchError  # noqa: E402
from geomatch.geom_core import (  # noqa: E402
    BoundingBox,
    Matching,
    PointSet,
    Segment,
    validate_general_position,
)
from helpers import box_strictly_contains, random_ncpm_edges  # noqa: E402

SEEDS = range(10)
EXPECTED = Path(__file__).with_name("output_dump.expected")


def plain(obj):
    """A repr-stable form of a result: matchings as sorted id pairs."""
    if isinstance(obj, Matching):
        return sorted(s.ids for s in obj.edges)
    if isinstance(obj, Segment):
        return obj.ids
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(plain(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [
            plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        ]
    return obj


def scaled(m: Matching, scale: Fraction) -> Matching:
    ps = PointSet.from_coords((p.x * scale, p.y * scale) for p in m.base)
    return Matching(ps, m.edges, check=False)


def instances():
    """(name, matching, second matching on the same points or None)."""
    for seed in SEEDS:
        for n in (2, 4, 6, 8, 10):
            m = algorithms.gen_random_matching(n, seed)
            rng = Random(f"dump:{n}:{seed}")
            other = Matching(m.base, random_ncpm_edges(m.base, rng))
            yield f"general:{n}:{seed}", m, other
        for n in (2, 3, 4, 6, 8):
            yield f"axis:{n}:{seed}", algorithms.gen_random_matching(n, seed, Flavor.AXIS_PARALLEL), None
            yield f"chc:{n}:{seed}", algorithms.gen_random_matching(n, seed, Flavor.CHC), None
    for k in (1, 2, 3, 4):
        yield f"chords:{k}", algorithms.gen_parallel_chords(k), None
    for n in (1, 2):
        yield f"odd:{n}", algorithms.gen_general_odd(n), None
    rng = Random("dump:grid")
    for trial in range(80):
        n = rng.choice([4, 6, 8])
        cells = sorted({(rng.randrange(8), rng.randrange(4)) for _ in range(3 * n)})
        ps = PointSet.from_coords(rng.sample(cells, min(n, len(cells)) // 2 * 2))
        catalog = oracle.enumerate_ncpm(ps)
        m = catalog[rng.randrange(len(catalog))]
        yield f"grid:{trial}", m, catalog[rng.randrange(len(catalog))]


def extension(m: Matching, cut):
    """``extend`` on the box around the points, or on the box cut by the
    vertical line ``(a, 0, c, keep)``, with a ray beyond every endpoint inside."""
    region = BoundingBox.around(m.base)
    if cut is not None:
        region = region.clip_halfplane(*cut)
    rays = [
        (s, i) for s in m.sorted_edges() for i in s.ids
        if box_strictly_contains(region, m.base.coord(i))
    ]
    geo, sub = subdivision.extend(m, region, rays)
    return [
        [(r.terminus, r.went_to_infinity) for r in geo.rays],
        [c.vertices for c in sub.cells],
        sorted(sub.vertex_cells.items()),
    ]


def outcomes(m: Matching, other):
    def four_fifths():
        r = algorithms.four_fifths_matching(m)
        return [r.matching, r.n, r.guarantee, r.achieved, r.odd_components, r.colored]

    calls = {
        "instance": lambda: [fileio.dump_instance(m), [p.coord for p in m.base]],
        "validate_general_position": lambda: validate_general_position(m.base),
        "four_fifths_matching": four_fifths,
        "crossings_matchings": lambda: algorithms.crossings_matchings(m),
        "chc_disjoint_matching": lambda: algorithms.chc_disjoint_matching(m),
        "hv_disjoint_matching": lambda: algorithms.hv_disjoint_matching(m),
        "two_trees_search": lambda: algorithms.two_trees_search(m, max_orders=2),
        "svg": lambda: hashlib.sha256(
            svg_render.render_matching(m, svg_render.LAYERS).encode()
        ).hexdigest(),
        "has_disjoint_compatible_pm": lambda: oracle.has_disjoint_compatible_pm(m),
        "visibility_graph": lambda: [oracle.visibility_graph(m, f) for f in (False, True)],
    }
    # a vertical and a steep oblique line near the middle of the points
    mid = sorted(p.x for p in m.base)[len(m.base) // 2]
    vertical = (1, 0, mid + Fraction(1, 3))
    oblique = (Fraction(2), Fraction(-1, 5), 2 * mid + Fraction(1, 3))
    calls["extend:box"] = lambda: extension(m, None)
    for keep in (1, -1):
        calls[f"extend:vertical:{keep}"] = lambda keep=keep: extension(m, (*vertical, keep))
        calls[f"halfplane_matching:oblique:{keep}"] = lambda keep=keep: (
            algorithms.halfplane_matching(m, oblique, keep)
        )
    if other is not None:
        calls["transform"] = lambda: algorithms.transform(m, other)
    if len(m.base) <= 12:
        calls["enumerate_ncpm"] = lambda: oracle.enumerate_ncpm(m.base)
    for name, call in calls.items():
        try:
            got = plain(call())
        except GeomatchError as exc:
            got = ["error", type(exc).__name__, str(exc)]
        yield name, got


def records(scale: Fraction):
    for name, m, other in instances():
        if scale != 1:
            m = scaled(m, scale)
            other = None if other is None else scaled(other, scale)
        for call, got in outcomes(m, other):
            yield f"{name} {call} {got!r}"


def summary(scale: Fraction, show: bool = False) -> str:
    """``<records> <sha256>`` over every record at ``scale``; with ``show``
    each record is printed as well."""
    digest = hashlib.sha256()
    count = 0
    for rec in records(scale):
        if show:
            print(rec)
        digest.update(rec.encode() + b"\n")
        count += 1
    return f"{count} {digest.hexdigest()}"


def expected(scale: Fraction) -> str | None:
    """The line pinned for ``scale`` in ``output_dump.expected``, if any."""
    for line in EXPECTED.read_text().splitlines():
        key, _, pinned = line.partition(" ")
        if key and not key.startswith("#") and Fraction(key) == scale:
            return pinned
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=Fraction, default=Fraction(1),
                        help="multiply every coordinate by this rational first")
    parser.add_argument("--records", action="store_true",
                        help="print every record before the summary line")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the line equals the one pinned for this scale")
    args = parser.parse_args(argv)
    line = summary(args.scale, args.records)
    print(line)
    if args.check:
        pinned = expected(args.scale)
        if line != pinned:
            want = "no line" if pinned is None else repr(pinned)
            print(f"error: {EXPECTED.name} pins {want} for scale {args.scale}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
