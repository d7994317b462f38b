"""Command-line interface.

Subcommands: ``validate`` (check an instance file), ``run`` (execute an
algorithm), ``gen`` (produce instances), ``render`` (SVG pictures).

Exit codes: 0 success, 1 validation or precondition failure, 2 parse
error, 3 internal assertion failure.
"""

import argparse
import math
import sys
from pathlib import Path

from . import algorithms, fileio, svg_render
from .errors import GeomatchError, InvariantViolation, ParseError
from .geom_core import (
    Matching,
    Segment,
    compatible,
    disjoint,
    validate_general_position,
)
from .oracle import has_disjoint_compatible_pm, transformation_distance
from .orientation import Multigraph, components

ORACLE_POINT_LIMIT = 12


def _write_or_print(text: str, out, what: str) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(text)


def _render_input_svg(m: Matching, path) -> None:
    svg = svg_render.render_matching(m, layers=svg_render.LAYERS)
    Path(path).write_text(svg)
    print(f"wrote rendering to {path}")


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    m = fileio.load_instance(args.input)
    validate_general_position(m.base)
    print(f"{args.input}: {len(m)} segments, perfect, non-crossing")
    return 0


# ---------------------------------------------------------------------------
# run


def _rebase(m: Matching, ps) -> Matching:
    """The same matching, re-indexed onto ``ps`` by coordinates.

    Instance files list points in segment order, so two files over one
    point set rarely agree on ids.
    """
    by_coord = {ps.coord(i): i for i in ps.ids}
    edges = []
    for e in m.sorted_edges():
        try:
            edges.append(
                Segment(by_coord[m.base.coord(e.a)], by_coord[m.base.coord(e.b)])
            )
        except KeyError as exc:
            raise GeomatchError(
                f"point {exc.args[0]} of the second instance is not in the first"
            ) from None
    return Matching(ps, edges)


def _run_transform(args) -> int:
    if not args.input2:
        raise GeomatchError("transform needs two instance files")
    m1 = fileio.load_instance(args.input)
    m2 = fileio.load_instance(args.input2)
    if len(m1.base) != len(m2.base):
        raise GeomatchError("the two instances use different point sets")
    m2 = _rebase(m2, m1.base)
    ps = m1.base
    seq = algorithms.transform(m1, m2)
    n = len(m1)
    bound = 2 * math.ceil(math.log2(n)) if n > 1 else 0
    print(f"transformation of length {seq.length} (bound {bound}) on {n} segments")
    if args.verify:
        if seq.source != m1 or seq.target != m2:
            raise InvariantViolation("the transformation does not join the two inputs")
        print("verify: endpoints match, every step compatible")
    if args.oracle:
        if len(ps) <= ORACLE_POINT_LIMIT:
            d = transformation_distance(m1, m2)
            if d > seq.length:
                raise InvariantViolation(f"oracle distance {d} > length {seq.length}")
            print(f"oracle: exact distance {d} <= length {seq.length}")
        else:
            print(f"oracle: skipped ({len(ps)} points > {ORACLE_POINT_LIMIT})")
    if args.out:
        fileio.save_sequence(seq, args.out)
        print(f"wrote sequence to {args.out}")
    if args.svg:
        pages = svg_render.render_sequence(seq)
        for k, page in enumerate(pages):
            path = _step_path(args.svg, k)
            Path(path).write_text(page)
        print(f"wrote {len(pages)} step renderings next to {args.svg}")
    return 0


def _verify_output(m: Matching, out: Matching) -> None:
    if not out.is_perfect:
        raise InvariantViolation("output is not a perfect matching")
    if not compatible(m, out):
        raise InvariantViolation("output is not compatible with the input")
    if not disjoint(m, out):
        raise InvariantViolation("output shares a segment with the input")


def _oracle_check(args, m: Matching, out: Matching | None) -> None:
    """With ``--oracle``, print whether ``m`` has a disjoint compatible
    perfect matching, by exhaustive search on at most ORACLE_POINT_LIMIT
    points.  An output ``out`` that is one, where the search finds none, is
    an internal error."""
    if not args.oracle:
        return
    n = len(m.base)
    if n > ORACLE_POINT_LIMIT:
        print(f"oracle: skipped ({n} points > {ORACLE_POINT_LIMIT})")
        return
    found, _ = has_disjoint_compatible_pm(m)
    if found:
        print("oracle: a disjoint compatible perfect matching exists")
        return
    if out is not None and out.is_perfect and disjoint(m, out) and compatible(m, out):
        raise InvariantViolation(
            "oracle found no disjoint compatible perfect matching, but the output is one"
        )
    print("oracle: no disjoint compatible perfect matching exists")


def _run_hv(args) -> int:
    m = fileio.load_instance(args.input)
    out, colored = algorithms.hv_disjoint_matching(m)
    for color in (algorithms.RED, algorithms.GREEN):
        g = colored.subgraph(color)
        print(f"{color} dual subgraph: {len(g.edges)} edges, spanning tree")
    if out is None:
        print(f"odd matching ({len(m)} segments): trees exist, no perfect partner")
    else:
        print(f"disjoint compatible perfect matching with {len(out)} segments")
        if args.verify:
            _verify_output(m, out)
            print("verify: perfect, disjoint, compatible")
    _oracle_check(args, m, out)
    if out is not None and args.out:
        fileio.save_instance(out, args.out)
        print(f"wrote matching to {args.out}")
    if args.svg:
        _render_input_svg(m, args.svg)
    return 0


def _run_chc(args) -> int:
    m = fileio.load_instance(args.input)
    out = algorithms.chc_disjoint_matching(m)
    print(f"disjoint compatible perfect matching with {len(out)} segments")
    if args.verify:
        _verify_output(m, out)
        print("verify: perfect, disjoint, compatible")
    _oracle_check(args, m, out)
    if args.out:
        fileio.save_instance(out, args.out)
        print(f"wrote matching to {args.out}")
    if args.svg:
        _render_input_svg(m, args.svg)
    return 0


def _run_four_fifths(args) -> int:
    m = fileio.load_instance(args.input)
    rep = algorithms.four_fifths_matching(m)
    print(
        f"n = {rep.n}: matched {rep.achieved} segments "
        f"(guarantee {rep.guarantee}, {rep.odd_components} odd red components)"
    )
    if args.verify:
        if not (disjoint(m, rep.matching) and compatible(m, rep.matching)):
            raise InvariantViolation("output must be disjoint and compatible")
        guarantee = -(-(4 * len(m) - 1) // 5)
        if len(rep.matching) < guarantee:
            raise InvariantViolation(
                f"output has {len(rep.matching)} segments; {guarantee} guaranteed"
            )
        print("verify: disjoint, compatible, size >= guarantee")
    _oracle_check(args, m, rep.matching)
    if args.out:
        fileio.save_instance(rep.matching, args.out)
        print(f"wrote matching to {args.out}")
    if args.svg:
        _render_input_svg(m, args.svg)
    return 0


def _run_crossings(args) -> int:
    m = fileio.load_instance(args.input)
    m_l, m_r = algorithms.crossings_matchings(m)
    print(
        f"left-endpoint matching: {len(m_l)} segments; "
        f"right-endpoint matching: {len(m_r)} segments"
    )
    if args.verify:
        cross = m.base.segments_cross_ids
        for e in m.sorted_edges():
            for f in list(m_l.edges) + list(m_r.edges):
                if cross(*e, *f):
                    raise InvariantViolation(f"{f} crosses input segment {e}")
        print("verify: neither half crosses the input")
    if args.out:
        base = Path(args.out)
        left = base.with_name(base.stem + ".left" + (base.suffix or ".txt"))
        right = base.with_name(base.stem + ".right" + (base.suffix or ".txt"))
        fileio.save_instance(m_l, left)
        fileio.save_instance(m_r, right)
        print(f"wrote matchings to {left} and {right}")
    if args.svg:
        _render_input_svg(m, args.svg)
    return 0


def _run_two_trees(args) -> int:
    m = fileio.load_instance(args.input)
    result = algorithms.two_trees_search(m, max_orders=args.max_orders)
    if result.found:
        print(
            f"found a two-trees split after trying {result.orders_tried} "
            f"extension orders ({result.orders_skipped} degenerate)"
        )
        if args.verify:
            dual = result.dual
            for part in (0, 1):
                edges = tuple(
                    dual.edges[i].cells
                    for i, p in enumerate(result.assignment)
                    if p == part
                )
                g = Multigraph(dual.n, edges)
                if len(edges) != dual.n - 1 or len(components(g)) != 1:
                    raise InvariantViolation(f"part {part} is not a spanning tree")
            print("verify: both parts are spanning trees")
    else:
        print(
            f"no two-trees split within {result.orders_tried} extension orders "
            f"({result.orders_skipped} degenerate); the structure remains open"
        )
    if args.svg:
        _render_input_svg(m, args.svg)
    return 0


_RUNNERS = {
    "transform": _run_transform,
    "hv": _run_hv,
    "chc": _run_chc,
    "four-fifths": _run_four_fifths,
    "crossings": _run_crossings,
    "two-trees-search": _run_two_trees,
}


#: runners with no ``--oracle`` cross-check
_WITHOUT_ORACLE = ("crossings", "two-trees-search")


def cmd_run(args) -> int:
    if args.oracle and args.algorithm in _WITHOUT_ORACLE:
        raise GeomatchError(f"--oracle has no cross-check for {args.algorithm}")
    return _RUNNERS[args.algorithm](args)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    flavor = args.flavor
    if flavor == "parallel-chords":
        m = algorithms.gen_parallel_chords(args.n)
    elif flavor == "general-odd":
        m = algorithms.gen_general_odd(args.n)
    else:
        key = {
            "random": algorithms.Flavor.GENERAL,
            "hv": algorithms.Flavor.AXIS_PARALLEL,
            "axis-parallel": algorithms.Flavor.AXIS_PARALLEL,
            "chc": algorithms.Flavor.CHC,
        }[flavor]
        m = algorithms.gen_random_matching(args.n, args.seed, key)
    validate_general_position(m.base)
    _write_or_print(fileio.dump_instance(m), args.out, f"{len(m)}-segment instance")
    return 0


# ---------------------------------------------------------------------------
# render


def _step_path(path, k: int):
    p = Path(path)
    return p.with_name(f"{p.stem}.step{k}{p.suffix or '.svg'}")


def cmd_render(args) -> int:
    layers = tuple(s.strip() for s in args.layers.split(",") if s.strip())
    text = Path(args.input).read_text()
    if fileio.is_sequence_text(text):
        seq = fileio.parse_sequence(text, args.input)
        pages = svg_render.render_sequence(seq, layers)
        for k, page in enumerate(pages):
            Path(_step_path(args.out, k)).write_text(page)
        print(f"wrote {len(pages)} SVG files next to {args.out}")
    else:
        m = fileio.parse_instance(text, args.input)
        Path(args.out).write_text(svg_render.render_matching(m, layers))
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="geomatch",
        description="compatible geometric matchings: algorithms, generators, pictures",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run an algorithm on instance files")
    p.add_argument("algorithm", choices=sorted(_RUNNERS))
    p.add_argument("input")
    p.add_argument("input2", nargs="?", help="second instance (transform only)")
    p.add_argument("--out", help="write the produced matching / sequence here")
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--verify", action="store_true", help="re-check all predicates")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="brute-force cross-check (transform, hv, chc, four-fifths)",
    )
    p.add_argument("--max-orders", type=int, default=24, help="two-trees-search budget")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument(
        "flavor",
        choices=["random", "hv", "axis-parallel", "chc", "parallel-chords", "general-odd"],
    )
    p.add_argument("n", type=int, help="number of segments (chords for parallel-chords)")
    p.add_argument("--seed", type=int, default=0, help="default: 0")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("render", help="render an instance or sequence file as SVG")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument(
        "--layers",
        default="segments",
        help=f"comma-separated subset of {','.join(svg_render.LAYERS)}",
    )
    p.set_defaults(func=cmd_render)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except GeomatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
