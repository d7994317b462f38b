"""Plain-text instance and sequence files.

An instance file holds one segment per line as ``x1 y1 x2 y2``; tokens are
integers or ``p/q`` rationals, ``#`` starts a comment, blank lines are
skipped.  A sequence file holds several such blocks separated by
``== step k ==`` headers.  Serialization is canonical (sorted segments,
normalized rationals) so files round-trip bit-exactly.
"""

import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .algorithms import TransformationSequence
from .errors import ParseError
from .geom_core import Matching, PointSet, Scalar, Segment, compatible

_STEP_RE = re.compile(r"^== step (\d+) ==$")

PathLike = Union[str, Path]


def parse_scalar(token: str) -> Scalar:
    """An integer or ``p/q`` rational."""
    if "/" in token:
        num, _, den = token.partition("/")
        return Fraction(int(num), int(den))
    return int(token)


def format_scalar(v: Scalar) -> str:
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_segment_line(path, lineno: int, line: str):
    tokens = line.split()
    if len(tokens) != 4:
        raise ParseError(path, lineno, f"expected 4 coordinates, got {len(tokens)}")
    try:
        x1, y1, x2, y2 = (parse_scalar(t) for t in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, lineno, f"bad coordinate: {exc}") from None
    return (x1, y1), (x2, y2)


def parse_instance(text: str, path: PathLike = "<instance>") -> Matching:
    coords = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if _STEP_RE.match(line):
            raise ParseError(path, lineno, "step header in an instance file")
        p, q = _parse_segment_line(path, lineno, line)
        coords.append(p)
        coords.append(q)
    if not coords:
        raise ParseError(path, 1, "no segments")
    ps = PointSet.from_coords(coords)
    edges = [Segment(i, i + 1) for i in range(0, len(coords), 2)]
    return Matching(ps, edges)


def dump_instance(m: Matching) -> str:
    """Canonical text: endpoints and lines ordered by coordinates, so the
    output is independent of point numbering (ids are rebuilt on parse)."""
    rows = []
    for e in m.sorted_edges():
        p, q = m.base.coord(e.a), m.base.coord(e.b)
        rows.append((q, p) if q < p else (p, q))
    rows.sort()
    return "".join(
        " ".join(format_scalar(v) for v in (*p, *q)) + "\n" for p, q in rows
    )


def parse_sequence(text: str, path: PathLike = "<sequence>") -> TransformationSequence:
    """Rebuild a transformation; every step must reuse step 0's points."""
    blocks: list[tuple[int, list]] = []
    current: Optional[list] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        header = _STEP_RE.match(line)
        if header:
            k = int(header.group(1))
            if k != len(blocks):
                raise ParseError(path, lineno, f"expected step {len(blocks)}, got {k}")
            current = []
            blocks.append((lineno, current))
            continue
        if current is None:
            raise ParseError(path, lineno, "segment before the first step header")
        current.append((lineno, _parse_segment_line(path, lineno, line)))
    if not blocks:
        raise ParseError(path, 1, "no steps")

    first_lineno, first = blocks[0]
    if not first:
        raise ParseError(path, first_lineno, "step 0 is empty")
    coords = [pt for _, seg in first for pt in seg]
    ps = PointSet.from_coords(coords)
    by_coord = {ps.coord(i): i for i in ps.ids}

    matchings = []
    for _, block in blocks:
        edges = []
        for lineno, (p, q) in block:
            try:
                edges.append(Segment(by_coord[p], by_coord[q]))
            except KeyError as exc:
                raise ParseError(
                    path, lineno, f"point {exc.args[0]} is not in step 0"
                ) from None
        matchings.append(Matching(ps, edges))
    # the checks of TransformationSequence, in its order, reported as faults
    # of the file at the step's header rather than as faults of the library
    for k in range(1, len(matchings)):
        header_lineno = blocks[k][0]
        if matchings[k].matched_ids != matchings[0].matched_ids:
            raise ParseError(path, header_lineno, f"step {k} matches other points than step 0")
        if not compatible(matchings[k - 1], matchings[k]):
            raise ParseError(path, header_lineno, f"steps {k - 1} and {k} are incompatible")
    return TransformationSequence(tuple(matchings))


def dump_sequence(seq: TransformationSequence) -> str:
    parts = []
    for k, m in enumerate(seq.matchings):
        parts.append(f"== step {k} ==\n")
        parts.append(dump_instance(m))
    return "".join(parts)


def is_sequence_text(text: str) -> bool:
    return any(_STEP_RE.match(_strip(line)) for line in text.splitlines())


def load_instance(path: PathLike) -> Matching:
    return parse_instance(Path(path).read_text(), path)


def load_sequence(path: PathLike) -> TransformationSequence:
    """Read a file that :func:`save_sequence` wrote.  Public on purpose, as
    the reader paired with that writer; the CLI parses the text it has
    already read with :func:`parse_sequence` instead."""
    return parse_sequence(Path(path).read_text(), path)


def save_instance(m: Matching, path: PathLike) -> None:
    Path(path).write_text(dump_instance(m))


def save_sequence(seq: TransformationSequence, path: PathLike) -> None:
    Path(path).write_text(dump_sequence(seq))
