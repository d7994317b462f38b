"""Output checks written independently of the library's predicates.

``geom_core.compatible`` and ``PointSet.segments_cross_ids`` are under
measurement and will be optimised, so nothing here calls them.  Segments
are compared as pairs of exact rational coordinates with a brute-force
closed-segment crossing test.  The rationals are first scaled by the common
denominator of the instance to integers (a similarity, so no predicate
changes), and an exact bounding-box test skips pairs that cannot touch;
both only keep the pair loops affordable.

Every check raises :class:`VerificationError` naming what went wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction


class VerificationError(Exception):
    pass


def _orient(p, q, r) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def _on_segment(p, q, r) -> bool:
    """r is collinear with pq; does it lie on the closed segment?"""
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])


def segments_meet(s, t) -> bool:
    """Whether closed segments s and t share a point other than an endpoint
    common to both (a shared endpoint alone is allowed)."""
    (p, q), (r, u) = s, t
    if {p, q} == {r, u}:
        return True
    d1, d2 = _orient(r, u, p), _orient(r, u, q)
    d3, d4 = _orient(p, q, r), _orient(p, q, u)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    # otherwise they meet only where an endpoint of one lies on the other;
    # an endpoint both segments share is the one contact that is allowed
    touching = {
        z
        for z, d, seg in ((p, d1, (r, u)), (q, d2, (r, u)), (r, d3, (p, q)), (u, d4, (p, q)))
        if d == 0 and _on_segment(*seg, z)
    }
    return bool(touching - ({p, q} & {r, u}))


def _box(s):
    (px, py), (qx, qy) = s
    return min(px, qx), max(px, qx), min(py, qy), max(py, qy)


def first_meeting(segs_a, segs_b=None):
    """A meeting pair within ``segs_a`` (or between ``segs_a`` and
    ``segs_b``), skipping identical segments across the two lists."""
    boxed_a = [(_box(s), s) for s in segs_a]
    boxed_b = boxed_a if segs_b is None else [(_box(s), s) for s in segs_b]
    for i, (ba, s) in enumerate(boxed_a):
        for bb, t in boxed_b[i + 1 :] if segs_b is None else boxed_b:
            if segs_b is not None and set(s) == set(t):
                continue
            if ba[1] < bb[0] or bb[1] < ba[0] or ba[3] < bb[2] or bb[3] < ba[2]:
                continue
            if segments_meet(s, t):
                return s, t
    return None


def coords(m) -> list:
    """A matching's edges as pairs of integer points on the instance's
    common-denominator grid, sorted for stable messages."""
    raw = [(Fraction(p.x), Fraction(p.y)) for p in m.base.points]
    scale = math.lcm(*(v.denominator for xy in raw for v in xy))
    pts = [(int(x * scale), int(y * scale)) for x, y in raw]
    return sorted((pts[e.a], pts[e.b]) for e in m.edges)


def _points(segs) -> list:
    return [z for s in segs for z in s]


def check_matching(segs, what: str, cover=None) -> None:
    """Non-crossing, no point used twice, and (if given) covering exactly
    the coordinate set ``cover``."""
    used = _points(segs)
    if len(set(used)) != len(used):
        raise VerificationError(f"{what}: a point is used by two segments")
    if cover is not None and set(used) != set(cover):
        raise VerificationError(f"{what}: covers {len(set(used))} points, expected {len(cover)}")
    pair = first_meeting(segs)
    if pair is not None:
        raise VerificationError(f"{what}: segments {pair[0]} and {pair[1]} cross")


def check_compatible(a, b, what: str) -> None:
    pair = first_meeting(a, b)
    if pair is not None:
        raise VerificationError(f"{what}: {pair[0]} crosses {pair[1]}")


def check_disjoint(a, b, what: str) -> None:
    shared = {frozenset(s) for s in a} & {frozenset(s) for s in b}
    if shared:
        raise VerificationError(f"{what}: {len(shared)} shared segments")


# ---------------------------------------------------------------------------
# per-workload checks


def check_transform(m1, m2, seq) -> None:
    src, dst = coords(m1), coords(m2)
    steps = [coords(m) for m in seq.matchings]
    if {frozenset(s) for s in steps[0]} != {frozenset(s) for s in src}:
        raise VerificationError("transform: sequence does not start at the source")
    if {frozenset(s) for s in steps[-1]} != {frozenset(s) for s in dst}:
        raise VerificationError("transform: sequence does not end at the target")
    n = len(src)
    bound = 2 * math.ceil(math.log2(n)) if n > 1 else 0
    if len(steps) - 1 > bound:
        raise VerificationError(f"transform: {len(steps) - 1} steps exceed 2*ceil(log2 n) = {bound}")
    everything = _points(src)
    for k, segs in enumerate(steps):
        check_matching(segs, f"transform step {k}", cover=everything)
    for k in range(1, len(steps)):
        check_compatible(steps[k - 1], steps[k], f"transform steps {k - 1},{k}")


def check_four_fifths(m, report) -> None:
    given, out = coords(m), coords(report.matching)
    n = len(given)
    check_matching(out, "four-fifths output")
    check_disjoint(given, out, "four-fifths")
    check_compatible(given, out, "four-fifths")
    guarantee = -(-(4 * n - 1) // 5)
    if len(out) < guarantee:
        raise VerificationError(f"four-fifths: {len(out)} segments, {guarantee} guaranteed")


def check_crossings(m, halves) -> None:
    given = coords(m)
    left, right = (coords(h) for h in halves)
    for name, half in (("left", left), ("right", right)):
        check_matching(half, f"crossings {name} half")
        check_compatible(given, half, f"crossings {name} half")
    both = _points(left) + _points(right)
    if len(both) != len(set(both)) or set(both) != set(_points(given)):
        raise VerificationError("crossings: the halves do not cover every point once")


def check_oracle(m, result) -> None:
    found, witness = result
    if not found or witness is None:
        raise VerificationError("oracle: no disjoint compatible matching found")
    given, got = coords(m), coords(witness)
    check_matching(got, "oracle witness", cover=_points(given))
    check_disjoint(given, got, "oracle witness")
    check_compatible(given, got, "oracle witness")
