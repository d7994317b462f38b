"""Exception types shared across the package.

Every rejection of bad input is reported through one of these classes so
callers (and the CLI) can tell user errors apart from internal bugs.
"""


class GeomatchError(Exception):
    """Base class for all input / precondition failures."""


class ParseError(GeomatchError):
    """An instance or sequence file could not be parsed."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class InvariantViolation(AssertionError):
    """A structural guarantee failed; this always indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# point set / matching validation


class DuplicatePoint(GeomatchError):
    def __init__(self, i, j):
        super().__init__(f"points {i} and {j} share the same coordinates")
        self.i = i
        self.j = j


class CollinearTriple(GeomatchError):
    def __init__(self, i, j, k):
        super().__init__(f"points {i}, {j}, {k} are collinear")
        self.triple = (i, j, k)


class TooFewPoints(GeomatchError):
    pass


class MismatchedVertexSet(GeomatchError):
    """Two matchings that must live on the same point set do not."""


# ---------------------------------------------------------------------------
# subdivision construction


class SegmentOutsideRegionRule(GeomatchError):
    """A segment meets the region but has no endpoint strictly inside it."""


class DegenerateIncidence(GeomatchError):
    """A ray stop coincides with an existing subdivision vertex, or no
    pairing of a four-point side of a halfplane step is compatible.

    Cannot happen for point sets in general position; raised instead of
    perturbing when exact arithmetic detects such a tie anyway.
    """


# ---------------------------------------------------------------------------
# multigraph orientation


class OddComponentInPart(GeomatchError):
    def __init__(self, part, component_vertices):
        super().__init__(
            f"part {part!r} induces a component with an odd number of edges "
            f"(vertices {sorted(component_vertices)})"
        )
        self.part = part
        self.component_vertices = frozenset(component_vertices)


# ---------------------------------------------------------------------------
# matching construction


class NotConvexPosition(GeomatchError):
    pass


class OddCount(GeomatchError):
    pass


class TwoPointsAlreadyMatched(GeomatchError):
    """Exactly two points remain and the boundary matching already joins them."""


class SameSegmentIndegreeTwo(GeomatchError):
    """A cell of indegree two received both endpoints of one segment."""


# ---------------------------------------------------------------------------
# per-algorithm preconditions


class OddMatching(GeomatchError):
    pass


class NotAxisParallel(GeomatchError):
    pass


class NotCHC(GeomatchError):
    """The matching is not convex-hull-connected."""


class OddN(GeomatchError):
    pass


class VerticalSegment(GeomatchError):
    pass


class VertexOnLine(GeomatchError):
    pass


class OddCut(GeomatchError):
    def __init__(self, count):
        super().__init__(f"cut line crosses {count} segments (must be even)")
        self.count = count


class DistinctXRequired(GeomatchError):
    """Points do not have pairwise distinct x coordinates, which the
    canonical matching's x-order needs (``transform`` shears them apart)."""


class GenerationFailed(GeomatchError):
    """A generator exhausted its retry budget without a valid instance."""


# ---------------------------------------------------------------------------
# oracle guards


class TooLarge(GeomatchError):
    """Instance exceeds the size guard of an exhaustive oracle."""


class Unreachable(GeomatchError):
    """The target matching is not reachable in the compatibility flip graph."""
