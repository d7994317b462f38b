"""Span tracer that times calls into the geomatch layers from outside.

The library imports many functions by name into several modules (``extend``
lives in ``subdivision`` but is also bound in ``algorithms`` and
``svg_render``; ``components`` in ``algorithms``, ``subdivision`` and
``orientation``; ...).  Patching only the defining module would miss every
call made through those other bindings, so :class:`Tracer` replaces *every*
``geomatch.*`` module-namespace binding of a traced function, and the class
attribute of a traced method, and puts each original back on exit.  The
benchmark calls entry points through their module for the same reason.

Spans are aggregated in memory per name: call count, total time and self
time (the span's duration minus the time covered by traced child spans).
Hooks read work counts (rays, cells, found/not-found) off return values.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counted: int = 0  # counted-only calls made directly inside this span
    counters: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by


def _extend_counts(stats: SpanStats, result) -> None:
    geometry, sub = result
    stats.bump("rays", len(geometry.rays))
    stats.bump("cells", len(sub.cells) if sub is not None else 0)


def _found_if_not_none(stats: SpanStats, result) -> None:
    stats.bump("found", result is not None)


def _found_flag(stats: SpanStats, result) -> None:
    stats.bump("found", bool(result[0]))


#: (module, qualified name, result hook) of every timed span.  A dotted
#: name is a method, patched on its class.
SPANS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("geom_core", "validate_general_position", None),
    ("geom_core", "convex_hull", None),
    ("geom_core", "compatible", None),
    ("geom_core", "ConvexPolygon.clip_halfplane", None),
    ("geom_core", "PointSet.first_crossing_within", None),
    ("subdivision", "extend", _extend_counts),
    ("subdivision", "dual_multigraph", None),
    ("orientation", "components", None),
    ("orientation", "even_orientation", None),
    ("orientation", "orientation_from_partition", None),
    ("orientation", "prune_odd_components", None),
    ("matching_engine", "constrained_matching", _found_if_not_none),
    ("matching_engine", "assemble_from_orientation", None),
    ("matching_engine", "convex_disjoint_matching", None),
    ("matching_engine", "convex_compatible_matching", None),
    ("oracle", "has_disjoint_compatible_pm", _found_flag),
    ("algorithms", "transform", None),
    ("algorithms", "four_fifths_matching", None),
    ("algorithms", "crossings_matchings", None),
)

#: Hot predicates that are only counted: at millions of calls per second a
#: timing wrapper would cost more than the call it measures and distort the
#: self time of every span that calls them.
COUNTED: tuple[tuple[str, str], ...] = (("geom_core", "PointSet.segments_cross_ids"),)


def geomatch_modules() -> list:
    """Import and return the ``geomatch`` package and all of its modules."""
    pkg = importlib.import_module("geomatch")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"geomatch.{info.name}")
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "geomatch" or name.startswith("geomatch.")
    ]


def resolve(module: str, qualname: str):
    """(owner class or None, attribute name, original function)."""
    mod = importlib.import_module(f"geomatch.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return None, qualname, getattr(mod, qualname)


class Tracer:
    """Span and counting wrappers for every traced geomatch function.

    Construction finds every binding to replace; entering the tracer (as a
    context manager) installs the wrappers and leaving it restores the
    originals, so it can be toggled cheaply between operations.  ``stats``
    maps ``"<module>.<qualname>"`` to :class:`SpanStats`.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        self._stack: list[float] = []  # child time of each open span
        self._open: list[SpanStats] = []  # stats of each open span
        self._plan: list[tuple[object, str, object, object]] = []
        self._installed = False
        modules = geomatch_modules()
        targets = [(m, q, h, True) for m, q, h in SPANS]
        targets += [(m, q, None, False) for m, q in COUNTED]
        for module, qualname, hook, timed in targets:
            key = f"{module}.{qualname}"
            owner, attr, original = resolve(module, qualname)
            if hasattr(original, "__wrapped__"):
                raise RuntimeError(f"{key} is already wrapped; is another tracer installed?")
            stats = self.stats[key] = SpanStats()
            wrapper = (
                self._span(original, stats, hook) if timed else self._counter(original, stats)
            )
            self.originals[key] = original
            self.wrappers[key] = wrapper
            if owner is not None:
                self._plan.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        self._plan.append((mod, name, original, wrapper))

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, stats: SpanStats, hook):
        stack, open_spans = self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            open_spans.append(stats)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                child = stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(stats, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, fn, stats: SpanStats):
        open_spans = self._open

        def wrapper(*args, **kwargs):
            stats.calls += 1
            if open_spans:
                open_spans[-1].counted += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for owner, name, original, _ in self._plan:
            if owner.__dict__[name] is not original:
                raise RuntimeError(f"{owner.__name__}.{name} was rebound since the tracer was built")
        for owner, name, _, wrapper in self._plan:
            setattr(owner, name, wrapper)
        self._installed = True
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, _ in reversed(self._plan):
            setattr(owner, name, original)
        self._installed = False

    def reset(self) -> None:
        """Zero every span's figures in place (the wrappers hold them)."""
        for stats in self.stats.values():
            stats.calls = stats.counted = 0
            stats.total_s = stats.self_s = 0.0
            stats.counters.clear()

    def wrapper_costs(self, calls: int = 20000) -> tuple[float, float]:
        """Seconds a span wrapper and a counting wrapper add to one call,
        measured on an empty four-argument function."""

        def empty(a, b, c, d):
            return None

        def per_call(fn) -> float:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(0, 1, 2, 3)
            return (time.perf_counter() - t0) / calls

        bare = per_call(empty)
        span = per_call(self._span(empty, SpanStats(), None)) - bare
        counter = per_call(self._counter(empty, SpanStats())) - bare
        return max(span, 0.0), max(counter, 0.0)
