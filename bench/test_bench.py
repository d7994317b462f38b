"""Tests of the benchmark itself: tracer bindings, determinism, verifier.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.load_library()

import tracer as tracer_mod  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from geomatch import algorithms  # noqa: E402
from geomatch.geom_core import Matching, PointSet, Segment  # noqa: E402


def _bindings(originals_or_wrappers) -> list[str]:
    """Every geomatch module or class attribute holding one of the values."""
    wanted = {id(v) for v in originals_or_wrappers}
    found = []
    for mod in tracer_mod.geomatch_modules():
        for name, value in vars(mod).items():
            if id(value) in wanted:
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(value) and value.__module__.startswith("geomatch"):
                for attr, member in vars(value).items():
                    if id(member) in wanted:
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


def test_tracer_replaces_every_binding_and_restores_them():
    tr = tracer_mod.Tracer()
    originals = list(tr.originals.values())
    wrappers = list(tr.wrappers.values())
    before = _bindings(originals)
    # names imported into several modules must all be covered
    for name in (
        "geomatch.algorithms.extend",
        "geomatch.svg_render.extend",
        "geomatch.algorithms.components",
        "geomatch.subdivision.components",
        "geomatch.orientation.components",
        "geomatch.algorithms.compatible",
        "geomatch.cli.compatible",
        "geomatch.oracle.compatible",
        "geomatch.algorithms.constrained_matching",
        "geomatch.algorithms.even_orientation",
    ):
        assert name in before
    with tr:
        assert _bindings(originals) == []
        assert sorted(_bindings(wrappers)) == sorted(before)
    assert sorted(_bindings(originals)) == sorted(before)
    assert _bindings(wrappers) == []


def test_tracer_sees_calls_made_through_imported_names():
    m = algorithms.gen_random_matching(8, 3)
    tr = tracer_mod.Tracer()
    with tr:
        algorithms.four_fifths_matching(m)
    stats = tr.stats
    assert stats["algorithms.four_fifths_matching"].calls == 1
    assert stats["subdivision.extend"].calls == 1  # bound in algorithms
    assert stats["subdivision.extend"].counters["rays"] == 16
    assert stats["orientation.components"].calls >= 2  # bound in three modules
    spans = [s for k, s in stats.items() if k != "geom_core.PointSet.segments_cross_ids"]
    assert all(s.self_s >= 0 for s in spans)
    root = stats["algorithms.four_fifths_matching"]
    assert sum(s.self_s for s in spans) == pytest.approx(root.total_s, rel=1e-6)


def _small(name: str, size: int = 4):
    return dataclasses.replace(workloads.WORKLOADS[name], pool_size=size, count_ops=size)


def _args(name: str, seed: int, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=seed, seconds=0.001, trace=trace)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_instances_and_counts(name):
    wl = _small(name)
    assert wl.build_pool(5).digest() == wl.build_pool(5).digest()
    assert wl.build_pool(5).digest() != wl.build_pool(6).digest()

    runs = [run.traced_run(_args(name, 5, 1), wl) for _ in range(2)]
    for session, metrics, extra, consistent in runs:
        assert consistent and session.failed == 0
        assert extra["same_outputs_traced_untraced"]
    counted = [
        key
        for key in runs[0][1]
        if key.endswith((".calls", ".rays", ".cells", ".found_ratio", "steps_mean", "matched_ratio"))
    ]
    for key in counted:
        assert runs[0][1][key] == runs[1][1][key], key

    plain = [run.untraced_run(_args(name, 5, 0), wl, 0.0) for _ in range(2)]
    assert plain[0][2]["pool_digest"] == plain[1][2]["pool_digest"]
    assert plain[0][2]["quality_first_ops"] == plain[1][2]["quality_first_ops"]
    assert all(p[3] and p[0].failed == 0 for p in plain)


def test_segments_meet_cases():
    meet = verify.segments_meet
    assert meet(((0, 0), (2, 2)), ((0, 2), (2, 0)))  # proper crossing
    assert meet(((0, 0), (2, 0)), ((1, 0), (1, 5)))  # T-contact
    assert meet(((0, 0), (2, 0)), ((1, 0), (3, 0)))  # collinear overlap
    assert meet(((0, 0), (2, 0)), ((0, 0), (1, 0)))  # overlap from a shared end
    assert meet(((0, 0), (2, 0)), ((2, 0), (0, 0)))  # the same segment
    assert not meet(((0, 0), (2, 0)), ((2, 0), (3, 1)))  # shared endpoint only
    assert not meet(((0, 0), (1, 0)), ((2, 0), (3, 0)))  # collinear, apart
    assert not meet(((0, 0), (1, 1)), ((0, 1), (Fraction(1, 3), Fraction(2, 3))))


def test_verifier_rejects_wrong_outputs():
    m = algorithms.gen_random_matching(6, 1)
    report = algorithms.four_fifths_matching(m)
    verify.check_four_fifths(m, report)
    with pytest.raises(verify.VerificationError):
        verify.check_four_fifths(m, dataclasses.replace(report, matching=m))  # not disjoint
    small = Matching(m.base, list(report.matching.edges)[:2], check=False)
    with pytest.raises(verify.VerificationError):
        verify.check_four_fifths(m, dataclasses.replace(report, matching=small))  # too small
    square = PointSet.from_coords([(0, 0), (2, 2), (0, 2), (2, 0)])
    diagonals = Matching(square, [Segment(0, 1), Segment(2, 3)], check=False)
    with pytest.raises(verify.VerificationError):
        verify.check_matching(verify.coords(diagonals), "diagonals")


def test_refuses_to_run_without_the_library(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "transform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
