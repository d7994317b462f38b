"""The four benchmark workloads: instance pools, the timed call, checks.

An operation is one call of the workload's entry point on one instance.
Instances come from the library's own generator, ``gen_random_matching``,
seeded from a per-workload stream derived from ``--seed``, so one seed
always gives the same pool.  Entry points are looked up on their module at
call time, so a tracer that rebinds them sees every call.

Why these four: each is dominated by a different layer.
  transform     many small ``extend`` calls on Fraction-clipped halfplane
                regions, compatibility re-checked along every chain
  four-fifths   one large ``extend`` of 2n rays, dual, orientation pruning
                and per-cell assembly
  crossings     ``constrained_matching`` visibility search on Fractions; it
                builds no subdivision, so it bypasses subdivision/orientation
  oracle-probe  the exhaustive disjoint-compatible search, integer crossing
                predicates only
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from geomatch import algorithms, fileio, oracle
from geomatch.geom_core import Matching, Segment, distinct_x, shear_points

import verify


@dataclass(frozen=True)
class Instance:
    index: int
    gen_seed: int
    args: tuple  # positional arguments of the entry point


@dataclass
class Pool:
    instances: list[Instance]
    regenerated: int  # instances drawn again (vertical edge)
    sheared: int  # instances sheared to separate tied x-coordinates

    def digest(self) -> str:
        h = hashlib.sha256()
        for inst in self.instances:
            for m in inst.args:
                h.update(fileio.dump_instance(m).encode())
                h.update(b"|")
        return h.hexdigest()


def _orient(p, q, r) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def random_ncpm(m: Matching, rng: random.Random) -> Matching:
    """A random non-crossing perfect matching of ``m``'s points (the
    library's own generator for this is private, so it is not used).

    The lowest point is joined to a point that leaves an even number of
    points on each side of their line, in angular order around it; both
    sides are matched recursively and cannot reach across that segment.
    """
    ps = m.base
    edges: list[Segment] = []

    def match(ids: list[int]) -> None:
        if not ids:
            return
        anchor = min(ids, key=lambda i: (ps.coord(i)[1], ps.coord(i)[0]))
        a = ps.coord(anchor)
        rest = sorted(
            (i for i in ids if i != anchor),
            key=functools.cmp_to_key(lambda i, j: -_orient(a, ps.coord(i), ps.coord(j))),
        )
        k = 2 * rng.randrange((len(rest) + 1) // 2)
        edges.append(Segment(anchor, rest[k]))
        match(rest[:k])
        match(rest[k + 1 :])

    match(list(ps.ids))
    return Matching(ps, edges)


def _has_vertical_edge(m: Matching) -> bool:
    return any(m.base.coord(e.a)[0] == m.base.coord(e.b)[0] for e in m.edges)


def _one_matching(m: Matching, gen_seed: int, counts: dict) -> tuple:
    return (m,)


def _two_matchings(m: Matching, gen_seed: int, counts: dict) -> tuple:
    """``m`` (sheared if two x-coordinates tie) and a second random
    non-crossing perfect matching of the same points."""
    if not distinct_x(m.base):
        sheared, _ = shear_points(m.base)
        m = Matching(sheared, m.edges)
        counts["sheared"] += 1
    return m, random_ncpm(m, random.Random(gen_seed))


#: output-size figures some workloads report, with their units
QUALITY_UNITS = {
    "algorithms.transform.steps_mean": "count",
    "algorithms.four_fifths_matching.matched_ratio": "ratio",
}


def matching_digest(m: Matching) -> tuple:
    return tuple(verify.coords(m))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # segments per instance
    pool_size: int  # distinct instances per run
    count_ops: int  # ops whose per-layer counts are reported (exact)
    call: Callable  # Instance -> output
    check: Callable  # (Instance, output) -> None, raises VerificationError
    digest: Callable  # output -> hashable canonical form
    make_args: Callable = _one_matching  # (matching, gen seed, counts) -> args
    quality: Callable = lambda output: {}  # output -> output-size figures
    vertical_ok: bool = True

    def make_instance(self, index: int, stream: random.Random, counts: dict) -> Instance:
        while True:
            gen_seed = stream.getrandbits(63)
            m = algorithms.gen_random_matching(self.n, gen_seed)
            if self.vertical_ok or not _has_vertical_edge(m):
                break
            counts["regenerated"] += 1
        return Instance(index, gen_seed, self.make_args(m, gen_seed, counts))

    def build_pool(self, seed: int) -> Pool:
        stream = random.Random(f"{self.name}:{seed}")
        counts = {"regenerated": 0, "sheared": 0}
        instances = [self.make_instance(i, stream, counts) for i in range(self.pool_size)]
        return Pool(instances, counts["regenerated"], counts["sheared"])

    def dump(self, inst: Instance) -> str:
        """The instance as instance-file text, one block per argument."""
        return "".join(
            f"# argument {k} of instance {inst.index}; points from "
            f"gen_random_matching({self.n}, {inst.gen_seed})\n"
            + fileio.dump_instance(m)
            for k, m in enumerate(inst.args)
        )


def _transform(inst: Instance):
    return algorithms.transform(*inst.args)


def _four_fifths(inst: Instance):
    return algorithms.four_fifths_matching(*inst.args)


def _crossings(inst: Instance):
    return algorithms.crossings_matchings(*inst.args)


def _oracle(inst: Instance):
    return oracle.has_disjoint_compatible_pm(*inst.args)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "transform", 16, 100, 16, _transform,
            lambda inst, seq: verify.check_transform(*inst.args, seq),
            lambda seq: tuple(matching_digest(m) for m in seq.matchings),
            make_args=_two_matchings,
            quality=lambda seq: {"algorithms.transform.steps_mean": seq.length},
        ),
        Workload(
            "four-fifths", 64, 100, 16, _four_fifths,
            lambda inst, rep: verify.check_four_fifths(*inst.args, rep),
            lambda rep: matching_digest(rep.matching),
            quality=lambda rep: {
                "algorithms.four_fifths_matching.matched_ratio": len(rep.matching) / rep.n
            },
            vertical_ok=False,
        ),
        Workload(
            "crossings", 10, 200, 16, _crossings,
            lambda inst, halves: verify.check_crossings(*inst.args, halves),
            lambda halves: tuple(matching_digest(h) for h in halves),
            vertical_ok=False,
        ),
        Workload(
            "oracle-probe", 6, 2048, 256, _oracle,
            lambda inst, res: verify.check_oracle(*inst.args, res),
            lambda res: (res[0], matching_digest(res[1]) if res[1] is not None else None),
        ),
    )
}

