"""geomatch benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload transform --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` next
to this directory and nowhere else.  One caller, one thread, one process:
each operation starts when the previous one has returned and been checked.

``--trace 0`` times the operations untraced, scales the times to a reference
host speed (see speed.py) and reports the end-to-end metrics.  ``--trace 1``
runs every instance untraced and traced back to back and reports the
per-layer metrics (see README.md) and the tracing overhead.

Standard output: a ``# meta`` line with the run's metadata, one line per
metric (name, value, unit), and last one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import speed
from tracer import COUNTED, SPANS, Tracer
from verify import VerificationError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FAILURES = ROOT / ".bench_failures"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: units of the timing figures taken over passes
UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
#: a span is flagged as distorted when the wrapper cost inside its self time
#: exceeds this share of it
DISTORTION_SHARE = 0.10


def load_library():
    """Import geomatch from this checkout's ``src``; exit if it is absent."""
    src = ROOT / "src"
    if not (src / "geomatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no geomatch package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import geomatch

    if Path(geomatch.__file__).resolve().parent != (src / "geomatch").resolve():
        raise SystemExit(f"error: imported geomatch from {geomatch.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# metadata


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# operations


class Session:
    """Runs operations on one pool, checks every output and counts failures.

    An instance's first output is verified in full; later outputs for the
    same instance must equal it exactly.  Checks run outside the timed call.
    """

    def __init__(self, workload, pool, seed: int):
        self.workload = workload
        self.pool = pool
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.verified: dict[int, object] = {}

    def op(self, i: int):
        """Run the i-th operation; return (seconds, output, digest), with
        output and digest None when the operation failed."""
        wl = self.workload
        inst = self.pool.instances[i % len(self.pool.instances)]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.call(inst)
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            self._fail(inst, f"raised {type(exc).__name__}: {exc}")
            return dt, None, None
        dt = time.perf_counter() - t0
        try:
            digest = wl.digest(out)
            known = self.verified.get(inst.index)
            if known is None:
                wl.check(inst, out)
                self.verified[inst.index] = digest
            elif known != digest:
                raise VerificationError("output differs from an earlier run on the same instance")
        except VerificationError as exc:
            self._fail(inst, str(exc))
            return dt, None, None
        return dt, out, digest

    def _fail(self, inst, reason: str) -> None:
        self.failed += 1
        FAILURES.mkdir(exist_ok=True)
        path = FAILURES / f"{self.workload.name}-seed{self.seed}-instance{inst.index}.txt"
        path.write_text(f"# {reason}\n" + self.workload.dump(inst))
        print(f"FAILED {self.workload.name} instance {inst.index}: {reason} (written to {path})", file=sys.stderr)


def set_up(workload, seed: int, reps: int = SETUP_REPS):
    """Build the pool and warm up, ``reps`` times; every build of one seed
    must give the same instances.  Returns the pool, each set-up's seconds
    as timed, the speed factor around each, and whether all builds agree."""
    times, factors, digests, pool = [], [], set(), None
    for _ in range(reps):
        before = speed.factor_now()
        t0 = time.perf_counter()
        built = workload.build_pool(seed)
        workload.call(built.instances[0])
        times.append(time.perf_counter() - t0)
        factors.append((before + speed.factor_now()) / 2)
        digests.add(built.digest())
        pool = pool or built
    return pool, times, factors, len(digests) == 1


def percentile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def mean_quality(workload, outputs) -> dict[str, float]:
    figures: dict[str, list[float]] = {}
    for out in outputs:
        for key, value in workload.quality(out).items():
            figures.setdefault(key, []).append(value)
    return {key: statistics.fmean(values) for key, values in figures.items()}


# ---------------------------------------------------------------------------
# the two kinds of run


def instance_latencies(passes: list[list[float]]) -> list[float]:
    """Each instance's median time over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


def timing_figures(passes: list[list[float]]) -> dict[str, float]:
    """End-to-end timing figures from whole passes over one pool.

    Throughput is the median over passes.  An instance's latency is the
    median of its passes; the percentiles are taken over instances.
    """
    per_instance = instance_latencies(passes)
    return {
        "throughput_ops_s": statistics.median(len(p) / sum(p) for p in passes),
        "latency_p50_ms": 1e3 * statistics.median(per_instance),
        "latency_p90_ms": 1e3 * percentile_90(per_instance),
    }


def untraced_run(args, workload, import_s: float):
    pool, setup_times, setup_factors, same_pool = set_up(workload, args.seed)
    session = Session(workload, pool, args.seed)
    size = len(pool.instances)
    # whole passes over the pool, as many as fill --seconds at the speed of
    # the first; every pass times the same instances.  The calibration loop
    # runs after each operation, outside the timed call.
    durations: list[float] = []
    loop_times: list[float] = []
    first_outputs = []
    planned = 1
    while len(durations) < planned * size:
        i = len(durations)
        dt, out, _ = session.op(i)
        durations.append(dt)
        loop_times.append(speed.calibrate())
        if out is not None and i < workload.count_ops:
            first_outputs.append(out)
        if i + 1 == size:
            planned = max(1, round(args.seconds / sum(durations)))
    factors = speed.factors(loop_times)
    scaled = [d * f for d, f in zip(durations, factors)]
    passes = [scaled[k : k + size] for k in range(0, len(scaled), size)]
    raw_passes = [durations[k : k + size] for k in range(0, len(durations), size)]
    setup = [t * f for t, f in zip(setup_times, setup_factors)]
    metrics = {
        "setup_s": (import_s * setup_factors[0] + statistics.median(setup), "s"),
        **{name: (value, UNITS[name]) for name, value in timing_figures(passes).items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "import_s_as_timed": import_s,
        "setup_runs_s_as_timed": setup_times,
        "setup_speed_factors": setup_factors,
        "as_timed": {
            "setup_s": import_s + statistics.median(setup_times),
            **timing_figures(raw_passes),
        },
        "speed_factor_median": statistics.median(factors),
        "same_instances_every_setup": same_pool,
        "pool_digest": pool.digest(),
        "instances": len(pool.instances),
        "instances_regenerated": pool.regenerated,
        "instances_sheared": pool.sheared,
        "ops_attempted": session.attempted,
        "passes": len(passes),
        "busy_s_as_timed": sum(durations),
        "latency_samples": size,
        "samples_beyond_p90": sum(
            x > metrics["latency_p90_ms"][0] / 1e3 for x in instance_latencies(passes)
        ),
        "error_rate": session.failed / session.attempted,
        "quality_first_ops": mean_quality(workload, first_outputs),
    }
    return session, metrics, extra, same_pool


def traced_run(args, workload):
    from workloads import QUALITY_UNITS

    pool, _, _, _ = set_up(workload, args.seed, reps=1)
    tracer = Tracer()
    before = speed.factor_now()
    with tracer:
        traced_pool = workload.build_pool(args.seed)
    setup_factor = (before + speed.factor_now()) / 2
    same_pool = traced_pool.digest() == pool.digest()
    validate = tracer.stats["geom_core.validate_general_position"]
    setup_validate = (validate.self_s * setup_factor, validate.calls)
    tracer.reset()

    # each instance runs untraced and traced back to back, in alternating
    # order, so drift in machine speed cancels out of the overhead ratio
    session = Session(workload, pool, args.seed)
    count_ops = workload.count_ops
    busy = {False: 0.0, True: 0.0}
    loop_times: list[float] = []
    ops, same_outputs, first_outputs, at_count = 0, True, [], None
    while sum(busy.values()) < args.seconds or ops < count_ops:
        digests = {}
        for traced in (False, True) if ops % 2 == 0 else (True, False):
            if traced:
                with tracer:
                    dt, out, digests[traced] = session.op(ops)
            else:
                dt, _, digests[traced] = session.op(ops)
            busy[traced] += dt
        loop_times.append(speed.calibrate())
        same_outputs &= digests[False] == digests[True]
        if ops < count_ops and out is not None:
            first_outputs.append(out)
        ops += 1
        if ops == count_ops:
            at_count = copy.deepcopy(tracer.stats)
    untraced_s, traced_s = busy[False], busy[True]
    factor = statistics.median(speed.factors(loop_times))

    metrics: dict[str, tuple[float, str]] = {}
    for module, qualname, _ in SPANS:
        key = f"{module}.{qualname}"
        if key == "geom_core.validate_general_position":
            metrics[key + ".self_s"] = (setup_validate[0], "s")
            metrics[key + ".calls"] = (setup_validate[1], "count")
            continue
        metrics[key + ".self_s"] = (tracer.stats[key].self_s * factor / ops, "s")
        metrics[key + ".calls"] = (at_count[key].calls / count_ops, "count")
    for module, qualname in COUNTED:
        key = f"{module}.{qualname}"
        metrics[key + ".calls"] = (at_count[key].calls / count_ops, "count")
    extend_counts = at_count["subdivision.extend"].counters
    metrics["subdivision.extend.rays"] = (extend_counts.get("rays", 0) / count_ops, "count")
    metrics["subdivision.extend.cells"] = (extend_counts.get("cells", 0) / count_ops, "count")
    for key in ("matching_engine.constrained_matching", "oracle.has_disjoint_compatible_pm"):
        calls, found = at_count[key].calls, at_count[key].counters.get("found", 0)
        metrics[key + ".found_ratio"] = (found / calls if calls else 0.0, "ratio")
    quality = mean_quality(workload, first_outputs)
    for key, unit in QUALITY_UNITS.items():
        metrics[key] = (quality.get(key, 0.0), unit)
    metrics["tracer.throughput_ratio"] = (untraced_s / traced_s, "ratio")

    # a span's self time holds part of its own wrappers' cost and all of the
    # counting wrappers' cost for counted calls it makes directly
    span_cost, counter_cost = tracer.wrapper_costs()
    wrapper_cost = {
        key: (at_count[key].calls * span_cost + at_count[key].counted * counter_cost) / count_ops
        for key in (f"{m}.{q}" for m, q, _ in SPANS)
        if key != "geom_core.validate_general_position"
    }
    distorted = sorted(
        key
        for key, cost in wrapper_cost.items()
        if cost > DISTORTION_SHARE * tracer.stats[key].self_s / ops > 0
    )
    extra = {
        "instances": len(pool.instances),
        "instances_regenerated": pool.regenerated,
        "instances_sheared": pool.sheared,
        "ops_each_way": ops,
        "speed_factor_median": factor,
        "untraced_busy_s": untraced_s,
        "traced_busy_s": traced_s,
        "ops_counted": count_ops,
        "ops_attempted": session.attempted,
        "error_rate": session.failed / session.attempted,
        "same_instances_traced_setup": same_pool,
        "same_outputs_traced_untraced": same_outputs,
        "span_wrapper_cost_s": span_cost,
        "counter_wrapper_cost_s": counter_cost,
        "wrapper_cost_per_op_s": sum(wrapper_cost.values()),
        "distorted_self_s": distorted,
    }
    return session, metrics, extra, same_pool and same_outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    import workloads

    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.trace:
        session, metrics, extra, consistent = traced_run(args, workload)
    else:
        session, metrics, extra, consistent = untraced_run(args, workload, import_s)

    print("# meta " + json.dumps({**metadata(args), **extra}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": consistent and session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
