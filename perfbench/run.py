"""The repository benchmark: tune wall clock and mapping quality, and
the mapping service under a mixed cache-mode load.

    python3 perfbench/run.py --workload tune-ccd --seed 0 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``tune-ccd`` — CCD tunes of circuit and stencil on shepard-16n and of
  Figure 8's +7.1 % pennant overflow point on shepard-1n (spill off);
* ``tune-opentuner`` — OpenTuner ensemble tunes of the same circuit and
  stencil configurations;
* ``service-mix`` — two closed-loop HTTP clients replaying seeded
  scripts of misses, exact resubmissions and equivalence resubmissions
  against an in-process mapping service.

A tune workload repeats passes over its tunes until ``--seconds`` have
passed (at least one); the service workload replays its fixed-size
script once.  With ``--trace 0`` the run reports the end-to-end metrics:
the seconds of one pass (``pass_s``, see below), the geomean best
simulated makespan of the pass's tunes or service misses
(``best_mean_s``), the set-up time (``setup_s``: the median of five
set-ups, each an import of the program in a fresh interpreter plus the
graph and machine construction or the service start) and the process's
peak RSS.  The per-cache-mode service latencies and ``failed_frac`` are
printed above the result line.  With ``--trace 1`` it runs one untraced
and one traced pass and reports the per-layer metrics of the traced
pass, the tracing overhead, the share of wall clock no wrapped call
covers, and (service) the per-cache-mode latencies of the untraced pass.

``pass_s`` of a tune workload is the median pass wall clock scaled to a
reference CPU speed, ``wall * REFERENCE_PROBE_S / median(probes)``, with
an integer-loop probe taken before every tune (the raw wall clock is
printed above the result line).  On a shared 2-CPU host the CPUs run the
same code up to 1.5x slower for minutes at a time; over ten seeds the
scaled figure of tune-ccd spread 0.078 (IQR / median) where the raw wall
clock spread 0.217.  ``pass_s`` of service-mix is the raw wall clock of
the replay, whose spread was lower unscaled (0.076) than scaled (0.167).

Every run checks the program's outputs (see ``tunes.py`` and
``service_mix.py``); any mismatch makes ``correct`` false and the exit
status 1.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for service roots and span dumps (ignored by git).
WORK = ROOT / ".perfbench"

WORKLOADS = ("tune-ccd", "tune-opentuner", "service-mix")
SETUP_REPEATS = 5

END_TO_END = {
    "pass_s": "s",
    "best_mean_s": "sim_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bounds.lower_bound.calls": "count",
    "bounds.lower_bound.self_s": "s",
    "bounds.lower_bound.mean_ms": "ms",
    "bounds.quick_bound.calls": "count",
    "bounds.quick_bound.self_s": "s",
    "bounds.prune_yield": "ratio",
    "bounds.cost_ratio": "ratio",
    "simulator.run.calls": "count",
    "simulator.run.executions": "count",
    "simulator.run.self_s": "s",
    "simulator.run.mean_ms": "ms",
    "simulator.spill_plan.self_s": "s",
    "simulator.trace.self_s": "s",
    "incremental.replay_fraction": "ratio",
    "incremental.cost_hit_rate": "ratio",
    "engine.prepare.self_s": "s",
    "search.self_s": "s",
    "oracle.evaluate.calls": "count",
    "oracle.evaluate.self_s": "s",
    "oracle.settle_pruned.self_s": "s",
    "oracle.measure_more.self_s": "s",
    "oracle.simulations": "count",
    "oracle.bound_pruned": "count",
    "canonical.self_s": "s",
    "canonical.folds": "count",
    "memfeas.oom_reason.self_s": "s",
    "memfeas.oom_pruned": "count",
    "http.overhead_s": "s",
    "spec.build.self_s": "s",
    "fingerprint.workload.self_s": "s",
    "cache.lookup.self_s": "s",
    "cache.read.self_s": "s",
    "exact.spec_fingerprint_share": "ratio",
    "fingerprint.class_key.self_s": "s",
    "cache.lookup_equivalent.self_s": "s",
    "equivalence.prove.calls": "count",
    "equivalence.prove.self_s": "s",
    "equivalence.proof_yield": "ratio",
    "equivalence.pullback.self_s": "s",
    "cache.put.self_s": "s",
    "store.queue_wait_s": "s",
    "worker.execute.self_s": "s",
    "checkpoint.flush.calls": "count",
    "checkpoint.flush.self_s": "s",
    "service.miss_p50_s": "s",
    "service.miss_p90_s": "s",
    "service.exact_p50_s": "s",
    "service.exact_p90_s": "s",
    "service.equiv_p50_s": "s",
    "service.equiv_p90_s": "s",
    "trace.pass_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}


#: Thread CPU seconds :func:`cpu_probe` takes on the reference CPU (the
#: benchmark's 2-CPU development host in a quiet period).
REFERENCE_PROBE_S = 0.02


def cpu_probe() -> float:
    """Thread CPU seconds of a fixed integer loop: how fast the CPU runs
    pure Python right now.  Thread CPU time leaves out any wait for the
    CPU or the interpreter lock."""
    started = time.thread_time()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.thread_time() - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(module: str) -> float:
    """Seconds a fresh interpreter takes to import ``module`` (one of the
    benchmark's workload modules, which import the program)."""
    code = (
        "import sys, time; started = time.perf_counter(); "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import {module}; "
        "print(time.perf_counter() - started)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """What a workload run hands back for printing."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list = []
        self.metrics: dict = {}
        self.notes: dict = {}


# ----------------------------------------------------------------------
def run_tunes(args) -> Result:
    from layers import LayerProbe
    from stats import geomean, median
    from tracer import Tracer
    from tunes import (
        build,
        digest_key,
        load_digests,
        report_digest,
        resolve_configs,
        tune,
        tune_set,
    )

    result = Result()
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        configs = resolve_configs(args.workload)
        for config in configs:
            build(config)
        construct = time.perf_counter() - started
        setups.append(import_seconds("tunes") + construct)
    pairs = tune_set(args.workload, args.seed, configs)

    probes = []

    def one_pass(tracer=None):
        """Wall seconds of one pass (the tunes alone), the tunes' digests
        and best means; probes the CPU speed before every tune."""
        wall, digests, means = 0.0, [], []
        for config, seed in pairs:
            probes.append(cpu_probe())
            if tracer is not None:
                tracer.set_tag(digest_key(config, seed))
            started = time.perf_counter()
            report = tune(config, seed)
            wall += time.perf_counter() - started
            digests.append(report_digest(report))
            means.append(report.best_mean)
        return wall, digests, means

    walls, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, digests, means = one_pass()
        walls.append(wall)
        passes.append(digests)
        if args.trace or time.perf_counter() + median(walls) > deadline:
            break
    rss = peak_rss_mb()

    if args.trace:
        tracer = Tracer()
        layers = LayerProbe(tracer)
        layers.install()
        try:
            traced_wall, digests, _ = one_pass(tracer)
        finally:
            tracer.restore()
        passes.append(digests)
        layer = layers.metrics()
        layer["trace.pass_wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - walls[0]
        layer["trace.unattributed_frac"] = 1.0 - (
            layer["trace.attributed_s"] / traced_wall
        )
        result.notes["trace.spans"] = layer["trace.spans"]
        result.metrics = layer
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        result.metrics = {
            "pass_s": median(walls) * REFERENCE_PROBE_S / median(probes),
            "best_mean_s": geomean(means),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
        }
        result.notes["pass_wall_s"] = median(walls)
        result.notes["passes"] = len(walls)

    committed = load_digests()
    for i, (config, seed) in enumerate(pairs):
        key = digest_key(config, seed)
        expected = committed.get(key)
        if expected is None:
            expected = report_digest(tune(config, seed, reference=True))
        for digests in passes:
            result.attempted += 1
            if digests[i] != expected:
                result.problems.append(
                    f"{key}: digest {digests[i][:16]} differs from the "
                    f"reference path's {expected[:16]}"
                )
    result.notes["tunes_per_pass"] = len(pairs)
    return result


# ----------------------------------------------------------------------
def run_service(args) -> Result:
    import service_mix
    from layers import LayerProbe
    from stats import geomean, median, percentile
    from tracer import Tracer, covered
    from workloads import MODES, service_scripts

    result = Result()
    scripts = service_scripts(args.seed, service_mix.shepard_memories())
    WORK.mkdir(exist_ok=True)

    def fresh_root(label: str) -> Path:
        return WORK / f"service-{os.getpid()}-{label}"

    setups = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        service = service_mix.Service(fresh_root(f"setup{i}"))
        start = time.perf_counter() - started
        setups.append(import_seconds("service_mix") + start)
        if i < SETUP_REPEATS - 1:
            service.close()
    try:
        wall, outcomes = service_mix.replay(service.port, scripts)
    finally:
        service.close()
    rss = peak_rss_mb()
    result.problems += service_mix.check(outcomes)
    result.attempted += len(outcomes)

    latency = {}
    for mode in MODES:
        samples = service_mix.latencies(outcomes, mode)
        name = "miss" if mode == service_mix.MISS else mode
        for q in (50, 90):
            try:
                latency[f"service.{name}_p{q}_s"] = percentile(samples, q)
            except ValueError:
                # Failed requests thinned the sample; they already count
                # as failed, and the percentile reads null.
                latency[f"service.{name}_p{q}_s"] = None

    if not args.trace:
        result.metrics = {
            "pass_s": wall,
            "best_mean_s": geomean(service_mix.miss_best_means(outcomes)),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
        }
        result.notes.update(latency)
        return result

    tracer = Tracer()
    layers = LayerProbe(tracer)
    layers.install()
    service = service_mix.Service(fresh_root("traced"))
    try:
        traced_wall, traced = service_mix.replay(service.port, scripts)
    finally:
        service.close()
        tracer.restore()
    result.problems += service_mix.check(traced)
    result.attempted += len(traced)

    by_tag = {}
    for span in tracer.spans:
        by_tag.setdefault(span.tag, []).append(span)

    def server_time(*tags) -> float:
        """Server-side time a request (and its job) spent in wrapped
        calls: the union of its root spans, since polls overlap the
        worker's execution of the job they poll."""
        return covered(
            span for tag in tags for span in by_tag.get(tag, ()) if span.parent is None
        )

    def self_time(tag, names) -> float:
        own = tracer.self_times(by_tag.get(tag, []))
        return sum(t for span, t in own.items() if span.name in names)

    served = [o for o in traced if o.error is None]
    exact = [o for o in served if o.request.mode == service_mix.EXACT]
    layer = layers.metrics()
    layer.update(latency)
    if exact:
        layer["http.overhead_s"] = median([o.latency - server_time(o.tag) for o in exact])
        layer["exact.spec_fingerprint_share"] = median(
            [
                self_time(o.tag, ("spec.build", "fingerprint.workload")) / o.latency
                for o in exact
            ]
        )
    attributed = sum(server_time(o.tag, o.job_id) for o in served)
    total = sum(o.latency for o in served)
    layer["trace.pass_wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - wall
    layer["trace.unattributed_frac"] = 1.0 - attributed / total if total else 1.0
    result.notes["trace.spans"] = layer["trace.spans"]
    result.metrics = layer
    tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    return result


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runner = run_service if args.workload == "service-mix" else run_tunes
    result = runner(args)

    if args.trace:
        # The result line carries a number for every per-layer metric.  A
        # metric the workload does not produce (the service's on a tune
        # workload, a ratio with nothing to divide by) reads 0 and is
        # named on the "not produced" line.
        absent = [name for name in PER_LAYER if name not in result.metrics]
        if absent:
            print("not produced (reads 0): " + " ".join(absent))
        metrics = {
            name: {"value": result.metrics.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    failed = len(result.problems)
    for problem in result.problems:
        print(f"FAIL {problem}")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']} {entry['unit']}")
    for name, value in sorted(result.notes.items()):
        print(f"{name:36s} {value}")
    print(f"{'failed_frac':36s} {failed / max(1, result.attempted):.6g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
