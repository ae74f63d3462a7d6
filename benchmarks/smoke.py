"""CI benchmark smoke run — one short tune per application.

Runs a small CCD search for every bundled application, traces the
winning mapping, and writes ``BENCH_smoke.json`` (format
``bench-smoke-v3``) with the makespan, the oracle-call counts, the
compute/copy/idle breakdown, the search throughput (candidates/second)
and the incremental engine's effectiveness counters per app.  For the
speedup apps (circuit, stencil) the tune is additionally repeated with
incremental simulation disabled: the two runs must agree byte-for-byte
on the best mapping / mean / stddev / finalists, and the incremental
path must be at least ``SPEEDUP_FLOOR`` times faster.

With ``--baseline`` the run is gated two ways:

* any app whose best makespan regresses more than ``--tolerance``
  (default 10%) against the committed baseline fails the run (the
  makespan is simulated-clock, so this gate is deterministic);
* any app whose search throughput drops more than
  ``--throughput-tolerance`` (default 10%) below the baseline fails the
  run.  Throughput is compared *normalized*: in each round each app's
  candidates/second is divided by the round's geometric mean over the
  apps common to both runs, and the gate reads each app's median over
  the rounds, so a uniformly faster or slower runner cancels out and
  the gate fires only on per-app regressions.

Throughput is measured in ``--reps`` rounds, each tuning every app
once, so a slow spell of a shared host hits one round of every app
rather than every repetition of one app.  Each repetition is timed in
the search's thread CPU seconds (``time.thread_time``, which leaves
out waits for a CPU another process holds) scaled to a reference CPU
by a fixed integer-loop probe taken on either side of it, the probe of
``perfbench/run.py``: on a shared host the same code runs up to 2x
slower for seconds at a time, which moved unscaled per-app rates by
more than the tolerance between runs of unchanged code.  The
incremental-speedup floor compares medians of the same scaled CPU
seconds.  The median wall clock is recorded for human inspection.

A baseline in an older format (wall-clock rates) skips the throughput
gate with a note — regenerate to enable it.

Usage::

    python benchmarks/smoke.py --output BENCH_smoke.json \
        --baseline benchmarks/results/BENCH_baseline.json

Regenerate the baseline after an intentional change with::

    python benchmarks/smoke.py --reps 15 \
        --output benchmarks/results/BENCH_baseline.json

The baseline's own noise enters every comparison, so it takes more
rounds than a gate run: each round's normalized rate moves about 8%
on a shared host, and 15 baseline rounds against 7 gate rounds
failed none of 380 comparisons of recorded rounds of unchanged code,
where 5 against 5 failed 7%.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig

#: Per-application smoke configuration: input sizes, machine node count
#: and suggestion budget.  The speedup apps run on a larger machine with
#: more main-loop iterations — that is the regime where re-simulation
#: dominates tuning time and the incremental engine's advantage is
#: measured (gated at SPEEDUP_FLOOR).
SMOKE_CONFIGS = {
    "circuit": {
        "inputs": {"nodes": 200, "wires": 800, "iterations": 4},
        "nodes": 16,
        "max_suggestions": 300,
    },
    "stencil": {
        "inputs": {"nx": 200, "ny": 200, "iterations": 6},
        "nodes": 16,
        "max_suggestions": 300,
    },
    "pennant": {
        "inputs": {"zx": 64, "zy": 36},
        "nodes": 1,
        "max_suggestions": 150,
    },
    "htr": {
        "inputs": {"x": 8, "y": 8, "z": 9},
        "nodes": 1,
        "max_suggestions": 150,
    },
    "maestro": {
        "inputs": {"lf_count": 4, "lf_res": 16},
        "nodes": 1,
        "max_suggestions": 150,
    },
}

#: Apps whose incremental-vs-full speedup is asserted every run.
SPEEDUP_APPS = ("circuit", "stencil")

#: Minimum incremental-vs-full throughput ratio for the speedup apps.
#: The A/B times whole tunes, so the per-candidate work both arms share
#: (the quick bound, canonicalization) dilutes the ratio below what
#: simulation alone would show.
SPEEDUP_FLOOR = 2.5

SEED = 7
FORMAT = "bench-smoke-v3"

#: Thread CPU seconds :func:`cpu_probe` takes on the reference CPU.
REFERENCE_PROBE_S = 0.02


def cpu_probe() -> float:
    """Thread CPU seconds of a fixed integer loop: how fast the CPU runs
    pure Python right now."""
    started = time.thread_time()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.thread_time() - started


def _tune(app_name: str, incremental: bool, bound_prune: bool = True):
    """One short tune; returns (report, cpu_seconds, wall_seconds,
    stats), with the search's thread CPU seconds scaled to the reference
    CPU by the mean of a probe before and after it."""
    config = SMOKE_CONFIGS[app_name]
    machine = shepard(config["nodes"])
    app = make_app(app_name, **config["inputs"])
    request = TuneRequest(
        app.graph(machine),
        machine,
        algorithm="ccd",
        oracle_config=OracleConfig(
            max_suggestions=config["max_suggestions"]
        ),
        sim_config=SimConfig(
            noise_sigma=0.04,
            seed=SEED,
            spill=True,
            incremental=incremental,
        ),
        space=app.space(machine),
        seed=SEED,
        trace=True,
        bound_prune=bound_prune,
    )
    engine = TuningEngine()
    prepared = engine.prepare(request)
    probe = cpu_probe()
    cpu_started = time.thread_time()
    started = time.perf_counter()
    report = engine.run(prepared)
    wall = time.perf_counter() - started
    cpu = time.thread_time() - cpu_started
    probe = (probe + cpu_probe()) / 2
    cpu *= REFERENCE_PROBE_S / probe
    return report, cpu, wall, prepared.simulator.incremental_stats


def _summarize(runs):
    """(report, median cpu_seconds, median wall_seconds, stats) of
    repetitions of one tune.  Results are deterministic, only the clocks
    vary, so the first repetition's report and stats stand for all."""
    report, _, _, stats = runs[0]
    cpu = statistics.median(run[1] for run in runs)
    wall = statistics.median(run[2] for run in runs)
    return report, cpu, wall, stats


def _tune_median_of(
    app_name: str, incremental: bool, reps: int, bound_prune: bool = True
):
    """Repeat one tune; see :func:`_summarize`."""
    return _summarize(
        [_tune(app_name, incremental, bound_prune) for _ in range(max(1, reps))]
    )


def _throughput_rounds(apps, reps: int) -> dict:
    """``reps`` rounds, each tuning every app once: app -> its runs."""
    runs = {app_name: [] for app_name in apps}
    for _ in range(max(1, reps)):
        for app_name in apps:
            runs[app_name].append(_tune(app_name, True))
    return runs


def _report_fingerprint(report):
    """Everything the identity assertion compares, floats exact."""
    return (
        report.best_mapping.key(),
        report.best_mean.hex(),
        report.best_stddev.hex(),
        tuple(
            (mapping.key(), mean.hex(), stddev.hex(), count)
            for mapping, mean, stddev, count in report.finalists
        ),
        report.suggested,
        report.simulations,
    )


def run_app(app_name: str, runs: list, reps: int) -> dict:
    """One smoke entry from the app's throughput ``runs``; for speedup
    apps also the full-mode rerun with the identity and speedup
    assertions."""
    report, cpu, wall, stats = _summarize(runs)
    assert report.breakdown is not None
    suggested = report.suggested
    entry = {
        "application": report.application,
        "machine": report.machine_name,
        "algorithm": report.algorithm,
        "best_mean": report.best_mean,
        "best_makespan": report.breakdown["makespan"],
        "cpu_seconds": cpu,
        "wall_seconds": wall,
        "candidates_per_second": suggested / cpu if cpu > 0 else 0.0,
        "round_rates": [suggested / run[1] for run in runs if run[1] > 0],
        "incremental": stats.as_dict(),
        "oracle_calls": {
            "suggested": report.suggested,
            "evaluated": report.evaluated,
            "invalid": report.invalid_suggestions,
            "failed": report.failed_evaluations,
            "folded": report.canonical_folds,
            "pruned": report.static_oom_pruned,
            "bound_pruned": report.bound_pruned,
            "bound_settled": report.bound_settled,
            "simulations": report.simulations,
        },
        "analysis": {
            # Machine-symmetry orbit folds (0 on asymmetric machines,
            # pinned: shepard's CPU/GPU sides are never interchangeable).
            "symmetry_folds": report.symmetry_folds,
        },
        "breakdown": {
            "compute_fraction": report.breakdown["compute_fraction"],
            "copy_fraction": report.breakdown["copy_fraction"],
            "overhead_fraction": report.breakdown["overhead_fraction"],
            "idle_fraction": report.breakdown["idle_fraction"],
            "active_processors": report.breakdown["active_processors"],
        },
    }
    if app_name in SPEEDUP_APPS:
        # The incremental-vs-full A/B runs without bound pruning: the
        # engine's advantage is measured in its target regime, where
        # re-simulation (not static analysis) dominates tuning time.
        inc_report, inc_cpu, inc_wall, _ = _tune_median_of(
            app_name, True, reps, bound_prune=False
        )
        full_report, full_cpu, full_wall, _ = _tune_median_of(
            app_name, False, reps, bound_prune=False
        )
        if _report_fingerprint(inc_report) != _report_fingerprint(full_report):
            raise AssertionError(
                f"{app_name}: incremental and full tuning disagree — "
                "identity contract broken"
            )
        speedup = full_cpu / inc_cpu if inc_cpu > 0 else 0.0
        entry["identity"] = {
            "incremental_cpu_seconds": inc_cpu,
            "full_cpu_seconds": full_cpu,
            "incremental_wall_seconds": inc_wall,
            "full_wall_seconds": full_wall,
            "speedup": speedup,
            "identical": True,
        }
        if speedup < SPEEDUP_FLOOR:
            raise AssertionError(
                f"{app_name}: incremental speedup {speedup:.2f}x below "
                f"the {SPEEDUP_FLOOR:.1f}x floor (incremental "
                f"{inc_cpu:.2f} vs full {full_cpu:.2f} CPU seconds)"
            )
    return entry


def _geomean(values) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


def _normalized(apps: dict, common: list) -> dict:
    """Each app's median over the rounds of its rate divided by the
    round's geometric mean over ``common``."""
    rounds = min((len(apps[name]["round_rates"]) for name in common), default=0)
    shares = {name: [] for name in common}
    for k in range(rounds):
        norm = _geomean([apps[name]["round_rates"][k] for name in common])
        for name in common:
            shares[name].append(apps[name]["round_rates"][k] / norm)
    return {name: statistics.median(share) for name, share in shares.items()}


def check_regressions(
    results: dict,
    baseline: dict,
    tolerance: float,
    throughput_tolerance: float,
) -> list:
    """Gate failures of ``results`` vs ``baseline``.

    Only the apps actually run are gated (``--apps`` subsets compare a
    subset); an app without a baseline entry is skipped — it gets one
    the next time the baseline is regenerated.  Baselines in an older
    format carry no CPU-time rates, so only the makespan gate runs.
    """
    failures = []
    old_baseline = baseline.get("format") != FORMAT
    if old_baseline:
        print(
            f"note: baseline format {baseline.get('format')} is not "
            f"{FORMAT}; throughput gate skipped — regenerate the "
            "baseline to enable it"
        )

    # Normalized over the apps present in both runs: dividing each app's
    # rate by its round's geometric mean cancels absolute machine speed,
    # leaving only per-app shifts for the gate.
    common = [
        name
        for name, current in results["apps"].items()
        if not old_baseline
        and current.get("round_rates")
        and baseline["apps"].get(name, {}).get("round_rates")
    ]
    now_rel = _normalized(results["apps"], common)
    base_rel = _normalized(baseline["apps"], common)
    if common and len(common) < 2:
        print(
            "note: only one app in common with the baseline; "
            "normalized throughput gate is vacuous for a single app"
        )

    for app_name, current in sorted(results["apps"].items()):
        entry = baseline["apps"].get(app_name)
        if entry is None:
            print(f"note: {app_name} has no baseline entry; skipping gate")
            continue
        base = entry["best_mean"]
        now = current["best_mean"]
        if base > 0 and now > base * (1.0 + tolerance):
            failures.append(
                f"{app_name}: best mean {now:.6g} s regressed "
                f"{now / base - 1.0:.1%} over baseline {base:.6g} s "
                f"(tolerance {tolerance:.0%})"
            )
        if app_name not in common:
            continue
        now, base = now_rel[app_name], base_rel[app_name]
        if now < base * (1.0 - throughput_tolerance):
            failures.append(
                f"{app_name}: normalized throughput {now:.2f} "
                f"dropped {1.0 - now / base:.1%} below baseline "
                f"{base:.2f} (median "
                f"{current['candidates_per_second']:.1f} vs "
                f"{entry['candidates_per_second']:.1f} cand/s, "
                f"tolerance {throughput_tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_smoke.json",
        help="where to write the results (default: BENCH_smoke.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline to gate against (omit to skip the gate)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional makespan regression (default: 0.10)",
    )
    parser.add_argument(
        "--throughput-tolerance",
        type=float,
        default=0.10,
        help="allowed fractional candidates/second drop (default: 0.10)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=7,
        help="timing rounds (throughput) and repetitions (speedup A/B); "
        "medians are kept (default: 7)",
    )
    parser.add_argument(
        "--apps",
        nargs="*",
        default=sorted(SMOKE_CONFIGS),
        choices=sorted(SMOKE_CONFIGS),
        help="subset of applications to run",
    )
    args = parser.parse_args(argv)

    results = {
        "format": FORMAT,
        "seed": SEED,
        "speedup_floor": SPEEDUP_FLOOR,
        "apps": {},
    }
    rounds = _throughput_rounds(args.apps, args.reps)
    for app_name in args.apps:
        entry = run_app(app_name, rounds[app_name], args.reps)
        results["apps"][app_name] = entry
        identity = entry.get("identity")
        speedup_note = (
            f", {identity['speedup']:.2f}x vs full (identical)"
            if identity
            else ""
        )
        print(
            f"{app_name}: best {entry['best_mean']:.6g} s, "
            f"{entry['oracle_calls']['suggested']} suggested / "
            f"{entry['oracle_calls']['evaluated']} evaluated / "
            f"{entry['oracle_calls']['bound_pruned']} bound-pruned, "
            f"{entry['candidates_per_second']:.1f} cand/s, "
            f"sym-folds {entry['analysis']['symmetry_folds']}, "
            f"cost-hit {entry['incremental']['cost_hit_rate']:.0%} / "
            f"program-hit {entry['incremental']['program_hit_rate']:.0%}"
            f"{speedup_note}"
        )

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"FAIL: baseline {baseline_path} not found")
            return 1
        baseline = json.loads(baseline_path.read_text())
        failures = check_regressions(
            results, baseline, args.tolerance, args.throughput_tolerance
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"no regressions vs {baseline_path} (makespan tolerance "
            f"{args.tolerance:.0%}, throughput tolerance "
            f"{args.throughput_tolerance:.0%})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
