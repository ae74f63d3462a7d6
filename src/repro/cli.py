"""Command-line interface.

Usage (installed as a module)::

    python -m repro tune --app pennant --input 320x720 --nodes 2
    python -m repro inspect --app htr --input 16x16y18z
    python -m repro trace out/trace.json
    python -m repro machines
    python -m repro serve --root /var/lib/automap --workers 2
    python -m repro submit --app stencil --input 500x500 --wait
    python -m repro cache ls --root /var/lib/automap

``tune`` runs the full AutoMap pipeline and prints the tuning report
plus the diff against the default mapping; ``inspect`` prints the
application's graph summary and Figure 5 row without searching;
``trace`` renders a saved execution trace (``tune --trace``) as an
ASCII Gantt chart; ``machines`` lists the bundled machine models;
``serve`` runs the mapping service (async job API over HTTP with a
content-addressed result cache, see :mod:`repro.service`); ``submit``
is the matching client; ``cache`` inspects or purges a service's result
cache offline.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional

from repro.apps import APP_REGISTRY, make_app
from repro.core import AutoMapSession, OracleConfig, TuningEngine
from repro.core.engine import ALGORITHMS
from repro.machine import MACHINE_ZOO
from repro.runtime import OOMError, SimConfig
from repro.util.logging import configure as configure_logging
from repro.viz import render_mapping, render_mapping_diff

__all__ = [
    "main",
    "build_parser",
    "parse_app_input",
    "parse_gen_params",
    "parse_machine_params",
]

_MACHINES = dict(MACHINE_ZOO)


def parse_app_input(app_name: str, label: Optional[str]) -> dict:
    """Translate a paper-style input label into app constructor kwargs.

    ``circuit``: ``n{nodes}w{wires}``; ``stencil``/``pennant``:
    ``{x}x{y}``; ``htr``: ``{x}x{y}y{z}z``; ``maestro``:
    ``{count}x{res}`` (LF samples x resolution).  ``None`` keeps the
    application's defaults.
    """
    if label is None:
        return {}
    if app_name == "circuit":
        match = re.fullmatch(r"n(\d+)w(\d+)", label)
        if match:
            return {"nodes": int(match.group(1)), "wires": int(match.group(2))}
    elif app_name == "stencil":
        match = re.fullmatch(r"(\d+)x(\d+)", label)
        if match:
            return {"nx": int(match.group(1)), "ny": int(match.group(2))}
    elif app_name == "pennant":
        match = re.fullmatch(r"(\d+)x(\d+)", label)
        if match:
            return {"zx": int(match.group(1)), "zy": int(match.group(2))}
    elif app_name == "htr":
        match = re.fullmatch(r"(\d+)x(\d+)y(\d+)z", label)
        if match:
            return {
                "x": int(match.group(1)),
                "y": int(match.group(2)),
                "z": int(match.group(3)),
            }
    elif app_name == "maestro":
        match = re.fullmatch(r"(\d+)x(\d+)", label)
        if match:
            return {
                "lf_count": int(match.group(1)),
                "lf_res": int(match.group(2)),
            }
    raise SystemExit(
        f"cannot parse input {label!r} for application {app_name!r} "
        "(paper apps take paper-style labels; generator families are "
        "parameterised with --gen-param K=V instead)"
    )


def _coerce_param(raw: str):
    """``--gen-param`` value coercion: bool, int, float, then string."""
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_gen_params(pairs) -> dict:
    """Parse repeated ``--gen-param key=value`` flags into app kwargs."""
    out = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key.isidentifier():
            raise SystemExit(
                f"--gen-param expects KEY=VALUE with an identifier key, "
                f"got {pair!r}"
            )
        out[key] = _coerce_param(raw.strip())
    return out


def parse_machine_params(pairs) -> dict:
    """Parse repeated ``--machine-param SECTION:KEY=VALUE`` flags into a
    ``machine_params`` override document (``name=VALUE`` is the one
    keyless form).  Section/uid validation happens server-side in
    :func:`repro.machine.overrides.apply_machine_params`."""
    out: dict = {}
    for pair in pairs or []:
        head, sep, raw = pair.partition("=")
        value = raw.strip()
        if not sep:
            raise SystemExit(
                f"--machine-param expects SECTION:KEY=VALUE (or "
                f"name=VALUE), got {pair!r}"
            )
        section, colon, key = head.partition(":")
        section = section.strip()
        key = key.strip()
        if not colon:
            if section != "name":
                raise SystemExit(
                    f"--machine-param expects SECTION:KEY=VALUE (only "
                    f"'name' takes a bare value), got {pair!r}"
                )
            out["name"] = value
            continue
        if not section or not key:
            raise SystemExit(
                f"--machine-param expects SECTION:KEY=VALUE, got {pair!r}"
            )
        # Capacities may stay strings ("128 GiB"); numbers coerce.
        out.setdefault(section, {})[key] = _coerce_param(value)
    return out


def _make_app(args):
    """Construct the requested app from --input and --gen-param flags."""
    kwargs = parse_app_input(args.app, args.input)
    kwargs.update(parse_gen_params(getattr(args, "gen_param", None)))
    try:
        return make_app(args.app, **kwargs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"repro {args.command}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AutoMap reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--app", required=True, choices=sorted(APP_REGISTRY)
        )
        p.add_argument(
            "--input", default=None, help="paper-style input label"
        )
        p.add_argument(
            "--machine", default="shepard", choices=sorted(_MACHINES)
        )
        p.add_argument("--nodes", type=int, default=1)
        p.add_argument(
            "--gen-param",
            action="append",
            default=[],
            metavar="K=V",
            help="app constructor knob (repeatable), e.g. "
            "--gen-param layers=8 --gen-param parts=1; values parse "
            "as bool/int/float before falling back to strings",
        )

    tune = sub.add_parser("tune", help="run the AutoMap search")
    add_common(tune)
    tune.add_argument(
        "--algorithm",
        default="ccd",
        choices=ALGORITHMS,
    )
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--max-suggestions", type=int, default=20_000
    )
    tune.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for parallel candidate evaluation "
        "(1 = serial; results are identical either way)",
    )
    tune.add_argument("--workdir", default=None)
    tune.add_argument(
        "--resume",
        default=None,
        metavar="WORKDIR",
        help="resume a checkpointed tuning run from WORKDIR (implies "
        "--workdir WORKDIR); the resumed search replays the "
        "checkpoint deterministically and finishes bit-identically "
        "to an uninterrupted run with the same seed",
    )
    tune.add_argument(
        "--checkpoint-every",
        type=int,
        default=25,
        metavar="N",
        help="with a workdir, snapshot the full search state to "
        "checkpoint.json every N evaluations (atomically replaced; "
        "0 = only at interrupt and at the end)",
    )
    tune.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-candidate wall-clock limit for worker-pool results; "
        "a hung worker is terminated, the pool rebuilt, and the "
        "candidate retried (default: wait forever)",
    )
    tune.add_argument(
        "--trace",
        action="store_true",
        help="with a workdir, export the best mapping's simulated "
        "execution as <workdir>/trace.json (Chrome trace-event JSON, "
        "loadable in chrome://tracing or Perfetto); purely "
        "observational — the tuning result is byte-identical",
    )
    tune.add_argument(
        "--no-spill",
        action="store_true",
        help="fail (instead of demoting) mappings that exceed capacity",
    )
    tune.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable incremental re-simulation (per-launch cost "
        "memoisation, spill/noise/validation caches); "
        "reports, traces and checkpoints are byte-identical either "
        "way — this is the slow reference path the CI identity gate "
        "compares against",
    )
    tune.add_argument(
        "--no-static-prune",
        action="store_true",
        help="disable the static analysis layer (memory feasibility "
        "short-circuit, equivalence canonicalization, search-space "
        "pruning); results are identical, just slower",
    )
    tune.add_argument(
        "--no-bound-prune",
        action="store_true",
        help="disable bound-based pruning (skipping candidates whose "
        "static makespan lower bound already exceeds the incumbent); "
        "results are identical, just more simulations",
    )
    tune.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's metrics registry to FILE in Prometheus "
        "text exposition format (e.g. metrics.prom)",
    )
    tune.add_argument("--verbose", action="store_true")

    inspect = sub.add_parser(
        "inspect", help="print the application's graph and search space"
    )
    add_common(inspect)

    analyze = sub.add_parser(
        "analyze",
        help="run the static analysis passes (sanitizer, equivalence, "
        "memory feasibility) without searching",
    )
    analyze.add_argument("--app", choices=sorted(APP_REGISTRY))
    analyze.add_argument(
        "--input", default=None, help="paper-style input label"
    )
    analyze.add_argument(
        "--machine", default="shepard", choices=sorted(_MACHINES)
    )
    analyze.add_argument("--nodes", type=int, default=1)
    analyze.add_argument(
        "--gen-param",
        action="append",
        default=[],
        metavar="K=V",
        help="app constructor knob (repeatable); see `tune --help`",
    )
    analyze.add_argument(
        "--mapping",
        action="append",
        default=[],
        metavar="FILE",
        help="mapping JSON file(s) to lint against the graph/machine "
        "(repeatable)",
    )
    analyze.add_argument(
        "--fail-on",
        default="error",
        choices=["info", "warning", "error"],
        help="exit non-zero when a diagnostic at or above this severity "
        "is reported (default: error)",
    )
    analyze.add_argument(
        "--bounds",
        action="store_true",
        help="also run the cost-bound analyzer (AM4xx): makespan "
        "lower bounds and mandatory traffic compared against the "
        "default mapping's simulated makespan",
    )
    analyze.add_argument(
        "--equivalence",
        action="store_true",
        help="also run the workload-equivalence analyzer (AM6xx): "
        "provably-unobservable capacity slack, resources no searched "
        "mapping can touch, and verified machine automorphisms — the "
        "lemmas behind the service's near-equivalent cache hits",
    )
    analyze.add_argument(
        "--list-rules",
        action="store_true",
        help="print the diagnostic rule registry, grouped by analysis "
        "pass with a one-line description per rule, and exit",
    )

    trace = sub.add_parser(
        "trace",
        help="render a saved trace.json as an ASCII Gantt chart with "
        "the compute/copy/overhead/idle breakdown",
    )
    trace.add_argument(
        "path", help="trace.json exported by `repro tune --trace`"
    )
    trace.add_argument(
        "--width",
        type=int,
        default=72,
        metavar="COLUMNS",
        help="timeline width of the Gantt chart (default: 72)",
    )
    trace.add_argument(
        "--diff",
        default=None,
        metavar="OTHER",
        help="compare against a second trace.json span-by-span instead "
        "of rendering; exits 1 when the traces differ (the "
        "incremental-identity CI gate uses this)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="soundness fuzzing: seeded random (generator, machine, "
        "search-config) cases checked against the bound/canonical/"
        "relabel/resume/parallel/equivalence invariants",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; case i is a pure function of (seed, i) "
        "(default: 0)",
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=50,
        metavar="N",
        help="number of random cases to run (default: 50)",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="replay the fuzz-case JSON file or corpus directory "
        "instead of sampling random cases (the CI regression gate "
        "replays tests/property/corpus/)",
    )
    fuzz.add_argument(
        "--invariant",
        action="append",
        default=None,
        choices=[
            "bound",
            "canonical",
            "relabel",
            "resume",
            "parallel",
            "equivalence",
        ],
        metavar="NAME",
        help="check only this invariant (repeatable; default: all six; "
        "'parallel' asserts --workers 2 and --no-incremental runs are "
        "bit-identical to the serial incremental run; 'equivalence' "
        "asserts AM6xx-proved workload pairs tune bit-identically — "
        "the contracts behind the service cache)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases as sampled, without minimising them",
    )
    fuzz.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write each failing case (shrunk when shrinking is on) "
        "as a replayable JSON file into DIR",
    )

    serve = sub.add_parser(
        "serve",
        help="run the mapping service: an HTTP job API over the tuning "
        "engine with a content-addressed result cache",
    )
    serve.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="service state directory (holds jobs/ and cache/; jobs "
        "found running after a crash resume from their checkpoints)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8432,
        help="listen port (0 = pick an ephemeral port; the bound "
        "address is printed on startup)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="job-worker threads draining the queue concurrently "
        "(claims are atomic, so no job ever runs twice; default: 1)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        default=None,
        metavar="SIZE",
        help="result-cache size budget, e.g. '256 MiB' or a byte "
        "count; least-recently-used entries are evicted atomically "
        "on publish (default: unbounded)",
    )
    serve.add_argument("--verbose", action="store_true")

    submit = sub.add_parser(
        "submit",
        help="submit a tuning job to a running `repro serve` instance",
    )
    add_common(submit)
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8432",
        help="service base URL (default: http://127.0.0.1:8432)",
    )
    submit.add_argument(
        "--algorithm",
        default="ccd",
        choices=ALGORITHMS,
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--max-suggestions", type=int, default=20_000)
    submit.add_argument(
        "--workers",
        type=int,
        default=1,
        help="server-side process-pool size for this job (execution "
        "knob: does not change the result or the cache key)",
    )
    submit.add_argument(
        "--machine-param",
        action="append",
        default=[],
        metavar="SECTION:KEY=VALUE",
        help="declarative machine override (repeatable), e.g. "
        "--machine-param 'memory_capacity:n0.sys0=128 GiB' or "
        "--machine-param name=shepard-fat; sections: name, "
        "memory_capacity, proc_throughput, proc_launch_overhead, "
        "access_bandwidth, access_latency, channel_bandwidth, "
        "channel_latency (pair keys joined with '|')",
    )
    submit.add_argument("--no-spill", action="store_true")
    submit.add_argument(
        "--no-incremental",
        action="store_true",
        help="run the job on the full (non-incremental) simulation "
        "path; execution knob — results and cache key are identical",
    )
    submit.add_argument("--no-static-prune", action="store_true")
    submit.add_argument("--no-bound-prune", action="store_true")
    submit.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="N",
        help="server-side checkpoint cadence for this job (evaluations "
        "between snapshots; crash recovery resumes from the last one)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll the job to completion and print a final status line "
        "(without --wait only the job id is printed)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="give up polling after this long (with --wait; default 300)",
    )
    submit.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="with --wait, save the job's deterministic result.json "
        "to FILE",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect or purge a mapping service's result cache "
        "(offline: operates on the --root directory directly)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="list cache entries with sizes and artifacts"
    )
    cache_ls.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="service state directory (as passed to `repro serve`)",
    )
    cache_purge = cache_sub.add_parser(
        "purge", help="atomically evict every cache entry"
    )
    cache_purge.add_argument(
        "--root", required=True, metavar="DIR",
        help="service state directory (as passed to `repro serve`)",
    )

    sub.add_parser("machines", help="list bundled machine models")
    return parser


def _cmd_tune(args) -> int:
    if args.verbose:
        configure_logging()
    workdir = args.workdir
    if args.resume is not None:
        if workdir is not None and workdir != args.resume:
            raise SystemExit(
                "--resume WORKDIR conflicts with --workdir: resume "
                "continues inside the original working directory"
            )
        workdir = args.resume
    machine = _MACHINES[args.machine](args.nodes)
    app = _make_app(args)
    graph = app.graph(machine)
    session = AutoMapSession(
        graph,
        machine,
        algorithm=args.algorithm,
        workdir=workdir,
        oracle_config=OracleConfig(max_suggestions=args.max_suggestions),
        sim_config=SimConfig(
            noise_sigma=0.04,
            seed=args.seed,
            spill=not args.no_spill,
            incremental=not args.no_incremental,
        ),
        space=app.space(machine),
        workers=args.workers,
        static_prune=not args.no_static_prune,
        bound_prune=not args.no_bound_prune,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume is not None,
        worker_timeout=args.worker_timeout,
        trace=args.trace,
        metrics_out=args.metrics_out,
    )
    default = session.prepared.space.default_mapping()
    try:
        t_default = TuningEngine().measure(session.prepared, default)
    except OOMError as exc:
        # With --no-spill an overflowing default is the Figure 8 regime
        # the search exists for: there is no baseline to compare, but
        # the tune still runs.
        t_default, default_oom = None, str(exc)
    report = session.tune()
    print(report.describe())
    print()
    if t_default is None:
        print(f"default mapper: out of memory ({default_oom}); no speedup")
    else:
        print(f"default mapper: {t_default:.6f} s; "
              f"speedup {t_default / report.best_mean:.2f}x")
    print()
    print(render_mapping_diff(graph, default, report.best_mapping))
    return 0


def _cmd_inspect(args) -> int:
    machine = _MACHINES[args.machine](args.nodes)
    app = _make_app(args)
    graph = app.graph(machine)
    space = app.space(machine)
    print(machine.describe())
    print()
    print(graph.describe())
    print()
    print(
        f"Figure 5 row: {app.num_tasks()} tasks, "
        f"{app.num_collection_arguments()} collection arguments, "
        f"search space ~2^{space.log2_size():.0f}"
    )
    print()
    print(render_mapping(graph, space.default_mapping(), title="default mapping"))
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import Severity, analyze

    if args.list_rules:
        _print_rule_registry()
        return 0
    if args.app is None:
        raise SystemExit("repro analyze: --app is required "
                         "(or use --list-rules)")
    machine = _MACHINES[args.machine](args.nodes)
    app = _make_app(args)
    graph = app.graph(machine)
    space = app.space(machine)

    report = analyze(
        graph,
        machine,
        space=space,
        bounds=args.bounds and not args.mapping,
        equivalence=args.equivalence,
    )
    print(f"-- {graph.name} on {machine.name}")
    print(report.render())
    for path in args.mapping:
        from repro.mapping.io import load_mapping

        mapping = load_mapping(path)
        lint = analyze(graph, machine, space=space, mapping=mapping,
                       sanitize=False, bounds=args.bounds)
        print()
        print(f"-- {path}")
        print(lint.render())
        report.extend(lint)

    threshold = Severity.parse(args.fail_on)
    flagged = report.at_least(threshold)
    if flagged:
        print()
        print(f"FAIL: {len(flagged)} diagnostic(s) at severity "
              f">= {threshold}")
        return 1
    return 0


def _print_rule_registry() -> None:
    """The diagnostic rule registry, one section per rule-id century.

    Grouped by the ``AMn`` prefix (not the pass name) so centuries print
    in id order and each header names exactly the prefix of the rules
    below it; centuries with no registered rules are never emitted.
    """
    from repro.analysis.diagnostics import RULES
    from repro.viz.table import Table

    by_prefix: dict = {}
    for rule in sorted(RULES.values(), key=lambda r: r.id):
        by_prefix.setdefault(rule.id[:3], []).append(rule)
    for index, prefix in enumerate(sorted(by_prefix)):
        rules = by_prefix[prefix]
        if index:
            print()
        print(f"-- {rules[0].passname} ({prefix}xx)")
        table = Table(["rule", "severity", "title", "doc"])
        for rule in rules:
            table.add_row(
                [rule.id, str(rule.severity), rule.title, rule.doc]
            )
        print(table.render())


def _cmd_trace(args) -> int:
    from repro.obs.trace import diff_traces, load_trace
    from repro.viz import render_gantt

    try:
        recorder = load_trace(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro trace: {exc}")
    if args.diff is not None:
        try:
            other = load_trace(args.diff)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro trace: {exc}")
        diff = diff_traces(recorder, other)
        print(diff.render())
        return 0 if diff.identical else 1
    print(render_gantt(recorder, width=args.width))
    breakdown = recorder.breakdown()
    print()
    print(
        f"breakdown: {breakdown['compute_fraction']:.0%} compute, "
        f"{breakdown['copy_fraction']:.0%} copy, "
        f"{breakdown['overhead_fraction']:.0%} overhead, "
        f"{breakdown['idle_fraction']:.0%} idle "
        f"over {breakdown['active_processors']} active processor(s); "
        f"{breakdown['dma']['copies']} DMA copies"
    )
    return 0


def _cmd_fuzz(args) -> int:
    import json
    from pathlib import Path

    from repro.fuzz import (
        INVARIANTS,
        FuzzCase,
        fuzz,
        load_corpus,
        run_case,
        save_case,
    )

    invariants = tuple(args.invariant) if args.invariant else INVARIANTS
    failures = []  # (label, CaseResult, reproducer FuzzCase)

    if args.replay is not None:
        replay = Path(args.replay)
        if replay.is_dir():
            cases = load_corpus(replay)
        else:
            try:
                doc = json.loads(replay.read_text())
            except (OSError, ValueError) as exc:
                raise SystemExit(f"repro fuzz: {exc}")
            cases = [(replay, FuzzCase.from_doc(doc))]
        if not cases:
            raise SystemExit(f"repro fuzz: no fuzz cases under {replay}")
        for path, case in cases:
            result = run_case(case, invariants=invariants)
            _print_case_line(path.name, case, result)
            if not result.ok:
                failures.append((path.name, result, case))
        total = len(cases)
    else:
        report = fuzz(
            seed=args.seed,
            budget=args.budget,
            invariants=invariants,
            shrink=not args.no_shrink,
            on_case=lambda i, r: _print_case_line(f"case {i}", r.case, r),
        )
        shrunk = iter(report.shrunk)
        for i, result in enumerate(report.results):
            if not result.ok:
                reproducer = (
                    result.case if args.no_shrink else next(shrunk)
                )
                failures.append((f"case {i}", result, reproducer))
        total = len(report.results)

    print()
    if not failures:
        print(f"fuzz: {total} case(s), 0 violations "
              f"({', '.join(invariants)})")
        return 0
    for label, result, reproducer in failures:
        print(f"FAIL {label}: {result.case.label()}")
        for v in result.violations:
            print(f"  [{v.invariant}] {v.message}")
        if reproducer is not result.case:
            print(f"  shrunk to: {reproducer.label()}")
    if args.artifacts is not None:
        directory = Path(args.artifacts)
        for _, result, reproducer in failures:
            invariant = sorted(result.violated())[0]
            path = save_case(reproducer, directory, invariant)
            print(f"wrote {path}")
    print(f"fuzz: {total} case(s), {len(failures)} failing")
    return 1


def _print_case_line(label, case, result) -> None:
    status = "ok" if result.ok else ",".join(sorted(result.violated()))
    print(f"{label}: {case.label()} ... {status}")


def _cmd_serve(args) -> int:
    configure_logging()
    from repro.service import MappingService, make_server
    from repro.util.units import parse_bytes

    cache_max_bytes = None
    if args.cache_max_bytes is not None:
        try:
            cache_max_bytes = parse_bytes(args.cache_max_bytes)
        except ValueError as exc:
            raise SystemExit(f"repro serve: --cache-max-bytes: {exc}")
    try:
        service = MappingService(
            args.root,
            workers=args.workers,
            cache_max_bytes=cache_max_bytes,
        )
    except ValueError as exc:
        raise SystemExit(f"repro serve: {exc}")
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    service.start()
    # The ready line is load-bearing: the CI smoke job (and any
    # supervisor) waits for it before submitting.
    print(
        f"automap service listening on http://{host}:{port} "
        f"(root: {args.root})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def _http_json(url: str, payload=None):
    """POST ``payload`` (or GET when ``None``) and decode the JSON
    reply; returns ``(status, doc)`` without raising on 4xx/5xx."""
    import json
    import urllib.error
    import urllib.request

    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            return exc.code, json.loads(body)
        except ValueError:
            return exc.code, {"error": body.decode(errors="replace")}
    except urllib.error.URLError as exc:
        raise SystemExit(f"repro submit: cannot reach {url}: {exc.reason}")


def _cmd_submit(args) -> int:
    import time
    import urllib.request

    base = args.url.rstrip("/")
    doc = {
        "app": args.app,
        "input": args.input,
        "gen_params": parse_gen_params(args.gen_param),
        "machine": args.machine,
        "nodes": args.nodes,
        "machine_params": parse_machine_params(args.machine_param),
        "algorithm": args.algorithm,
        "seed": args.seed,
        "max_suggestions": args.max_suggestions,
        "spill": not args.no_spill,
        "static_prune": not args.no_static_prune,
        "bound_prune": not args.no_bound_prune,
        "workers": args.workers,
        "incremental": not args.no_incremental,
        "checkpoint_every": args.checkpoint_every,
    }
    status, reply = _http_json(f"{base}/jobs", payload=doc)
    if status != 201:
        raise SystemExit(
            f"repro submit: {status}: {reply.get('error', reply)}"
        )
    job_id = reply["job_id"]
    if not args.wait:
        # Bare id on stdout so scripts can capture it: JOB=$(repro
        # submit ...); full status lives at GET /jobs/<id>.
        print(job_id)
        return 0

    deadline = time.monotonic() + args.timeout
    while reply["state"] not in ("done", "failed"):
        if time.monotonic() >= deadline:
            print(f"{job_id} state={reply['state']} (timed out)")
            return 2
        time.sleep(0.2)
        status, reply = _http_json(f"{base}/jobs/{job_id}")
        if status != 200:
            raise SystemExit(
                f"repro submit: {status}: {reply.get('error', reply)}"
            )
    # ``cache_hit=equiv`` distinguishes a near-equivalence proof hit
    # from an exact fingerprint hit (``true``) — both zero simulations.
    if reply.get("cache_mode") == "equiv":
        cache_hit = "equiv"
    else:
        cache_hit = "true" if reply["cache_hit"] else "false"
    print(
        f"{job_id} state={reply['state']} "
        f"cache_hit={cache_hit} "
        f"simulations={reply['simulations']}"
    )
    if reply["state"] == "failed":
        print(f"error: {reply['error']}", file=sys.stderr)
        return 1
    if args.report_out is not None:
        with urllib.request.urlopen(
            f"{base}/jobs/{job_id}/report", timeout=30
        ) as response:
            data = response.read()
        from pathlib import Path

        Path(args.report_out).write_bytes(data)
    return 0


def _cmd_cache(args) -> int:
    from repro.service import ResultCache
    from repro.util.units import format_bytes
    from repro.viz.table import Table

    cache = ResultCache(args.root)
    if args.cache_command == "purge":
        removed = cache.purge()
        print(f"purged {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'} from {args.root}")
        return 0
    entries = cache.entries()
    if not entries:
        print(f"cache at {args.root}: 0 entries")
        return 0
    table = Table(["fingerprint", "size", "mode", "artifacts"])
    for entry in entries:
        table.add_row(
            [
                entry["fingerprint"][:16],
                format_bytes(entry["bytes"]),
                "equiv" if entry["equivalent"] else "run",
                ",".join(entry["artifacts"]),
            ]
        )
    print(table.render())
    print()
    print(
        f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
        f"{format_bytes(cache.total_bytes())} total"
    )
    return 0


def _cmd_machines(_args) -> int:
    for name, builder in sorted(_MACHINES.items()):
        print(builder(1).describe())
        print()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "machines":
            return _cmd_machines(args)
    except KeyboardInterrupt:
        # A tune in progress has already flushed a final checkpoint
        # (the driver catches the interrupt, saves, and re-raises), so
        # the run is resumable; exit with the conventional 128+SIGINT.
        print(
            "\ninterrupted — if a --workdir was set, continue with "
            "`repro tune --resume <workdir>`",
            file=sys.stderr,
        )
        return 130
    raise SystemExit(2)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
