"""Incremental re-simulation identity properties.

The incremental engine (per-launch cost memoisation,
``repro.runtime.incremental``) and the caches it switches on in the
simulator (spill plans, noise factors, validation dedup) promise
*byte-identical* results to the full path.  These tests enforce that
promise the way the search exercises it: random single-coordinate
mutation chains (the coordinate-descent access pattern), occasional
random jumps, revisits of earlier mappings, noise draws, OOM paths, and
whole tuning runs.
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import lassen, shepard
from repro.machine.kinds import ADDRESSABLE, MemKind
from repro.mapping import SearchSpace
from repro.obs.trace import diff_traces
from repro.runtime import SimConfig, Simulator
from repro.runtime.executor import Executor
from repro.runtime.incremental import IncrementalEngine
from repro.runtime.memory import MemoryPlanner, OOMError
from repro.runtime.noise import NoiseModel
from repro.util.rng import RngStream
from tests.conftest import build_mixed_shape_graph

#: Small inputs: the point is coverage of the cache machinery, not load.
APP_INPUTS = {
    "circuit": {"nodes": 60, "wires": 240},
    "stencil": {"nx": 64, "ny": 64},
    "pennant": {"zx": 64, "zy": 36},
    "htr": {"x": 8, "y": 8, "z": 9},
    "maestro": {"lf_count": 4, "lf_res": 16},
}

MACHINES = {"shepard": shepard, "lassen": lassen}

#: The graph whose same-kind launches differ in shape (see conftest).
MIXED = "mixed-shapes"


def _graph(name: str, machine):
    """The named app's graph at its small input, or the mixed-shape
    graph."""
    if name == MIXED:
        return build_mixed_shape_graph()
    return make_app(name, **APP_INPUTS[name]).graph(machine)


def _mutate(space: SearchSpace, mapping, rng: RngStream):
    """One legal single-coordinate mutation (the CD move set)."""
    kind = rng.choice(sorted(space.kind_names()))
    dims = space.dims(kind)
    move = rng.choice(["dist", "proc", "mem"])
    if move == "dist":
        options = list(space.searched_distribute_options(kind))
        return mapping.with_distribute(kind, rng.choice(options))
    if move == "proc":
        mutated = mapping.with_proc(kind, rng.choice(list(dims.proc_options)))
        decision = mutated.decision(kind)
        fastest = dims.mem_options[decision.proc_kind][0]
        for slot_index, mem_kind in enumerate(decision.mem_kinds):
            if (decision.proc_kind, mem_kind) not in ADDRESSABLE:
                mutated = mutated.with_mem(kind, slot_index, fastest)
        return mutated
    decision = mapping.decision(kind)
    slot_index = rng.integers(0, decision.num_slots)
    options = list(
        space.searched_mem_options(kind, decision.proc_kind, slot_index)
    )
    if not options:
        return mapping
    return mapping.with_mem(kind, slot_index, rng.choice(options))


def _chain(space: SearchSpace, rng: RngStream, length: int = 12):
    """Default start, CD-style walk, a jump, and two revisits."""
    chain = [space.default_mapping()]
    for step in range(length):
        if step % 7 == 6:
            chain.append(space.random_mapping(rng))
        else:
            chain.append(_mutate(space, chain[-1], rng))
    chain.append(chain[2])  # revisit: a simulator memo-cache hit
    chain.append(chain[-2])
    return chain


def _report_tuple(report):
    return (
        report.makespan.hex(),
        [(k, v.hex()) for k, v in report.kind_busy.items()],
        list(report.kind_points.items()),
        [(k, v.hex()) for k, v in report.kind_finish.items()],
        (
            report.copy_stats.num_copies,
            report.copy_stats.bytes_moved,
            report.copy_stats.copy_seconds.hex(),
        ),
        list(report.footprint.items()),
        [(k, v.hex()) for k, v in report.proc_busy.items()],
    )


def _run_both(sim_inc, sim_full, mapping, runs=7):
    """Run one mapping through both simulators; compare outcome exactly.

    Returns True when the mapping executed (vs. raised identically)."""
    try:
        result_inc = sim_inc.run(mapping, runs=runs)
    except (Exception,) as exc_inc:
        with pytest.raises(type(exc_inc)) as caught:
            sim_full.run(mapping, runs=runs)
        assert str(caught.value) == str(exc_inc)
        return False
    result_full = sim_full.run(mapping, runs=runs)
    assert _report_tuple(result_inc.report) == _report_tuple(
        result_full.report
    )
    assert [s.hex() for s in result_inc.samples] == [
        s.hex() for s in result_full.samples
    ]
    assert (
        result_inc.executed_mapping.key()
        == result_full.executed_mapping.key()
    )
    return True


@pytest.mark.parametrize("app_name", sorted(APP_INPUTS) + [MIXED])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_mutation_chain_identity(app_name, machine_name):
    """Random single-coordinate walks produce bit-identical reports,
    noise samples and executed mappings in both modes (spill on)."""
    machine = MACHINES[machine_name](2)
    graph = _graph(app_name, machine)
    space = SearchSpace(graph, machine)
    sim_inc = Simulator(
        graph, machine, SimConfig(seed=3, spill=True, incremental=True)
    )
    sim_full = Simulator(
        graph, machine, SimConfig(seed=3, spill=True, incremental=False)
    )
    rng = RngStream(42).fork(app_name, machine_name)
    executed = 0
    for mapping in _chain(space, rng):
        if _run_both(sim_inc, sim_full, mapping):
            executed += 1
    assert executed > 0
    stats = sim_inc.incremental_stats
    assert stats.runs > 0
    # The full-path simulator never touches the incremental machinery.
    assert sim_full.incremental_stats.runs == 0


@pytest.mark.parametrize("app_name", ["stencil", "circuit", MIXED])
def test_mutation_chain_identity_no_spill(app_name):
    """With spill disabled, OOM mappings raise the identical error in
    both modes and the OOM-attempt counters stay in lockstep."""
    machine = lassen(2)
    graph = _graph(app_name, machine)
    space = SearchSpace(graph, machine)
    sim_inc = Simulator(
        graph, machine, SimConfig(seed=5, spill=False, incremental=True)
    )
    sim_full = Simulator(
        graph, machine, SimConfig(seed=5, spill=False, incremental=False)
    )
    rng = RngStream(17).fork(app_name)
    for mapping in _chain(space, rng, length=16):
        _run_both(sim_inc, sim_full, mapping)
    assert sim_inc.oom_attempts == sim_full.oom_attempts
    assert sim_inc.executions == sim_full.executions


def test_planner_fast_path_matches_exact_walk():
    """The memoised planner's no-overflow fast path and the exact walk
    agree on every spill resolution and every OOM verdict."""
    machine = lassen(2)
    for app_name in ("stencil", MIXED):
        graph = _graph(app_name, machine)
        space = SearchSpace(graph, machine)
        fast = MemoryPlanner(graph, machine, memoize=True)
        exact = MemoryPlanner(graph, machine, memoize=False)
        rng = RngStream(9)
        for mapping in _chain(space, rng, length=20):
            try:
                spilled_fast = fast.apply_spill(mapping)
            except OOMError as exc:
                with pytest.raises(OOMError) as caught:
                    exact.apply_spill(mapping)
                assert str(caught.value) == str(exc)
                continue
            spilled_exact = exact.apply_spill(mapping)
            assert spilled_fast.key() == spilled_exact.key()


def test_noise_cache_returns_identical_factors():
    """Cached noise draws are bitwise what the uncached model computes,
    in any query order, including the mean-factor aggregate."""
    cached = NoiseModel(sigma=0.04, seed=11, cache=True)
    uncached = NoiseModel(sigma=0.04, seed=11, cache=False)
    contexts = [("m", i) for i in range(6)]
    # Warm the cache in one order, compare in another.
    for context in contexts:
        cached.samples(1.5, context, 7)
    for context in reversed(contexts):
        a = [s.hex() for s in cached.samples(1.5, context, 7)]
        b = [s.hex() for s in uncached.samples(1.5, context, 7)]
        assert a == b
        assert cached.mean_factor(context, 7).hex() == (
            uncached.mean_factor(context, 7).hex()
        )


@pytest.mark.parametrize("app_name", ["circuit", "stencil", MIXED])
def test_tune_identity(app_name):
    """Whole ccd tuning runs converge byte-identically in both modes:
    best mapping, mean, stddev, finalists, and execution trace."""
    machine = shepard(2)
    reports = {}
    for incremental in (True, False):
        graph = _graph(app_name, machine)
        request = TuneRequest(
            graph,
            machine,
            algorithm="ccd",
            oracle_config=OracleConfig(max_suggestions=60),
            sim_config=SimConfig(
                noise_sigma=0.04,
                seed=7,
                spill=True,
                incremental=incremental,
            ),
            space=SearchSpace(graph, machine),
            seed=7,
            trace=True,
        )
        reports[incremental] = TuningEngine().tune(request)
    inc, full = reports[True], reports[False]
    assert inc.best_mapping.key() == full.best_mapping.key()
    assert inc.best_mean.hex() == full.best_mean.hex()
    assert inc.best_stddev.hex() == full.best_stddev.hex()
    assert [
        (m.key(), mean.hex(), std.hex(), count)
        for m, mean, std, count in inc.finalists
    ] == [
        (m.key(), mean.hex(), std.hex(), count)
        for m, mean, std, count in full.finalists
    ]
    assert inc.suggested == full.suggested
    assert inc.simulations == full.simulations
    diff = diff_traces(inc.trace, full.trace)
    assert diff.identical, diff.render()


def test_failed_run_leaves_no_stale_snapshots():
    """A run that raises part-way leaves the next run's result
    unchanged.  The failing mapping changes ``calc_new_currents``
    (which runs first) and puts ``update_voltages`` on memory the GPU
    cannot address, so it raises after executing a prefix of the launch
    order; the next mapping changes only ``update_voltages``."""
    machine = shepard(2)
    app = make_app("circuit", nodes=40, wires=160, iterations=2)
    graph = app.graph(machine)
    default = app.space(machine).default_mapping()
    failing = default.with_mem(
        "calc_new_currents", 0, MemKind.ZERO_COPY
    ).with_mem("update_voltages", 0, MemKind.SYSTEM)
    moved = default.with_mem("update_voltages", 0, MemKind.ZERO_COPY)

    engine = IncrementalEngine(graph, machine)
    engine.run(default)
    with pytest.raises(ValueError, match="cannot address"):
        engine.run(failing)
    assert _report_tuple(engine.run(moved)) == _report_tuple(
        Executor(graph, machine).run(moved)
    )
