"""Incremental re-simulation identity properties.

The incremental engine (per-launch cost memoisation and per-root
compiled coherence programs, ``repro.runtime.incremental``) and the
caches it switches on in the simulator (spill plans, noise factors,
validation dedup) promise *byte-identical* results to the full path.
These tests enforce that promise the way the search exercises it:
random single-coordinate mutation chains (the coordinate-descent access
pattern), occasional random jumps, revisits of earlier mappings, noise
draws, OOM paths, unroutable copies, and whole tuning runs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import lassen, shepard
from repro.machine.builders import HELIX_T4_NODE, heterogeneous_cluster
from repro.machine.kinds import ADDRESSABLE, MemKind, ProcKind
from repro.machine.overrides import apply_machine_params
from repro.mapping import Mapping, MappingDecision, SearchSpace
from repro.obs.trace import diff_traces
from repro.runtime import SimConfig, Simulator
from repro.runtime.executor import Executor
from repro.runtime.incremental import IncrementalEngine
from repro.runtime.memory import MemoryPlanner, OOMError
from repro.runtime.noise import NoiseModel
from repro.taskgraph import (
    ArgSlot,
    GraphBuilder,
    Privilege,
    ShardPattern,
    TaskGraph,
)
from repro.util.rng import RngStream
from tests.analysis.test_routing import island_machine
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


#: Machines for the capacity sweep: both stock models and a cluster
#: whose second node has no GPU (as in tests/property).
SWEEP_MACHINES = {
    "shepard": lambda: shepard(2),
    "lassen": lambda: lassen(2),
    "gpuless-node": lambda: heterogeneous_cluster(
        "hetero", [HELIX_T4_NODE, replace(HELIX_T4_NODE, gpus=0)]
    ),
}


def _squeezed(machine, graph, space, scale: float):
    """``machine`` with each node-0 memory's capacity set to ``scale``
    times the default mapping's largest per-memory footprint, and four
    times that on the other nodes, so that the smallest memory of a
    kind, not the largest, decides whether a kind total fits."""
    demand = MemoryPlanner(graph, machine).check(space.default_mapping())
    peak = max(demand.per_memory.values())
    return apply_machine_params(
        machine,
        {
            "memory_capacity": {
                mem.uid: max(1, int(scale * peak * (4 if mem.node else 1)))
                for mem in machine.memories
            }
        },
    )


def _outcome(call, mapping):
    """``call(mapping)``'s result, or its OOM message."""
    try:
        return call(mapping)
    except OOMError as exc:
        return f"OOMError: {exc}"


def test_planner_fast_path_matches_exact_walk(monkeypatch):
    """The memoised planner (its decision-free fits filter, then the
    union fast path) and the unmemoised planner's exact walk agree on
    every fits verdict, spill resolution and OOM message, on machines
    squeezed from 0.5x to 4x the default mapping's footprint."""
    verdicts = []
    for machine_name, make_machine in sorted(SWEEP_MACHINES.items()):
        base = make_machine()
        for app_name in ("circuit", "stencil", MIXED):
            graph = _graph(app_name, base)
            space = SearchSpace(graph, base)
            for scale in (0.5, 1.0, 2.0, 4.0):
                machine = _squeezed(base, graph, space, scale)
                fast = MemoryPlanner(graph, machine, memoize=True)
                exact = MemoryPlanner(graph, machine, memoize=False)
                totals_fit = fast._totals_fit

                def counted(mapping, totals_fit=totals_fit):
                    verdicts.append(totals_fit(mapping))
                    return verdicts[-1]

                monkeypatch.setattr(fast, "_totals_fit", counted)
                rng = RngStream(9).fork(machine_name, app_name, str(scale))
                for mapping in _chain(space, rng, length=12):
                    assert _outcome(fast.ensure_fits, mapping) == _outcome(
                        exact.ensure_fits, mapping
                    )
                    spilled = _outcome(fast.apply_spill, mapping)
                    assert _outcome(exact.apply_spill, mapping) == spilled
    # The filter settled some mappings and handed others to the exact
    # path, so the agreement above covers both.
    assert True in verdicts and False in verdicts


def test_noise_cache_returns_identical_factors():
    """Cached and uncached noise draws are bitwise the per-slot stream
    ``RngStream(seed).fork("noise", repr(context), str(i))`` names, in
    any query order, from any start slot, and in the mean factor."""
    sigma, seed = 0.04, 11
    contexts = [("m", i) for i in range(6)]

    def reference(base, context, slots):
        return [
            (
                base
                * RngStream(seed)
                .fork("noise", repr(context), str(i))
                .lognormal(-0.5 * sigma * sigma, sigma)
            ).hex()
            for i in slots
        ]

    def hexes(values):
        return [value.hex() for value in values]

    for cache in (True, False):
        model = NoiseModel(sigma=sigma, seed=seed, cache=cache)
        # Warm some slots in one order, then query overlapping runs
        # (the measure_more path starts past the evaluation's slots).
        for context in contexts[::2]:
            model.samples(1.5, context, 3, start=4)
        for context in reversed(contexts):
            assert hexes(model.samples(1.5, context, 5, start=7)) == (
                reference(1.5, context, range(7, 12))
            )
            assert hexes(model.samples(1.5, context, 7)) == (
                reference(1.5, context, range(7))
            )
            assert model.sample(1.5, context, 9).hex() == (
                reference(1.5, context, [9])[0]
            )
            total = 0.0
            for i in range(7):
                total += float.fromhex(reference(1.0, context, [i])[0])
            assert model.mean_factor(context, 7).hex() == (total / 7).hex()


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
    cannot address, so it raises after costing a prefix of the launch
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


def _kind_chain(space: SearchSpace, rng: RngStream, length: int = 10):
    """Default start, then moves that each change one kind's slot memory
    or distribute bit, as ``(mapping, move)`` pairs."""
    chain = [(space.default_mapping(), "start")]
    for _ in range(length):
        mapping = chain[-1][0]
        kind = rng.choice(sorted(space.kind_names()))
        decision = mapping.decision(kind)
        if rng.integers(0, 2):
            options = list(space.searched_distribute_options(kind))
            chain.append((mapping.with_distribute(kind, rng.choice(options)), "dist"))
            continue
        slot_index = rng.integers(0, decision.num_slots)
        options = list(
            space.searched_mem_options(kind, decision.proc_kind, slot_index)
        )
        if options:
            mapping = mapping.with_mem(kind, slot_index, rng.choice(options))
        chain.append((mapping, "mem"))
    return chain


@pytest.mark.parametrize("app_name", ["circuit", "stencil", MIXED])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_root_programs_shared_across_mappings(app_name, machine_name):
    """Mappings that share roots reuse those roots' compiled programs,
    and every run still matches the executor bit for bit.  A memory move
    changes one slot's root, so every other root is a program hit."""
    machine = MACHINES[machine_name](2)
    graph = _graph(app_name, machine)
    space = SearchSpace(graph, machine)
    engine = IncrementalEngine(graph, machine)
    executor = Executor(graph, machine)
    stats = engine.stats
    roots = len(engine.costs.root_index)
    assert roots > 1
    chain = _kind_chain(space, RngStream(24).fork(app_name, machine_name))
    moved = False
    for mapping, move in chain:
        hits = stats.program_hits
        report = _report_tuple(engine.run(mapping))
        assert report == _report_tuple(executor.run(mapping))
        if move == "mem":
            assert stats.program_hits - hits >= roots - 1
        moved = moved or mapping.key() != chain[0][0].key()
    assert moved
    assert stats.program_hits > 0
    # The same mapping again: every root is a hit, the report unchanged.
    hits, misses = stats.program_hits, stats.program_misses
    assert _report_tuple(engine.run(chain[-1][0])) == report
    assert stats.program_hits == hits + roots
    assert stats.program_misses == misses
    assert stats.runs == len(chain) + 1


def _island_graph():
    """``write_x`` and ``write_y`` each write a collection on one CPU of
    :func:`island_machine`, whose second system memory has no channel;
    ``read_y`` and then ``read_x`` read all of it on both CPUs."""
    b = GraphBuilder("island")
    cpu = [ProcKind.CPU]
    data = {name: b.collection(name, nbytes=1 << 20) for name in ("x", "y")}
    write = [ArgSlot("dst", Privilege.WRITE)]
    read = [ArgSlot("src", Privilege.READ, ShardPattern.REPLICATED)]
    for kind, name, slots, size in (
        ("write_x", "x", write, 1),
        ("write_y", "y", write, 1),
        ("read_y", "y", read, 2),
        ("read_x", "x", read, 2),
    ):
        kind = b.task_kind(kind, slots, cpu)
        b.launch(kind, [data[name]], size=size, flops=1e6)
    return b.build()


def _island_mapping(write_x, write_y, read_y, read_x):
    mems = {
        "write_x": write_x,
        "write_y": write_y,
        "read_y": read_y,
        "read_x": read_x,
    }
    return Mapping(
        {
            name: MappingDecision(False, ProcKind.CPU, (mem,))
            for name, mem in mems.items()
        }
    )


def test_unroutable_copy_raises_the_executors_error():
    """Routes are looked up while compiling a root, yet a run raises the
    copy engine's error where the executor meets it: at the first
    unroutable copy in time order, here in the second root to compile.
    The failing mapping raises again from its memoised programs, and so
    does reading its copies; routable ones still match the executor."""
    machine = island_machine()
    graph = _island_graph()
    engine = IncrementalEngine(graph, machine)
    executor = Executor(graph, machine)
    sysmem, zc = MemKind.SYSTEM, MemKind.ZERO_COPY
    # The reads' second points run on cpu1, whose system memory is sysB:
    # read_y's copy from sysA fails before read_x's copy from zc.
    failing = _island_mapping(zc, sysmem, sysmem, sysmem)
    with pytest.raises(ValueError) as from_executor:
        executor.run(failing)
    assert str(from_executor.value) == "no channel path from sysA to sysB"
    for _ in range(2):
        with pytest.raises(ValueError) as from_engine:
            engine.run(failing)
        assert str(from_engine.value) == str(from_executor.value)
    with pytest.raises(ValueError) as from_copies:
        list(engine.copies(failing))
    assert str(from_copies.value) == str(from_executor.value)
    for routable in (
        _island_mapping(sysmem, zc, zc, zc),
        _island_mapping(zc, sysmem, zc, zc),
    ):
        report = engine.run(routable)
        assert report.copy_stats.num_copies == 1
        assert len(list(engine.copies(routable))) == 1
        assert _report_tuple(report) == _report_tuple(executor.run(routable))


@pytest.mark.parametrize("app_name", ["circuit", "stencil", MIXED])
def test_reads_wait_on_writers_outside_the_dependences(app_name):
    """A builder's graph makes every reader depend on the last writer of
    what it reads, so the engine drops those waits.  With every other
    dependence edge removed, reads and copies must wait on writers'
    finishes through their compiled stamps instead."""
    machine = shepard(2)
    built = _graph(app_name, machine)
    graph = TaskGraph(built.name, built.launches, built.dependences[::2])
    space = SearchSpace(graph, machine)
    engine = IncrementalEngine(graph, machine)
    executor = Executor(graph, machine)
    for mapping, _move in _kind_chain(space, RngStream(31).fork(app_name)):
        assert _report_tuple(engine.run(mapping)) == _report_tuple(
            executor.run(mapping)
        )
