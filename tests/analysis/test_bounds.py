"""Unit tests for the static cost-bound analyzer (AM4xx)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.bounds import (
    FLOAT_SAFETY,
    BoundBreakdown,
    StaticBoundAnalyzer,
)
from repro.apps import make_app
from repro.machine import shepard
from repro.machine.builders import HELIX_T4_NODE, heterogeneous_cluster
from repro.machine.kinds import ProcKind
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.runtime.placement import Placer
from repro.runtime.simulator import SimConfig, Simulator
from repro.taskgraph import GraphBuilder, Privilege
from repro.util.rng import RngStream
from tests.test_incremental import MACHINES, MIXED, _chain, _graph


@pytest.fixture(scope="module")
def stencil():
    machine = shepard(2)
    graph = make_app("stencil", nx=200, ny=200).graph(machine)
    space = SearchSpace(graph, machine)
    return graph, machine, space


class TestBreakdown:
    def test_total_is_max_of_components(self):
        bd = BoundBreakdown(
            critical_path=3.0, load=5.0, communication=4.0, schedule=6.0
        )
        assert bd.total == 6.0

    def test_full_mapping_has_all_components(self, stencil):
        graph, machine, space = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        bd = analyzer.breakdown(space.default_mapping())
        assert bd.critical_path > 0.0
        assert bd.load > 0.0
        assert bd.schedule > 0.0
        assert bd.total == max(
            bd.critical_path, bd.load, bd.communication, bd.schedule
        )

    def test_partial_mapping_is_critical_path_only(self, stencil):
        graph, machine, space = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        full = space.default_mapping()
        kinds = full.kind_names()
        partial = Mapping({kinds[0]: full.decision(kinds[0])})
        bd = analyzer.breakdown(partial)
        assert bd.load == 0.0
        assert bd.communication == 0.0
        assert 0.0 < bd.critical_path <= analyzer.lower_bound(full)

    def test_bound_cache_hits(self, stencil):
        graph, machine, space = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        mapping = space.default_mapping()
        first = analyzer.lower_bound(mapping)
        checks = analyzer.checks
        assert analyzer.lower_bound(mapping) == first
        assert analyzer.checks == checks + 1
        assert analyzer.cache_hits >= 1


def _hex_fields(bd: BoundBreakdown) -> tuple:
    """Every breakdown field, floats by ``hex()``."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(bd)
    )


@pytest.mark.parametrize("app_name", ["circuit", "stencil", "pennant", MIXED])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_prefix_reuse_matches_fresh_analyzer(app_name, machine_name):
    """A long-lived analyzer shares one engine's launch-cost table
    across a mutation chain (CD moves, a jump, revisits); every bound
    must equal a fresh analyzer's bit for bit."""
    machine = MACHINES[machine_name](2)
    graph = _graph(app_name, machine)
    space = SearchSpace(graph, machine)
    reused = StaticBoundAnalyzer(graph, machine)
    rng = RngStream(23).fork(app_name, machine_name)
    for mapping in _chain(space, rng):
        fresh = StaticBoundAnalyzer(graph, machine)
        # Without this a revisit is a breakdown-cache hit; cleared, it
        # runs over costs memoised under other mappings.
        reused._breakdown_cache.clear()
        assert _hex_fields(reused.breakdown(mapping)) == _hex_fields(
            fresh.breakdown(mapping)
        )
        assert (
            reused.quick_bound(mapping).hex()
            == fresh.quick_bound(mapping).hex()
        )


class TestNodeCounts:
    """The bound's per-processor point counts and serial factor come
    from the placer's own table.  An over-count here was the one
    soundness bug this layer shipped with, so pin them against a tally
    of the processors :meth:`Placer.place_launch` assigns."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 16, 31])
    def test_matches_placer_split(self, stencil, size):
        graph, machine, _ = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        placer = Placer(machine)
        builder = GraphBuilder("points")
        data = builder.collection("data", nbytes=1 << 20)
        kind = builder.task_kind("k", slots=[("data", Privilege.READ)])
        launch = builder.launch(kind, [data], size=size, flops=1.0)
        for distribute in (False, True):
            for pk in machine.proc_kinds():
                decision = MappingDecision(
                    distribute, pk, (machine.mem_kinds_for(pk)[0],)
                )
                tally: dict = {}
                for placement in placer.place_launch(launch, decision):
                    uid = placement.proc.uid
                    tally[uid] = tally.get(uid, 0) + 1
                counts, factor = analyzer._proc_counts(size, distribute, pk)
                assert dict(counts) == tally
                assert factor == max(tally.values())

    def test_node_without_the_kind_contributes_nothing(self):
        """A distributed GPU launch on a cluster whose second node has
        no GPU: every point goes to node 0's GPU, and the quick bound
        stays at or below the simulated makespan."""
        machine = heterogeneous_cluster(
            "hetero", [HELIX_T4_NODE, dataclasses.replace(HELIX_T4_NODE, gpus=0)]
        )
        graph = make_app("stencil", nx=64, ny=64).graph(machine)
        mapping = SearchSpace(graph, machine).default_mapping()
        launch = graph.launches[0]
        decision = mapping.decision(launch.kind.name)
        assert decision.distribute and decision.proc_kind is ProcKind.GPU
        assert launch.size > 1
        placements = Placer(machine).place_launch(launch, decision)
        assert {(p.proc.node, p.proc.kind) for p in placements} == {(0, ProcKind.GPU)}
        analyzer = StaticBoundAnalyzer(graph, machine)
        simulator = Simulator(graph, machine, SimConfig(noise_sigma=0.0, spill=True))
        executed = simulator.spill_plan(mapping)
        makespan = simulator.run(mapping).makespan
        assert analyzer.quick_bound(executed) <= makespan


class TestDiagnostics:
    def _analyze(self, stencil, mapping, incumbent=None):
        graph, machine, _ = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        return analyzer.diagnose_mapping(mapping, incumbent=incumbent)

    def test_am401_fires_on_dominated_mapping(self, stencil):
        graph, machine, space = stencil
        simulator = Simulator(
            graph, machine, SimConfig(noise_sigma=0.0, spill=True)
        )
        default = space.default_mapping()
        incumbent = simulator.run(default).makespan
        # Serializing every launch onto one node's processors is far
        # slower than the distributed default: the load component of
        # the *lower bound* already exceeds the incumbent.
        bad = default
        for kind in default.kind_names():
            bad = bad.with_distribute(kind, False)
        report = self._analyze(stencil, bad, incumbent=incumbent)
        assert any(d.rule_id == "AM401" for d in report)

    def test_am401_silent_without_incumbent(self, stencil):
        _, _, space = stencil
        report = self._analyze(stencil, space.default_mapping())
        assert not any(d.rule_id == "AM401" for d in report)

    def test_am403_reports_idle_kind(self, stencil):
        # Stencil's default mapping is all-GPU on shepard: the CPU pool
        # is statically idle even though CPU task variants exist.
        _, _, space = stencil
        default = space.default_mapping()
        assert all(
            default.decision(k).proc_kind is ProcKind.GPU
            for k in default.kind_names()
        )
        report = self._analyze(stencil, default)
        idle = [d for d in report if d.rule_id == "AM403"]
        assert idle and any("cpu" in str(d).lower() for d in idle)


class TestFloatSafety:
    def test_deflation_is_tiny_but_strict(self):
        assert 0.0 < FLOAT_SAFETY < 1.0
        assert 1.0 - FLOAT_SAFETY < 1e-8
