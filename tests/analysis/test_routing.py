"""Routing as the analyses see it: the executor's copy paths.

The bound analyzer's per-channel traffic rests on two identities pinned
here: every copy the incremental engine compiles crosses, hop for hop,
the channels the executor's copy engine reserves, and the timeline key
per hop is the copy engine's own serial channel key.  The static
reachability queries (AM503) are read off the machine's one route
table.
"""

from __future__ import annotations

import random

from repro.analysis import analyze
from repro.apps import make_app
from repro.machine import MACHINE_ZOO, lassen, shepard, single_node
from repro.machine.kinds import MemKind, ProcKind
from repro.machine.model import (
    AccessLink,
    Channel,
    Machine,
    Memory,
    Processor,
)
from repro.machine.topology import Topology, channel_key
from repro.mapping.space import SearchSpace
from repro.obs.trace import CAT_COPY, CAT_TASK
from repro.runtime.copies import CopyEngine
from repro.runtime.events import TimelinePool
from repro.runtime.incremental import IncrementalEngine
from repro.runtime.instances import CopyNeed
from repro.runtime.simulator import SimConfig, Simulator
from repro.taskgraph.graph import TaskGraph
from repro.util.units import GIB


def island_machine() -> Machine:
    """Two CPUs whose system memories share no channel (an island)."""
    procs = [
        Processor(
            uid=f"cpu{i}",
            kind=ProcKind.CPU,
            node=0,
            throughput=1e11,
            launch_overhead=1e-4,
        )
        for i in range(2)
    ]
    mems = [
        Memory(uid="sysA", kind=MemKind.SYSTEM, node=0, capacity=GIB),
        Memory(uid="sysB", kind=MemKind.SYSTEM, node=0, capacity=GIB),
        Memory(uid="zc", kind=MemKind.ZERO_COPY, node=0, capacity=GIB),
    ]
    access = [
        AccessLink(proc="cpu0", mem="sysA", bandwidth=1e11, latency=0.0),
        AccessLink(proc="cpu1", mem="sysB", bandwidth=1e11, latency=0.0),
        AccessLink(proc="cpu0", mem="zc", bandwidth=5e10, latency=0.0),
        AccessLink(proc="cpu1", mem="zc", bandwidth=5e10, latency=0.0),
    ]
    channels = [
        Channel(mem_a="sysA", mem_b="zc", bandwidth=2e10, latency=1e-5),
    ]
    return Machine(
        name="island-1n",
        processors=procs,
        memories=mems,
        access_links=access,
        channels=channels,
    )


class TestChannelKey:
    def test_matches_copy_engine_key(self):
        # The timeline the copy engine reserves is the one the bound
        # attributes the copy's bytes to.
        channels = TimelinePool()
        engine = CopyEngine(Topology(shepard(1)), channels)
        need = CopyNeed(src_mem="n0.fb0", lo=0, hi=1024, src_time=0.0)
        engine.execute(need, "n0.zc", ready=0.0)
        reserved = [name for name, _timeline in channels.items()]
        assert reserved == [channel_key("n0.fb0", "n0.zc")]

    def test_orientation_independent(self):
        assert channel_key("a", "b") == channel_key("b", "a")


class TestEngineCopies:
    """The bound analyzer's traffic is the engine's compiled copies, so
    each must cross exactly the channels the executor reserves for it,
    and name the task kind that reads it."""

    def test_copies_are_the_executors_hops(self):
        multi_hop = False
        for machine in (shepard(2), lassen(1)):
            for app_name, params in (
                ("stencil", {"nx": 64, "ny": 64}),
                ("circuit", {"nodes": 60, "wires": 240}),
            ):
                graph = make_app(app_name, **params).graph(machine)
                space = SearchSpace(graph, machine)
                simulator = Simulator(
                    graph, machine, SimConfig(noise_sigma=0.0, spill=True)
                )
                engine = IncrementalEngine(graph, machine)
                roots_of: dict = {}
                for launch in graph.launches:
                    roots_of.setdefault(launch.kind.name, set()).update(
                        arg.root for arg in launch.args
                    )
                rng = random.Random(5)
                mappings = [space.default_mapping()]
                mappings += [space.random_mapping(rng, valid=True) for _ in range(3)]
                for mapping in mappings:
                    recorder, result = simulator.trace(mapping)
                    # A point's copies are recorded, hop by hop, before
                    # its task span.
                    hops, pending = [], []
                    for span in recorder.spans:
                        if span.category == CAT_COPY:
                            pending.append((span.resource, span.args["bytes"]))
                        elif span.category == CAT_TASK:
                            kind = span.args["kind"]
                            hops += [(kind, *hop) for hop in pending]
                            pending = []
                    copies = list(engine.copies(result.executed_mapping))
                    assert [
                        (kind, key, nbytes)
                        for kind, _root, keys, nbytes in copies
                        for key in keys
                    ] == hops
                    assert len(copies) == result.report.copy_stats.num_copies
                    for kind, root, keys, _nbytes in copies:
                        assert root in roots_of[kind]
                        multi_hop = multi_hop or len(keys) > 1
        assert multi_hop


class TestUnreachable:
    def test_connected_machines_have_no_unreachable_pairs(self):
        for machine in (shepard(2), lassen(2), single_node()):
            assert Topology.of(machine).unreachable_pairs() == []

    def test_component_pairs_match_per_pair_routing(self):
        # Every zoo machine, the island machine, and shepard(2) cut into
        # one island per node: the pairs read off the connected
        # components are exactly the pairs a route search cannot join.
        shepard2 = shepard(2)
        cut = Machine(
            name="shepard-cut-2n",
            processors=shepard2.processors,
            memories=shepard2.memories,
            access_links=shepard2.access_links,
            channels=[
                chan
                for chan in shepard2.channels
                if shepard2.memory(chan.mem_a).node
                == shepard2.memory(chan.mem_b).node
            ],
        )
        machines = [island_machine(), cut]
        machines += [build(n) for build in MACHINE_ZOO.values() for n in (1, 2)]
        for machine in machines:
            topology = Topology(machine)
            mems = [m.uid for m in machine.memories]
            per_pair = [
                (src, dst)
                for i, src in enumerate(mems)
                for dst in mems[i + 1 :]
                if topology.copy_path(src, dst) is None
            ]
            assert Topology.of(machine).unreachable_pairs() == per_pair
            assert Topology(machine).connected() == (not per_pair)
        assert len(Topology.of(cut).unreachable_pairs()) == 4 * 4

    def test_island_memory_is_reported(self):
        machine = island_machine()
        assert Topology.of(machine).unreachable_pairs() == [
            ("sysA", "sysB"),
            ("sysB", "zc"),
        ]
        report = analyze(TaskGraph("empty", [], []), machine, bounds=True)
        diags = [d for d in report if d.rule_id == "AM503"]
        assert [d.message for d in diags] == [
            "no channel path between sysA and sysB: any mapping that "
            "needs a copy between them fails at simulation time",
            "no channel path between sysB and zc: any mapping that "
            "needs a copy between them fails at simulation time",
        ]
        assert [d.span.memory for d in diags] == ["sysA", "sysB"]


class TestModelCache:
    """Every reader of one machine object's routes reads that machine's
    one shared route table."""

    def test_same_machine_object_hits_cache(self):
        machine = shepard(1)
        assert Topology.of(machine) is Topology.of(machine)
        assert IncrementalEngine(
            TaskGraph("empty", [], []), machine
        ).topology is Topology.of(machine)

    def test_equal_but_distinct_machines_get_distinct_models(self):
        a, b = shepard(1), shepard(1)
        assert Topology.of(a) is not Topology.of(b)
