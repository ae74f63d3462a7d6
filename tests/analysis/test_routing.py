"""The routing model: the analyzer's view of the executor's copy paths.

Soundness of the per-channel congestion bound rests on two identities
pinned here: the route reported for a memory pair is hop-for-hop the
``Topology.copy_path`` the simulator's copy engine reserves, and the
timeline key per hop is the engine's own serial channel key.
"""

from __future__ import annotations

from repro.analysis.routing import RoutingModel, channel_key
from repro.machine import MACHINE_ZOO, lassen, shepard, single_node
from repro.machine.kinds import MemKind, ProcKind
from repro.machine.model import (
    AccessLink,
    Channel,
    Machine,
    Memory,
    Processor,
)
from repro.machine.topology import Topology
from repro.runtime.copies import CopyEngine
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CopyNeed
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


class TestRoutes:
    def test_routes_mirror_topology_paths(self):
        for machine in (shepard(2), lassen(1)):
            model = RoutingModel(machine)
            topology = Topology(machine)
            mems = [m.uid for m in machine.memories]
            for src in mems:
                for dst in mems:
                    route = model.route(src, dst)
                    path = topology.copy_path(src, dst)
                    if path is None:
                        assert route is None
                        continue
                    assert route == tuple(
                        channel_key(h.mem_a, h.mem_b) for h in path.hops
                    )

    def test_same_memory_routes_empty(self):
        model = RoutingModel(shepard(1))
        assert model.route("n0.zc", "n0.zc") == ()

    def test_channel_bandwidth_lookup(self):
        machine = shepard(1)
        model = RoutingModel(machine)
        chan = machine.channels[0]
        key = channel_key(chan.mem_a, chan.mem_b)
        assert model.channel_bandwidth(key) == chan.bandwidth
        assert model.channel_bandwidth("chan:x<->y") is None


class TestUnreachable:
    def test_connected_machines_have_no_unreachable_pairs(self):
        for machine in (shepard(2), lassen(2), single_node()):
            assert RoutingModel(machine).unreachable_pairs() == []

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
            assert RoutingModel(machine).unreachable_pairs() == per_pair
            assert Topology(machine).connected() == (not per_pair)
        assert len(RoutingModel(cut).unreachable_pairs()) == 4 * 4

    def test_island_memory_is_reported(self):
        model = RoutingModel(island_machine())
        assert model.unreachable_pairs() == [
            ("sysA", "sysB"),
            ("sysB", "zc"),
        ]
        diags = model.diagnose()
        assert [d.rule_id for d in diags] == ["AM503", "AM503"]
        assert "sysB" in diags[0].message


class TestModelCache:
    """Models hold no routes of their own: every model of one machine
    object reads that machine's one shared route table."""

    def test_same_machine_object_hits_cache(self):
        machine = shepard(1)
        assert RoutingModel(machine).topology is Topology.of(machine)
        assert RoutingModel(machine).topology is RoutingModel(machine).topology

    def test_equal_but_distinct_machines_get_distinct_models(self):
        a, b = shepard(1), shepard(1)
        assert RoutingModel(a).topology is not RoutingModel(b).topology
