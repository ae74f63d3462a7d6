"""Unit tests for the machine model, kinds, and builders."""

import pytest

from repro.machine import (
    AccessLink,
    Channel,
    Machine,
    MemKind,
    Memory,
    ProcKind,
    Processor,
    lassen,
    shepard,
    single_node,
)
from repro.machine.kinds import (
    ADDRESSABLE,
    addressable_mem_kinds,
    addressable_proc_kinds,
    fastest_mem_kind,
)
from repro.util.units import GIB


def max_access_bandwidth(machine, proc_kind, mem_kind):
    """The fastest access link of one (processor kind, memory kind)
    shape."""
    return max(
        link.bandwidth
        for link in machine.access_links
        if machine.processor(link.proc).kind == proc_kind
        and machine.memory(link.mem).kind == mem_kind
    )


class TestKinds:
    def test_addressability_matches_figure1(self):
        assert (ProcKind.CPU, MemKind.SYSTEM) in ADDRESSABLE
        assert (ProcKind.CPU, MemKind.ZERO_COPY) in ADDRESSABLE
        assert (ProcKind.GPU, MemKind.FRAMEBUFFER) in ADDRESSABLE
        assert (ProcKind.GPU, MemKind.ZERO_COPY) in ADDRESSABLE
        assert (ProcKind.CPU, MemKind.FRAMEBUFFER) not in ADDRESSABLE
        assert (ProcKind.GPU, MemKind.SYSTEM) not in ADDRESSABLE

    def test_fastest_kinds(self):
        assert fastest_mem_kind(ProcKind.GPU) is MemKind.FRAMEBUFFER
        assert fastest_mem_kind(ProcKind.CPU) is MemKind.SYSTEM

    def test_preference_order(self):
        assert addressable_mem_kinds(ProcKind.GPU) == (
            MemKind.FRAMEBUFFER,
            MemKind.ZERO_COPY,
        )

    def test_zero_copy_shared(self):
        assert set(addressable_proc_kinds(MemKind.ZERO_COPY)) == {
            ProcKind.CPU,
            ProcKind.GPU,
        }


class TestBuilders:
    def test_shepard_inventory(self):
        m = shepard(1)
        assert m.num_nodes == 1
        assert len(m.processors_of_kind(ProcKind.GPU)) == 1
        assert len(m.processors_of_kind(ProcKind.CPU)) == 2  # sockets
        assert len(m.memories_of_kind(MemKind.FRAMEBUFFER)) == 1
        assert len(m.memories_of_kind(MemKind.SYSTEM)) == 2
        assert len(m.memories_of_kind(MemKind.ZERO_COPY)) == 1

    def test_lassen_inventory(self):
        m = lassen(2)
        assert m.num_nodes == 2
        assert len(m.processors_of_kind(ProcKind.GPU)) == 8
        assert len(m.memories_of_kind(MemKind.FRAMEBUFFER)) == 8

    def test_framebuffer_capacity(self):
        m = shepard(1)
        fb = m.memories_of_kind(MemKind.FRAMEBUFFER)[0]
        assert fb.capacity == 16 * GIB

    def test_zero_copy_reservation(self):
        # Paper: 60 GB of host memory reserved for Zero-Copy per node.
        m = lassen(1)
        zc = m.memories_of_kind(MemKind.ZERO_COPY)[0]
        assert zc.capacity == 60 * GIB

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            shepard(0)

    def test_gpu_faster_than_cpu_socket(self):
        m = shepard(1)
        gpu = m.processors_of_kind(ProcKind.GPU)[0]
        cpu = m.processors_of_kind(ProcKind.CPU)[0]
        assert gpu.throughput > cpu.throughput

    def test_framebuffer_fastest_memory(self):
        m = shepard(1)
        fb_bw = max_access_bandwidth(m, ProcKind.GPU, MemKind.FRAMEBUFFER)
        zc_bw = max_access_bandwidth(m, ProcKind.GPU, MemKind.ZERO_COPY)
        sys_bw = max_access_bandwidth(m, ProcKind.CPU, MemKind.SYSTEM)
        assert fb_bw > sys_bw > zc_bw

    def test_gpu_zero_copy_ratio_enables_50x(self):
        """§5.2: GPU+all-Zero-Copy runs tens of times slower than
        Frame-Buffer; the bandwidth ratio is what produces it."""
        m = shepard(1)
        fb = max_access_bandwidth(m, ProcKind.GPU, MemKind.FRAMEBUFFER)
        zc = max_access_bandwidth(m, ProcKind.GPU, MemKind.ZERO_COPY)
        assert fb / zc > 20


class TestMachineGraph:
    def test_duplicate_proc_uid_rejected(self):
        proc = Processor(uid="p", kind=ProcKind.CPU, node=0)
        with pytest.raises(ValueError, match="duplicate"):
            Machine("m", processors=[proc, proc])

    def test_access_link_kind_violation_rejected(self):
        proc = Processor(uid="p", kind=ProcKind.CPU, node=0)
        mem = Memory(uid="fb", kind=MemKind.FRAMEBUFFER, node=0, capacity=1)
        with pytest.raises(ValueError, match="addressability"):
            Machine(
                "m",
                processors=[proc],
                memories=[mem],
                access_links=[AccessLink(proc="p", mem="fb", bandwidth=1.0)],
            )

    def test_channel_unknown_memory_rejected(self):
        with pytest.raises(ValueError, match="unknown memory"):
            Machine(
                "m",
                memories=[
                    Memory(uid="a", kind=MemKind.SYSTEM, node=0, capacity=1)
                ],
                channels=[Channel(mem_a="a", mem_b="ghost", bandwidth=1.0)],
            )

    def test_closest_memory_prefers_own_device(self):
        m = lassen(1)
        gpu2 = m.processor("n0.gpu2")
        closest = m.closest_memory(gpu2, MemKind.FRAMEBUFFER)
        assert closest is not None and closest.uid == "n0.fb2"

    def test_closest_memory_prefers_own_socket(self):
        m = shepard(1)
        cpu1 = m.processor("n0.cpu1")
        closest = m.closest_memory(cpu1, MemKind.SYSTEM)
        assert closest is not None and closest.socket == 1

    def test_closest_memory_none_for_unaddressable(self):
        m = shepard(1)
        cpu = m.processor("n0.cpu0")
        assert m.closest_memory(cpu, MemKind.FRAMEBUFFER) is None

    def test_describe_mentions_nodes(self):
        assert "node 1" in shepard(2).describe()

    def test_noncontiguous_nodes_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            Machine(
                "m",
                processors=[Processor(uid="p", kind=ProcKind.CPU, node=1)],
            )


class TestSingleNode:
    def test_shape(self):
        m = single_node(cpus=4, gpus=2)
        assert len(m.processors_of_kind(ProcKind.CPU)) == 1
        assert len(m.processors_of_kind(ProcKind.GPU)) == 2

    def test_capacity_overrides(self):
        m = single_node(framebuffer_capacity=GIB)
        fb = m.memories_of_kind(MemKind.FRAMEBUFFER)[0]
        assert fb.capacity == GIB
