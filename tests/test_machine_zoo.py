"""The machine zoo: Helix mixed cluster, mirrored/lopsided nodes.

Three load-bearing properties: the Helix model reproduces the 4/8/12
A100/L4/T4 composition with heterogeneity expressed *inside* the GPU
kind; the mirrored machine has exactly the cpu<->gpu automorphism (the
symmetry-folding stress case); and the lopsided machine — one GPU 25%
faster — defeats that fold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.symmetry import MachineSymmetry
from repro.apps import make_app
from repro.core import TuneRequest, TuningEngine
from repro.machine import (
    MACHINE_ZOO,
    helix,
    heterogeneous_cluster,
    lopsided_node,
    mirrored_node,
)
from repro.machine.builders import (
    HELIX_A100_NODE,
    HELIX_L4_NODE,
    HELIX_T4_NODE,
)
from repro.machine.kinds import MemKind, ProcKind
from repro.runtime import SimConfig
from repro.util.units import GIB

from tests.conftest import build_diamond_graph


class TestHelix:
    def test_full_cluster_composition(self):
        machine = helix(24)
        assert machine.num_nodes == 24
        gpus = machine.processors_of_kind(ProcKind.GPU)
        assert len(gpus) == 24
        mix = Counter(p.throughput for p in gpus)
        assert mix[HELIX_A100_NODE.gpu_throughput] == 4
        assert mix[HELIX_L4_NODE.gpu_throughput] == 8
        assert mix[HELIX_T4_NODE.gpu_throughput] == 12

    def test_framebuffers_match_node_types(self):
        machine = helix(6)
        fbs = sorted(
            m.capacity
            for m in machine.memories_of_kind(MemKind.FRAMEBUFFER)
        )
        assert fbs == [16 * GIB] * 3 + [24 * GIB] * 2 + [40 * GIB]

    def test_prefix_sizes_stay_mixed(self):
        assert helix(1).num_nodes == 1
        six = helix(6)
        mix = Counter(
            p.throughput for p in six.processors_of_kind(ProcKind.GPU)
        )
        assert mix[HELIX_A100_NODE.gpu_throughput] == 1
        assert mix[HELIX_L4_NODE.gpu_throughput] == 2
        assert mix[HELIX_T4_NODE.gpu_throughput] == 3

    def test_heterogeneity_does_not_fake_symmetry(self):
        assert MachineSymmetry(build_diamond_graph(), helix(6)).is_trivial()

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            helix(0)
        with pytest.raises(ValueError):
            heterogeneous_cluster("empty", [])


class TestGpulessNode:
    """A cluster whose second node has no GPU.  Distributed GPU launches
    are split over the nodes that host a GPU, so the default mapping
    (distributed, on the GPU) runs and the cluster tunes."""

    @pytest.mark.parametrize("spill", [True, False])
    def test_tunes_in_both_spill_modes(self, spill):
        machine = heterogeneous_cluster(
            "hetero", [HELIX_T4_NODE, replace(HELIX_T4_NODE, gpus=0)]
        )
        engine = TuningEngine()
        prepared = engine.prepare(
            TuneRequest(
                make_app("stencil", nx=64, ny=64).graph(machine),
                machine,
                algorithm="ccd",
                sim_config=SimConfig(spill=spill),
            )
        )
        report = engine.run(prepared)
        assert report.failed_evaluations == 0
        default = prepared.space.default_mapping()
        assert report.best_mean <= engine.measure(prepared, default)


class TestMirroredAndLopsided:
    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_mirror_automorphism(self, pairs):
        sym = MachineSymmetry(build_diamond_graph(), mirrored_node(pairs))
        assert [rel.describe() for rel in sym.automorphisms()] == [
            "cpu->gpu, gpu->cpu, system->framebuffer, framebuffer->system"
        ]

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_lopsided_defeats_folding(self, pairs):
        sym = MachineSymmetry(build_diamond_graph(), lopsided_node(pairs))
        assert sym.is_trivial()

    def test_lopsided_differs_only_in_one_throughput(self):
        a, b = mirrored_node(2), lopsided_node(2)
        diff = [
            (pa.uid, pa.throughput, pb.throughput)
            for pa, pb in zip(a.processors, b.processors)
            if pa.throughput != pb.throughput
        ]
        assert len(diff) == 1
        assert diff[0][0].startswith("gpu")

    def test_pair_count_validated(self):
        with pytest.raises(ValueError):
            mirrored_node(0)


class TestZooRegistry:
    def test_all_factories_build(self):
        for name, factory in MACHINE_ZOO.items():
            machine = factory(1)
            assert machine.processors, name
            assert machine.memories, name

    def test_paper_machines_still_present(self):
        assert {"shepard", "lassen"} <= set(MACHINE_ZOO)
        assert {"helix", "mirrored", "lopsided"} <= set(MACHINE_ZOO)
