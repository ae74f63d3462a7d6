"""Tests for the static memory feasibility pass (exactness + pruning)."""

from __future__ import annotations

import pytest

from repro.analysis import StaticMemoryFeasibility
from repro.core import TuneRequest, TuningEngine
from repro.machine import single_node
from repro.machine.kinds import MemKind
from repro.mapping import SearchSpace
from repro.runtime import SimConfig
from repro.runtime.memory import MemoryPlanner, OOMError
from repro.util.rng import RngStream
from repro.util.units import MIB
from tests.conftest import build_diamond_graph


@pytest.fixture
def roomy():
    graph = build_diamond_graph()
    machine = single_node(cpus=4, gpus=1)
    return graph, machine


@pytest.fixture
def cramped():
    """The diamond workload with a framebuffer too small for the grid."""
    graph = build_diamond_graph()
    machine = single_node(
        cpus=4,
        gpus=1,
        framebuffer_capacity=4 * MIB,
        sysmem_capacity=512 * MIB,
        zero_copy_capacity=512 * MIB,
    )
    return graph, machine


def test_oom_reason_matches_runtime_error_bytes(cramped):
    graph, machine = cramped
    static = StaticMemoryFeasibility(graph, machine)
    planner = MemoryPlanner(graph, machine)
    space = SearchSpace(graph, machine)
    saw_oom = saw_fit = False
    for seed in range(40):
        mapping = space.random_mapping(RngStream(seed))
        reason = static.oom_reason(mapping)
        if reason is None:
            saw_fit = True
            planner.ensure_fits(mapping)  # no raise
        else:
            saw_oom = True
            with pytest.raises(OOMError) as excinfo:
                planner.ensure_fits(mapping)
            assert str(excinfo.value) == reason
    assert saw_oom and saw_fit, "fixture should exercise both outcomes"


def test_oom_reason_is_memoized(roomy):
    graph, machine = roomy
    static = StaticMemoryFeasibility(graph, machine)
    mapping = SearchSpace(graph, machine).default_mapping()
    assert static.oom_reason(mapping) is None
    checks = static.checks
    assert static.oom_reason(mapping) is None
    assert static.checks == checks
    assert static.cache_hits >= 1


def test_dead_slot_options_found_when_memory_is_tiny(cramped):
    graph, machine = cramped
    static = StaticMemoryFeasibility(graph, machine)
    space = SearchSpace(graph, machine)
    dead = static.dead_slot_options(space)
    # The 16 MiB grid cannot fit the 4 MiB framebuffer whichever way the
    # GPU variants shard it.
    assert any(
        MemKind.FRAMEBUFFER in mems for mems in dead.values()
    ), dead
    # Dead options never exhaust a slot's menu.
    for (kind_name, proc, _slot), mems in dead.items():
        options = space.dims(kind_name).mem_options[proc]
        assert 0 < len(mems) < len(options)


def test_no_dead_options_on_roomy_machine(roomy):
    graph, machine = roomy
    static = StaticMemoryFeasibility(graph, machine)
    space = SearchSpace(graph, machine)
    assert static.dead_slot_options(space) == {}
    assert static.diagnose_space(space) == []


def test_diagnose_space_emits_am101(cramped):
    graph, machine = cramped
    static = StaticMemoryFeasibility(graph, machine)
    space = SearchSpace(graph, machine)
    diags = static.diagnose_space(space)
    assert diags and all(d.rule_id == "AM101" for d in diags)
    assert all("overflows memory" in d.message for d in diags)


def test_diagnose_mapping_emits_am102(cramped):
    graph, machine = cramped
    static = StaticMemoryFeasibility(graph, machine)
    space = SearchSpace(graph, machine)
    # Force everything into the tiny framebuffer via the GPU default.
    mapping = space.default_mapping()
    if static.oom_reason(mapping) is None:
        pytest.skip("default mapping unexpectedly fits")
    diags = static.diagnose_mapping(mapping)
    assert diags and all(d.rule_id == "AM102" for d in diags)
    assert all(d.span.memory is not None for d in diags)


def test_prune_infeasible_trims_move_enumeration(cramped):
    graph, machine = cramped
    space = SearchSpace(graph, machine)
    static = StaticMemoryFeasibility(graph, machine)
    pruned = space.prune_infeasible(feasibility=static)
    assert pruned.is_pruned and not space.is_pruned
    trimmed = 0
    for (kind_name, proc, slot_index), mems in static.dead_slot_options(
        space
    ).items():
        options = pruned.searched_mem_options(kind_name, proc, slot_index)
        assert options, "pruned menus must never be empty"
        for mem in mems:
            assert mem not in options
            trimmed += 1
    assert trimmed > 0
    # dims() stays unpruned: sizes, codecs, and legalization are shared.
    for kind_name in space.kind_names():
        assert pruned.dims(kind_name) == space.dims(kind_name)


def test_prune_infeasible_default_constructs_passes(cramped):
    graph, machine = cramped
    pruned = SearchSpace(graph, machine).prune_infeasible()
    assert pruned.is_pruned


def test_spill_off_tune_proves_ooms_with_the_simulators_planner(cramped):
    """One footprint rule: a spill-off tune's feasibility pass runs on
    the simulator's own planner (and so on its placer)."""
    graph, machine = cramped
    prepared = TuningEngine().prepare(
        TuneRequest(graph, machine, sim_config=SimConfig(spill=False))
    )
    assert prepared.feasibility.planner is prepared.simulator.planner
