"""Property-based tests for Algorithm 2 (co-location constraints).

The critical invariants: starting from *any* mapping and *any* single
(task, collection, proc kind, mem kind) move, the propagation terminates
and returns a mapping satisfying constraint (1) globally, with the
origin's decision preserved.

The propagation runs on a mutable draft and builds one mapping at the
end.  ``reference_colocation`` below is the plain formulation it
replaced — every adjustment a new immutable :class:`Mapping` — and the
draft must return an equal key on every generated case and on every
move of the first CCD rotation of the five smoke applications.
"""

from typing import Optional, Set
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.smoke import SMOKE_CONFIGS
from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard, single_node
from repro.machine.kinds import ADDRESSABLE, MemKind, ProcKind
from repro.mapping import Mapping, SearchSpace, is_valid
from repro.runtime import SimConfig
from repro.search import ConstrainedCoordinateDescent
from repro.search import cd as cd_module
from repro.search import colocation
from repro.search.colocation import apply_colocation_constraints
from repro.taskgraph import GraphBuilder, Privilege, induced_collection_graph
from repro.taskgraph.induced import CollectionGraph, SlotRef
from repro.util.rng import RngStream

_MACHINE = single_node(cpus=4, gpus=1)


def _graph():
    """Overlapping halo partitions shared across three kinds."""
    b = GraphBuilder("coloc")
    parts = b.partition("field", nbytes=1 << 20, parts=3, halo_bytes=1 << 14)
    aux = b.collection("aux", nbytes=1 << 16)
    k1 = b.task_kind(
        "k1", slots=[("f", Privilege.READ_WRITE), ("x", Privilege.READ)]
    )
    k2 = b.task_kind("k2", slots=[("f", Privilege.READ)])
    k3 = b.task_kind(
        "k3", slots=[("f", Privilege.READ), ("x", Privilege.READ_WRITE)]
    )
    for p in parts:
        b.launch(k1, [p, aux], size=2, flops=1e6)
        b.launch(k2, [p], size=2, flops=1e6)
        b.launch(k3, [p, aux], size=2, flops=1e6)
    return b.build()


def _variant_graph():
    """Kinds with one processor variant each next to kinds with both,
    declared out of name order, so propagation reaches the rescue and
    unpin paths and the draft's kind order differs from the space's."""
    b = GraphBuilder("variants")
    parts = b.partition("field", nbytes=1 << 20, parts=2, halo_bytes=1 << 14)
    aux = b.collection("aux", nbytes=1 << 16)
    gpu = b.task_kind(
        "z_gpu",
        slots=[("f", Privilege.READ_WRITE), ("x", Privilege.READ)],
        variants=(ProcKind.GPU,),
    )
    cpu = b.task_kind(
        "c_cpu", slots=[("f", Privilege.READ)], variants=(ProcKind.CPU,)
    )
    both = b.task_kind(
        "m_both", slots=[("x", Privilege.READ_WRITE), ("f", Privilege.READ)]
    )
    for p in parts:
        b.launch(gpu, [p, aux], size=2, flops=1e6)
        b.launch(cpu, [p], size=2, flops=1e6)
        b.launch(both, [aux, p], size=2, flops=1e6)
    return b.build()


_GRAPH = _graph()
_SPACE = SearchSpace(_GRAPH, _MACHINE)
_COLGRAPH = induced_collection_graph(_GRAPH)

_kind_slot = st.sampled_from(
    [
        (name, slot)
        for name in _SPACE.kind_names()
        for slot in range(_SPACE.dims(name).num_slots)
    ]
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    origin=_kind_slot,
    proc=st.sampled_from(list(ProcKind)),
    mem_index=st.integers(min_value=0, max_value=1),
)
def test_colocation_terminates_and_legal(seed, origin, proc, mem_index):
    kind_name, slot = origin
    dims = _SPACE.dims(kind_name)
    if proc not in dims.proc_options:
        proc = dims.proc_options[0]
    mem = dims.mem_options[proc][mem_index % len(dims.mem_options[proc])]
    start = (
        _SPACE.random_mapping(RngStream(seed))
        .with_proc(kind_name, proc)
        .with_mem(kind_name, slot, mem)
    )
    out = apply_colocation_constraints(
        _SPACE, _COLGRAPH.copy(), start, kind_name, slot, proc, mem
    )
    # Constraint (1) holds globally.
    assert is_valid(_GRAPH, _MACHINE, out)
    # The origin move is preserved.
    assert out.decision(kind_name).proc_kind is proc
    assert out.decision(kind_name).mem_kinds[slot] is mem


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    origin=_kind_slot,
)
def test_colocation_constraint_two_best_effort(seed, origin):
    """After propagation, slots overlapping the origin share its memory
    kind whenever their processor can address it (constraint 2)."""
    kind_name, slot = origin
    dims = _SPACE.dims(kind_name)
    proc = dims.proc_options[0]
    mem = dims.mem_options[proc][0]
    start = (
        _SPACE.random_mapping(RngStream(seed))
        .with_proc(kind_name, proc)
        .with_mem(kind_name, slot, mem)
    )
    out = apply_colocation_constraints(
        _SPACE, _COLGRAPH.copy(), start, kind_name, slot, proc, mem
    )
    for n_kind, n_slot in _COLGRAPH.neighbors((kind_name, slot)):
        decision = out.decision(n_kind)
        if (decision.proc_kind, mem) in ADDRESSABLE:
            assert decision.mem_kinds[n_slot] is mem


# ----------------------------------------------------------------------
# Reference: Algorithm 2 with one immutable Mapping per adjustment
# ----------------------------------------------------------------------
def _ref_choose_proc(
    space: SearchSpace, kind_name: str, mem_kind: MemKind, prefer: ProcKind
) -> Optional[ProcKind]:
    options = space.dims(kind_name).proc_options
    if prefer in options and (prefer, mem_kind) in ADDRESSABLE:
        return prefer
    for option in options:
        if (option, mem_kind) in ADDRESSABLE:
            return option
    return None


def _ref_fastest_mem(
    space: SearchSpace, kind_name: str, proc: ProcKind
) -> MemKind:
    return space.dims(kind_name).mem_options[proc][0]


def _ref_legalize(space: SearchSpace, mapping: Mapping) -> Mapping:
    f = mapping
    for kind_name in space.kind_names():
        decision = f.decision(kind_name)
        for s_index, s_mem in enumerate(decision.mem_kinds):
            if (decision.proc_kind, s_mem) not in ADDRESSABLE:
                f = f.with_mem(
                    kind_name,
                    s_index,
                    _ref_fastest_mem(space, kind_name, decision.proc_kind),
                )
                decision = f.decision(kind_name)
    return f


def reference_colocation(
    space: SearchSpace,
    colgraph: CollectionGraph,
    mapping: Mapping,
    kind_name: str,
    slot_index: int,
    proc_kind: ProcKind,
    mem_kind: MemKind,
    max_steps: int = colocation._MAX_STEPS,
) -> Mapping:
    """Algorithm 2 on immutable mappings; ``mapping`` must already carry
    the move (``kind_name`` on ``proc_kind``, the slot on ``mem_kind``).
    After ``max_steps`` worklist pops it legalises what it has."""
    origin: SlotRef = (kind_name, slot_index)
    f = mapping
    t_check: Set[str] = set()
    c_check: Set[SlotRef] = set()

    for neighbor in colgraph.neighbors(origin):
        n_kind, n_slot = neighbor
        if not space.is_tunable(n_kind):
            continue
        if neighbor != origin:
            f = f.with_mem(n_kind, n_slot, mem_kind)
        t_check.add(n_kind)

    steps = 0
    while t_check or c_check:
        while t_check:
            steps += 1
            if steps > max_steps:
                return _ref_legalize(space, f)
            t_name = min(t_check)
            t_check.discard(t_name)
            decision = f.decision(t_name)
            offending = [
                (s_index, s_mem)
                for s_index, s_mem in enumerate(decision.mem_kinds)
                if (decision.proc_kind, s_mem) not in ADDRESSABLE
            ]
            if not offending:
                continue
            if t_name != kind_name:
                options = space.dims(t_name).proc_options
                if proc_kind in options and decision.proc_kind != proc_kind:
                    f = f.with_proc(t_name, proc_kind)
                    decision = f.decision(t_name)
                elif proc_kind not in options:
                    new_proc = _ref_choose_proc(
                        space, t_name, offending[0][1], prefer=proc_kind
                    )
                    if new_proc is not None and new_proc != decision.proc_kind:
                        f = f.with_proc(t_name, new_proc)
                        decision = f.decision(t_name)
            for s_index, s_mem in enumerate(decision.mem_kinds):
                if (decision.proc_kind, s_mem) not in ADDRESSABLE:
                    c_check.add((t_name, s_index))

        while c_check:
            steps += 1
            if steps > max_steps:
                return _ref_legalize(space, f)
            slot = min(c_check)
            c_check.discard(slot)
            s_kind, s_index = slot
            decision = f.decision(s_kind)
            if (decision.proc_kind, decision.mem_kinds[s_index]) in ADDRESSABLE:
                continue
            if colgraph.connected(origin, slot) or slot == origin:
                rescue = _ref_choose_proc(
                    space, s_kind, decision.mem_kinds[s_index], prefer=proc_kind
                )
                if rescue is not None:
                    if rescue != decision.proc_kind:
                        f = f.with_proc(s_kind, rescue)
                        t_check.add(s_kind)
                    continue
            target = _ref_fastest_mem(space, s_kind, decision.proc_kind)
            f = f.with_mem(s_kind, s_index, target)
            for neighbor in colgraph.neighbors(slot):
                n_kind, n_slot = neighbor
                if neighbor == slot or not space.is_tunable(n_kind):
                    continue
                n_decision = f.decision(n_kind)
                if n_decision.mem_kinds[n_slot] == target:
                    continue
                if colgraph.connected(origin, neighbor) or neighbor == origin:
                    continue
                f = f.with_mem(n_kind, n_slot, target)
                if (n_decision.proc_kind, target) not in ADDRESSABLE:
                    t_check.add(n_kind)
                c_check.discard(neighbor)

    return _ref_legalize(space, f)


def _assert_matches_reference(space, colgraph, incumbent, move):
    """The draft from the incumbent and from the moved mapping both
    equal the reference; returns the draft's result."""
    kind_name, slot, proc, mem = move
    moved = incumbent.with_proc(kind_name, proc).with_mem(kind_name, slot, mem)
    expected = reference_colocation(
        space, colgraph, moved, *move, max_steps=colocation._MAX_STEPS
    )
    out = apply_colocation_constraints(space, colgraph, incumbent, *move)
    assert out.key() == expected.key()
    assert apply_colocation_constraints(
        space, colgraph, moved, *move
    ).key() == expected.key()
    return out


_VARIANT_GRAPH = _variant_graph()
_SPACES = (_SPACE, SearchSpace(_VARIANT_GRAPH, _MACHINE))


#: Worklist cap for the generated cases.  A GPU-only and a CPU-only kind
#: sharing a collection never reach a fixed point (each unpin retargets
#: the group to its own processor's fastest memory), so a low cap keeps
#: those cases fast and compares the state both reach at the cap.
_TEST_MAX_STEPS = 500


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_draft_matches_reference(data):
    """Valid and unconstrained (possibly unaddressable) incumbents, any
    searched move, and the collection graph of any rotation."""
    space = data.draw(st.sampled_from(_SPACES))
    colgraph = induced_collection_graph(space.graph)
    colgraph.prune_lightest(
        data.draw(st.integers(0, colgraph.original_num_edges))
    )
    incumbent = space.random_mapping(
        RngStream(data.draw(st.integers(0, 2**32 - 1))),
        valid=data.draw(st.booleans()),
    )
    kind_name = data.draw(st.sampled_from(space.kind_names()))
    dims = space.dims(kind_name)
    slot = data.draw(st.integers(0, dims.num_slots - 1))
    proc = data.draw(st.sampled_from(dims.proc_options))
    mem = data.draw(st.sampled_from(dims.mem_options[proc]))
    with mock.patch.object(colocation, "_MAX_STEPS", _TEST_MAX_STEPS):
        out = _assert_matches_reference(
            space, colgraph, incumbent, (kind_name, slot, proc, mem)
        )
    assert is_valid(space.graph, space.machine, out)


@pytest.mark.parametrize("app_name", sorted(SMOKE_CONFIGS))
def test_draft_matches_reference_on_first_ccd_rotation(app_name, monkeypatch):
    """Every co-location call of a smoke app's first CCD rotation (the
    full collection graph, real incumbents and move order)."""
    config = SMOKE_CONFIGS[app_name]
    machine = shepard(config["nodes"])
    app = make_app(app_name, **config["inputs"])
    checked = []

    def checked_colocation(space, colgraph, mapping, *move):
        checked.append(move)
        return _assert_matches_reference(space, colgraph, mapping, move)

    monkeypatch.setattr(
        cd_module, "apply_colocation_constraints", checked_colocation
    )
    TuningEngine().tune(
        TuneRequest(
            app.graph(machine),
            machine,
            algorithm=ConstrainedCoordinateDescent(rotations=1),
            oracle_config=OracleConfig(max_suggestions=100_000),
            sim_config=SimConfig(noise_sigma=0.04, seed=7, spill=True),
            space=app.space(machine),
            seed=7,
        )
    )
    assert checked
