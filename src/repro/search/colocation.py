"""Co-location constraint propagation — Algorithm 2 of the paper.

When CCD considers mapping collection-argument slot ``c`` of task ``t``
to memory kind ``r`` (with ``t`` on processor kind ``k``), the co-location
constraint requires every slot whose collections overlap ``c`` to move to
``r`` too.  That move can strand other tasks (their processor kind can no
longer address the new memory kind) and other collections (their task was
moved), so the adjustment iterates to a fixed point:

* a task whose argument lives in an unaddressable memory kind is moved to
  ``k`` (line 12) — or, when it lacks a ``k`` variant, to any variant
  that can address the memory (a necessary generalisation the paper's
  all-variants benchmarks never exercise);
* a collection argument of a moved task is remapped to a memory kind its
  new processor can address, and its own overlap neighbourhood is dragged
  along (lines 14-26), except slots overlapping the original ``(t, c)``,
  which stay pinned at ``r`` (line 17).

The iteration converges because the limiting case maps every task and
collection to a single kind (paper §4.2); a generous iteration cap guards
against implementation bugs rather than algorithmic divergence.  A final
legalisation sweep guarantees the returned mapping satisfies constraint
(1) even when variant restrictions make full co-location unsatisfiable.

The propagation edits a draft — the processor kind and memory list of
each kind it touched, over the unchanged incumbent — and builds one
:class:`~repro.mapping.mapping.Mapping` at the end, so a move costs the
kinds it drags along rather than one mapping per adjusted slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.machine.kinds import ADDRESSABLE, MemKind, ProcKind
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.taskgraph.induced import CollectionGraph, SlotRef
from repro.util.logging import get_logger

__all__ = ["apply_colocation_constraints"]

_LOG = get_logger("search.colocation")

#: Hard cap on worklist pops; fixed points arrive in a handful of sweeps.
_MAX_STEPS = 100_000


def _choose_proc(
    space: SearchSpace,
    kind_name: str,
    mem_kind: MemKind,
    prefer: ProcKind,
) -> Optional[ProcKind]:
    """A processor kind for ``kind_name`` that can address ``mem_kind``,
    preferring ``prefer``; ``None`` when no variant qualifies."""
    options = space.dims(kind_name).proc_options
    if prefer in options and (prefer, mem_kind) in ADDRESSABLE:
        return prefer
    for option in options:
        if (option, mem_kind) in ADDRESSABLE:
            return option
    return None


def _fastest_mem(space: SearchSpace, kind_name: str, proc: ProcKind) -> MemKind:
    """The fastest machine-present memory kind addressable by ``proc``."""
    return space.dims(kind_name).mem_options[proc][0]


class _Draft:
    """Algorithm 2's working copy of a mapping: the processor kind and
    memory list of every kind it touched, over an unchanged base."""

    __slots__ = ("base", "procs", "mems")

    def __init__(self, base: Mapping) -> None:
        self.base = base
        self.procs: Dict[str, ProcKind] = {}
        self.mems: Dict[str, List[MemKind]] = {}

    def proc(self, kind_name: str) -> ProcKind:
        proc = self.procs.get(kind_name)
        if proc is None:
            return self.base.decision(kind_name).proc_kind
        return proc

    def mem_kinds(self, kind_name: str) -> Sequence[MemKind]:
        mems = self.mems.get(kind_name)
        if mems is None:
            return self.base.decision(kind_name).mem_kinds
        return mems

    def set_proc(self, kind_name: str, proc: ProcKind) -> None:
        self.procs[kind_name] = proc

    def set_mem(self, kind_name: str, slot_index: int, mem: MemKind) -> None:
        mems = self.mems.get(kind_name)
        if mems is None:
            mems = list(self.base.decision(kind_name).mem_kinds)
            self.mems[kind_name] = mems
        mems[slot_index] = mem


def apply_colocation_constraints(
    space: SearchSpace,
    colgraph: CollectionGraph,
    mapping: Mapping,
    kind_name: str,
    slot_index: int,
    proc_kind: ProcKind,
    mem_kind: MemKind,
) -> Mapping:
    """The candidate for mapping ``(t, c)`` to ``(k, r)`` from
    ``mapping``, with co-location constraints propagated — Algorithm 2.

    The move itself (the caller's line 16: ``kind_name`` on
    ``proc_kind``, slot ``slot_index`` on ``mem_kind``) is applied
    first, so ``mapping`` may be the incumbent or already carry it.
    Returns a mapping satisfying constraint (1) globally and constraint
    (2) as far as task variants allow.
    """
    origin: SlotRef = (kind_name, slot_index)
    f = _Draft(mapping)
    f.set_proc(kind_name, proc_kind)
    f.set_mem(kind_name, slot_index, mem_kind)
    t_check: Set[str] = set()
    c_check: Set[SlotRef] = set()

    # Lines 4-6: drag every slot overlapping the origin to mem_kind.
    # Kinds outside the searched subset (fixed decisions, §3.3) are
    # never modified.
    for neighbor in colgraph.neighbors(origin):
        n_kind, n_slot = neighbor
        if not space.is_tunable(n_kind):
            continue
        if neighbor != origin:
            f.set_mem(n_kind, n_slot, mem_kind)
        t_check.add(n_kind)

    steps = 0
    while t_check or c_check:
        # Lines 8-13: tasks whose arguments became unaddressable.
        while t_check:
            steps += 1
            if steps > _MAX_STEPS:
                _LOG.warning(
                    "colocation fixed point not reached for %s[%d]; "
                    "falling back to legalisation",
                    kind_name,
                    slot_index,
                )
                return _build(space, f)
            t_name = min(t_check)
            t_check.discard(t_name)
            t_proc = f.proc(t_name)
            offending = [
                (s_index, s_mem)
                for s_index, s_mem in enumerate(f.mem_kinds(t_name))
                if (t_proc, s_mem) not in ADDRESSABLE
            ]
            if not offending:
                continue
            # Line 12: move the task to k — once.  Choosing a processor
            # per offending slot instead would ping-pong a task between
            # kinds whose memories conflict.  When the task lacks a k
            # variant, fall back to a variant that can address the first
            # offending memory (still a single move).
            if t_name != kind_name:
                options = space.dims(t_name).proc_options
                if proc_kind in options and t_proc != proc_kind:
                    t_proc = proc_kind
                    f.set_proc(t_name, t_proc)
                elif proc_kind not in options:
                    new_proc = _choose_proc(
                        space, t_name, offending[0][1], prefer=proc_kind
                    )
                    if new_proc is not None and new_proc != t_proc:
                        t_proc = new_proc
                        f.set_proc(t_name, t_proc)
            for s_index, s_mem in enumerate(f.mem_kinds(t_name)):
                if (t_proc, s_mem) not in ADDRESSABLE:
                    c_check.add((t_name, s_index))

        # Lines 14-26: collections of moved tasks.
        while c_check:
            steps += 1
            if steps > _MAX_STEPS:
                _LOG.warning(
                    "colocation fixed point not reached for %s[%d]; "
                    "falling back to legalisation",
                    kind_name,
                    slot_index,
                )
                return _build(space, f)
            slot = min(c_check)
            c_check.discard(slot)
            s_kind, s_index = slot
            s_proc = f.proc(s_kind)
            s_mem = f.mem_kinds(s_kind)[s_index]
            if (s_proc, s_mem) in ADDRESSABLE:
                continue  # already fixed by a task move
            # Line 17: slots overlapping the origin stay pinned at r —
            # unless that pin is what makes them unaddressable and the
            # task cannot move (no suitable variant).
            if colgraph.connected(origin, slot) or slot == origin:
                rescue = _choose_proc(space, s_kind, s_mem, prefer=proc_kind)
                if rescue is not None:
                    if rescue != s_proc:
                        f.set_proc(s_kind, rescue)
                        t_check.add(s_kind)
                    continue
                # fall through: unpin as a last resort
            target = _fastest_mem(space, s_kind, s_proc)
            f.set_mem(s_kind, s_index, target)
            # Lines 20-26: drag this slot's own neighbourhood along.
            for neighbor in colgraph.neighbors(slot):
                n_kind, n_slot = neighbor
                if neighbor == slot or not space.is_tunable(n_kind):
                    continue
                if f.mem_kinds(n_kind)[n_slot] == target:
                    continue
                if colgraph.connected(origin, neighbor) or neighbor == origin:
                    continue  # pinned at r
                f.set_mem(n_kind, n_slot, target)
                if (f.proc(n_kind), target) not in ADDRESSABLE:
                    t_check.add(n_kind)
                c_check.discard(neighbor)

    return _build(space, f)


def _build(space: SearchSpace, draft: _Draft) -> Mapping:
    """Final sweep enforcing constraint (1) — any slot still mapped to an
    unaddressable memory kind moves to the fastest addressable kind —
    then one mapping built from the draft.  Only searched kinds are
    touched (fixed kinds are valid by construction)."""
    base = draft.base
    updates: Dict[str, MappingDecision] = {}
    for kind_name in space.kind_names():
        decision = base.decision(kind_name)
        proc = draft.procs.get(kind_name, decision.proc_kind)
        mems = space.legal_mems(
            kind_name, proc, draft.mems.get(kind_name, decision.mem_kinds)
        )
        if proc != decision.proc_kind or mems != decision.mem_kinds:
            updates[kind_name] = MappingDecision(
                distribute=decision.distribute,
                proc_kind=proc,
                mem_kinds=mems,
            )
    if not updates:
        return base
    return base.with_decisions(updates)
