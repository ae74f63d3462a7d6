"""Shared kind-level mapping validity checker (paper §4.2 constraint 1).

This is the single implementation behind :mod:`repro.mapping.validate`
and the simulator's memoised per-key verdict
(:meth:`repro.runtime.simulator.Simulator.invalid_reason`), which the
evaluation oracle reads.  Validity here is *kind-level*: "a task
argument is mapped to a memory visible to the task's processor" plus the
variant requirement of §2.  Capacity is a runtime matter — a valid
mapping may still fail with OOM at execution (§3.1) — and is handled by
the static feasibility pass (:mod:`repro.analysis.memfeas`) and the
oracle.

Unlike the historical validator, a slot-count mismatch (``AM002``) no
longer suppresses the remaining checks for that kind: the variant and
processor checks still run, and the per-slot memory checks run over
whatever slots the decision does cover, so one structural mistake cannot
hide an unrelated addressability problem.

This module deliberately imports nothing from :mod:`repro.runtime` so
that low-level mapping modules can depend on it without cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.diagnostics import Diagnostic, Span
from repro.machine.kinds import ADDRESSABLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Runtime imports would re-enter the ``repro.mapping`` package while
    # ``mapping.validate`` is importing this module; the checker only
    # calls methods on these objects, so type-only imports suffice.
    from repro.machine.model import Machine
    from repro.mapping.mapping import Mapping
    from repro.taskgraph.graph import TaskGraph

__all__ = ["check_mapping", "validity_problems", "explain_problems"]


def check_mapping(
    graph: TaskGraph, machine: Machine, mapping: Mapping
) -> List[Diagnostic]:
    """All kind-level validity violations of ``mapping`` as diagnostics.

    Returns an empty list iff the mapping is valid.  Every diagnostic is
    an ``ERROR``; message texts match the historical
    ``mapping.validate`` strings so joined reasons stay stable.
    """
    out: List[Diagnostic] = []
    machine_proc_kinds = set(machine.proc_kinds())
    machine_mem_kinds = set(machine.mem_kinds())

    for kind in graph.task_kinds:
        if kind.name not in mapping:
            out.append(
                Diagnostic(
                    "AM001",
                    f"task kind {kind.name!r} has no decision",
                    Span(kind=kind.name),
                )
            )
            continue
        decision = mapping.decision(kind.name)
        if decision.num_slots != kind.num_slots:
            out.append(
                Diagnostic(
                    "AM002",
                    f"{kind.name}: decision covers {decision.num_slots} "
                    f"slots, kind has {kind.num_slots}",
                    Span(kind=kind.name),
                )
            )
        if decision.proc_kind not in kind.variants:
            out.append(
                Diagnostic(
                    "AM003",
                    f"{kind.name}: no {decision.proc_kind.value} variant",
                    Span(kind=kind.name),
                )
            )
        if decision.proc_kind not in machine_proc_kinds:
            out.append(
                Diagnostic(
                    "AM004",
                    f"{kind.name}: machine has no "
                    f"{decision.proc_kind.value} processors",
                    Span(kind=kind.name),
                )
            )
        for slot_index, mem_kind in enumerate(decision.mem_kinds):
            if slot_index < kind.num_slots:
                slot_name = kind.slots[slot_index].name
            else:
                slot_name = f"slot{slot_index}"
            if mem_kind not in machine_mem_kinds:
                out.append(
                    Diagnostic(
                        "AM005",
                        f"{kind.name}[{slot_name}]: machine has no "
                        f"{mem_kind.value} memory",
                        Span(kind=kind.name, slot=slot_name),
                    )
                )
            elif (decision.proc_kind, mem_kind) not in ADDRESSABLE:
                out.append(
                    Diagnostic(
                        "AM006",
                        f"{kind.name}[{slot_name}]: "
                        f"{mem_kind.value} not addressable from "
                        f"{decision.proc_kind.value}",
                        Span(kind=kind.name, slot=slot_name),
                    )
                )

    covered = set(mapping.kind_names())
    graph_kinds = {k.name for k in graph.task_kinds}
    for extra in sorted(covered - graph_kinds):
        out.append(
            Diagnostic(
                "AM007",
                f"decision for unknown task kind {extra!r}",
                Span(kind=extra),
            )
        )
    return out


def validity_problems(
    graph: TaskGraph, machine: Machine, mapping: Mapping
) -> List[str]:
    """Violation messages as plain strings (legacy shape)."""
    return [d.message for d in check_mapping(graph, machine, mapping)]


def explain_problems(
    graph: TaskGraph, machine: Machine, mapping: Mapping
) -> Optional[str]:
    """Joined violation messages, or ``None`` if the mapping is valid."""
    problems = validity_problems(graph, machine, mapping)
    if not problems:
        return None
    return "; ".join(problems)
