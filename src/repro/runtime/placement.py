"""Deterministic concrete placement of point tasks and instances.

AutoMap factors the mapping problem into a search over *kinds* plus
"runtime logic to select specific processors/memories of the appropriate
kind" (paper §3.2).  This module is that runtime logic:

* a **distributed** group launch is decomposed blocked across machine
  nodes (point ``i`` of ``S`` goes to node ``i·N//S``); a non-distributed
  launch runs entirely on the leader node 0 (paper §3.1);
* within its node, a point task is assigned round-robin over the concrete
  processors of the mapped kind;
* each collection argument is instantiated "in the memory of the desired
  kind that is closest to the selected processor" (§3.2) — the GPU's own
  frame buffer, the CPU's own socket's System memory, the node's
  Zero-Copy pool.

The first two rules are one cached table per (launch size, distribute,
processor kind), :meth:`Placer.point_procs`: the only copy of the point
-> processor assignment, which the static analyses read as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.machine.kinds import MemKind, ProcKind
from repro.machine.model import Machine, Memory, Processor
from repro.mapping.decision import MappingDecision
from repro.taskgraph.task import TaskLaunch

__all__ = ["PointPlacement", "Placer"]


@dataclass(frozen=True)
class PointPlacement:
    """Concrete placement of one point task of a launch."""

    point: int
    proc: Processor
    mems: Tuple[Memory, ...]  # one per argument slot


class Placer:
    """Maps (launch, decision) pairs to concrete point placements."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._procs_by_kind_node: Dict[Tuple[ProcKind, int], List[Processor]] = {}
        for kind in machine.proc_kinds():
            for node in range(machine.num_nodes):
                procs = machine.processors_of_kind(kind, node)
                self._procs_by_kind_node[(kind, node)] = procs
        self._closest_cache: Dict[Tuple[str, MemKind], Memory] = {}
        self._tables: Dict[
            Tuple[int, bool, ProcKind], Tuple[Optional[Processor], ...]
        ] = {}

    def closest(self, proc: Processor, kind: MemKind) -> Memory:
        """The memory of ``kind`` closest to ``proc`` (§3.2); raises
        ``ValueError`` when ``proc`` cannot address that kind."""
        key = (proc.uid, kind)
        mem = self._closest_cache.get(key)
        if mem is None:
            found = self.machine.closest_memory(proc, kind)
            if found is None:
                raise ValueError(
                    f"processor {proc.uid} cannot address any "
                    f"{kind.value} memory (invalid mapping reached the "
                    f"placer; validate first)"
                )
            mem = found
            self._closest_cache[key] = mem
        return mem

    def node_of_point(self, size: int, distribute: bool, point: int) -> int:
        """Node index executing point ``point`` of a ``size``-point
        launch (blocked split; the leader node 0 when not distributed)."""
        if not distribute:
            return 0
        return point * self.machine.num_nodes // size

    def point_procs(
        self, size: int, distribute: bool, proc_kind: ProcKind
    ) -> Tuple[Optional[Processor], ...]:
        """Processor executing each point of a ``size``-point launch:
        the blocked node split, then round-robin over the node's
        processors of ``proc_kind``.  ``None`` marks a point whose node
        has no processor of that kind.  Cached per argument triple."""
        key = (size, distribute, proc_kind)
        table = self._tables.get(key)
        if table is None:
            procs: List[Optional[Processor]] = []
            rr_counters: Dict[int, int] = {}
            for point in range(size):
                node = self.node_of_point(size, distribute, point)
                pool = self._procs_by_kind_node.get((proc_kind, node))
                if not pool:
                    procs.append(None)
                    continue
                index = rr_counters.get(node, 0)
                rr_counters[node] = index + 1
                procs.append(pool[index % len(pool)])
            table = tuple(procs)
            self._tables[key] = table
        return table

    def place_launch(
        self, launch: TaskLaunch, decision: MappingDecision
    ) -> List[PointPlacement]:
        """Concrete placements for every point task of ``launch``.

        Deterministic: same inputs always yield identical placements, so
        repeated evaluations of one mapping measure the same execution
        (the paper's run-to-run variation comes from the machine, modelled
        separately by the noise layer).
        """
        placements: List[PointPlacement] = []
        procs = self.point_procs(
            launch.size, decision.distribute, decision.proc_kind
        )
        for point, proc in enumerate(procs):
            if proc is None:
                node = self.node_of_point(
                    launch.size, decision.distribute, point
                )
                raise ValueError(
                    f"no {decision.proc_kind.value} processors on node {node}"
                )
            mems = tuple(
                self.closest(proc, mem_kind)
                for mem_kind in decision.mem_kinds
            )
            placements.append(PointPlacement(point=point, proc=proc, mems=mems))
        return placements
