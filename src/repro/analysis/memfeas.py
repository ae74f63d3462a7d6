"""Pass 1 — static memory feasibility.

The paper's oracle contract (§3.1) lets a kind-valid mapping "fail at
runtime if a collection assignment exceeds the capacity of the physical
memory"; §5.2's memory-constrained searches then burn a full
discrete-event simulation per doomed candidate just to observe the OOM.
This pass proves the same out-of-memory outcome without a simulation,
and exactly: it runs the runtime's own footprint check,
:meth:`repro.runtime.memory.MemoryPlanner.ensure_fits`, so a proven OOM
carries the very reason string the runtime would raise.  In a tune the
planner is the simulator's own, so proofs and simulations share one
footprint cache.

Dead search coordinates need a finer grain.  The placement function is
*factored* the same way the search space is (§3.2): for a launch of
kind ``k``, the concrete processor of point ``i`` depends only on the
kind's ``(distribute, proc_kind)`` choice (the placer's table,
:meth:`repro.runtime.placement.Placer.point_procs`), and the concrete
memory of slot ``s`` is ``closest(proc_i, mem_kind_s)`` — a function of
that processor and the slot's own memory-kind choice.  Therefore the
byte intervals a slot contributes to each ``(concrete memory, root
index space)`` pair depend only on the tuple ``(kind, distribute,
proc_kind, slot, mem_kind)`` and can be computed per *option* rather
than per *mapping*, from the planner's placer.  A mapping's footprint
is the union of its options' contributions, and unions are monotone, so
a single option whose own contribution already overflows some memory
can never appear in any feasible mapping with the same ``(distribute,
proc)`` choice; an option dead under *every* distribute choice is a
provably-dead search coordinate (rule ``AM101``) that
:meth:`repro.mapping.space.SearchSpace.prune_infeasible` removes from
move enumeration.

Per-option contributions and per-mapping verdicts (keyed by
``mapping.key()``) are memoized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.machine.kinds import MemKind, ProcKind
from repro.runtime.intervals import IntervalSet
from repro.runtime.memory import MemoryPlanner, OOMError
from repro.util.units import format_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import Machine
    from repro.mapping.mapping import Mapping
    from repro.mapping.space import SearchSpace
    from repro.taskgraph.graph import TaskGraph
    from repro.taskgraph.task import TaskLaunch

__all__ = ["StaticMemoryFeasibility"]

#: contribution of one (kind, distribute, proc, slot, mem_kind) option:
#: byte intervals per (concrete memory uid, root index space).
_Contribution = Dict[Tuple[str, str], IntervalSet]


class StaticMemoryFeasibility:
    """Static OOM proofs, from the runtime planner's own footprint
    check, and per-option footprint contributions, from its placer.

    ``planner`` is the memory planner the proofs run on.  A tune passes
    its simulator's own
    (:attr:`~repro.runtime.simulator.Simulator.planner`), so a proof and
    the simulation that follows share one footprint cache; that is safe
    because a footprint is a pure function of the mapping.  Without one,
    the pass builds a private memoizing planner.
    """

    def __init__(
        self,
        graph: "TaskGraph",
        machine: "Machine",
        planner: Optional[MemoryPlanner] = None,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self.planner = (
            planner
            if planner is not None
            else MemoryPlanner(graph, machine, memoize=True)
        )
        self._capacity: Dict[str, int] = {
            mem.uid: mem.capacity for mem in machine.memories
        }
        self._launches_by_kind: Dict[str, List["TaskLaunch"]] = {}
        for launch in graph.launches:
            self._launches_by_kind.setdefault(launch.kind.name, []).append(launch)

        self._contrib_cache: Dict[
            Tuple[str, bool, ProcKind, int, MemKind], _Contribution
        ] = {}
        self._reason_cache: Dict[Tuple, Optional[str]] = {}
        #: verdicts served from the per-mapping cache vs computed fresh.
        self.checks = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Per-option contributions
    # ------------------------------------------------------------------
    def slot_contribution(
        self,
        kind_name: str,
        distribute: bool,
        proc_kind: ProcKind,
        slot_index: int,
        mem_kind: MemKind,
    ) -> _Contribution:
        """Byte intervals this option adds to each (memory, root).

        The equivalence prover (:mod:`repro.analysis.equivalence`) unions
        these per-option contributions over *every* reachable option to
        obtain the exact static footprint upper bound; raising
        ``ValueError`` here means the option is unreachable (a
        processor cannot address ``mem_kind``) and contributes nothing.
        """
        key = (kind_name, distribute, proc_kind, slot_index, mem_kind)
        cached = self._contrib_cache.get(key)
        if cached is not None:
            return cached
        placer = self.planner.placer
        out: _Contribution = {}
        for launch in self._launches_by_kind.get(kind_name, ()):
            procs = placer.point_procs(launch.size, distribute, proc_kind)
            root = launch.args[slot_index].root
            assert root is not None
            for point, proc in enumerate(procs):
                lo, hi = launch.shard_interval(
                    slot_index, point, for_write=False
                )
                if hi <= lo:
                    continue
                mem_uid = placer.closest(proc, mem_kind).uid
                current = out.get((mem_uid, root), IntervalSet.empty())
                out[(mem_uid, root)] = current.union(IntervalSet.single(lo, hi))
        self._contrib_cache[key] = out
        return out

    def _contribution_overflows(self, contrib: _Contribution) -> bool:
        """Whether this option's own footprint already exceeds some
        memory's capacity (a lower bound on any containing mapping)."""
        per_mem: Dict[str, int] = {}
        for (mem_uid, _root), ivs in contrib.items():
            per_mem[mem_uid] = per_mem.get(mem_uid, 0) + ivs.total
        return any(
            total > self._capacity[mem_uid]
            for mem_uid, total in per_mem.items()
        )

    # ------------------------------------------------------------------
    # Whole-mapping feasibility
    # ------------------------------------------------------------------
    def oom_reason(self, mapping: "Mapping") -> Optional[str]:
        """The exact OOM message the runtime planner raises for
        ``mapping``, or ``None`` when it fits.  Memoized per mapping."""
        key = mapping.key()
        if key in self._reason_cache:
            self.cache_hits += 1
            return self._reason_cache[key]
        self.checks += 1
        try:
            self.planner.ensure_fits(mapping)
            reason = None
        except OOMError as exc:
            reason = str(exc)
        self._reason_cache[key] = reason
        return reason

    # ------------------------------------------------------------------
    # Dead search coordinates
    # ------------------------------------------------------------------
    def dead_slot_options(
        self, space: "SearchSpace"
    ) -> Dict[Tuple[str, ProcKind, int], Tuple[MemKind, ...]]:
        """Memory-kind options that cannot appear in any feasible
        mapping, per ``(kind, proc, slot)``.

        An option is dead when its own contribution overflows some
        memory under *every* distribute choice the space offers —
        footprints only grow by union, so any mapping containing it
        overflows too.  Options are never reported dead when *all*
        options of a slot would die (the kind/proc combination itself is
        infeasible then; whole-mapping checks handle that case and move
        enumeration must not go empty).
        """
        dead: Dict[Tuple[str, ProcKind, int], Tuple[MemKind, ...]] = {}
        for kind_name in space.kind_names():
            dims = space.dims(kind_name)
            for proc in dims.proc_options:
                options = dims.mem_options[proc]
                for slot_index in range(dims.num_slots):
                    dead_mems = tuple(
                        mem
                        for mem in options
                        if all(
                            self._contribution_overflows(
                                self.slot_contribution(
                                    kind_name, dist, proc, slot_index, mem
                                )
                            )
                            for dist in dims.distribute_options
                        )
                    )
                    if dead_mems and len(dead_mems) < len(options):
                        dead[(kind_name, proc, slot_index)] = dead_mems
        return dead

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def diagnose_space(self, space: "SearchSpace") -> List[Diagnostic]:
        """``AM101`` for every provably-dead search coordinate."""
        out: List[Diagnostic] = []
        for (kind_name, proc, slot_index), mems in sorted(
            self.dead_slot_options(space).items(),
            key=lambda item: (item[0][0], item[0][1].value, item[0][2]),
        ):
            slot_name = space.dims(kind_name).slot_names[slot_index]
            for mem in mems:
                out.append(
                    Diagnostic(
                        "AM101",
                        f"{kind_name}[{slot_name}] in {mem.value} on "
                        f"{proc.value} overflows memory under every "
                        f"distribute choice",
                        Span(kind=kind_name, slot=slot_name),
                    )
                )
        return out

    def diagnose_mapping(self, mapping: "Mapping") -> List[Diagnostic]:
        """``AM102`` when the mapping's footprint provably overflows."""
        demand = self.planner.check(mapping)
        if demand.ok:
            return []
        out: List[Diagnostic] = []
        for uid, (need, cap) in sorted(demand.overflows.items()):
            out.append(
                Diagnostic(
                    "AM102",
                    f"footprint {format_bytes(need)} exceeds "
                    f"{format_bytes(cap)} capacity",
                    Span(memory=uid),
                )
            )
        return out
