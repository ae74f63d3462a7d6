"""Memory-capacity accounting, OOM detection, and the spill fallback.

The paper (§3.1) allows mappings "to fail at runtime if a collection
assignment exceeds the capacity of the physical memory", and generalises
a mapping to "a priority list of memories ... where the first memory that
can hold c will be used".  Both behaviours live here:

* :meth:`MemoryPlanner.check` computes the steady-state footprint each
  concrete memory would hold under a mapping and reports overflows — the
  evaluation oracle turns those into failed evaluations (§5.2: AutoMap
  "detect[s] when a mapping results in an out of memory error and mov[es]
  on to a different mapping");
* :meth:`MemoryPlanner.apply_spill` realises the priority-list fallback:
  walking launches in program order, each collection-argument slot keeps
  its mapped memory kind if the instance fits and is demoted to the next
  memory kind in the processor's preference order otherwise.  This is how
  the default mapper's "collections (that fit) are placed in Frame-Buffer
  memory" behaves.

Footprints are unions of byte intervals per (root index space, concrete
memory), so overlapping collections are not double-counted and replicated
arguments are counted once per memory, matching how a runtime shares
physical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.machine.kinds import MemKind, addressable_mem_kinds
from repro.machine.model import Machine
from repro.mapping.mapping import Mapping
from repro.runtime.intervals import IntervalSet
from repro.runtime.placement import Placer
from repro.taskgraph.graph import TaskGraph
from repro.util.units import format_bytes

__all__ = ["OOMError", "MemoryDemand", "MemoryPlanner"]


class OOMError(RuntimeError):
    """A mapping's footprint exceeds some memory's physical capacity."""


@dataclass
class MemoryDemand:
    """Steady-state footprint report for one mapping."""

    #: bytes demanded per concrete memory uid.
    per_memory: Dict[str, int] = field(default_factory=dict)
    #: memories whose demand exceeds capacity: uid -> (demand, capacity).
    overflows: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.overflows

    def describe(self) -> str:
        lines = []
        for uid in sorted(self.per_memory):
            demand = self.per_memory[uid]
            marker = " OVERFLOW" if uid in self.overflows else ""
            lines.append(f"{uid}: {format_bytes(demand)}{marker}")
        return "\n".join(lines)

    def oom_message(self) -> str:
        """The canonical OOM reason for this demand: the message of
        the :class:`OOMError` the planner raises, which the static
        feasibility pass reports for a statically proven OOM."""
        details = ", ".join(
            f"{uid} needs {format_bytes(need)} of {format_bytes(cap)}"
            for uid, (need, cap) in sorted(self.overflows.items())
        )
        return f"mapping exceeds memory capacity: {details}"


class _FootprintAccumulator:
    """Incremental union-of-intervals footprint per (memory, root)."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._per_mem_root: Dict[Tuple[str, str], IntervalSet] = {}
        self._per_mem_total: Dict[str, int] = {}

    def would_fit(self, mem_uid: str, root: str, lo: int, hi: int) -> bool:
        """Whether adding ``[lo, hi)`` of ``root`` to ``mem_uid`` stays
        within capacity."""
        added = self._added_bytes(mem_uid, root, lo, hi)
        capacity = self._machine.memory(mem_uid).capacity
        return self._per_mem_total.get(mem_uid, 0) + added <= capacity

    def _added_bytes(self, mem_uid: str, root: str, lo: int, hi: int) -> int:
        current = self._per_mem_root.get((mem_uid, root))
        if current is None:
            return hi - lo
        return (hi - lo) - current.overlap(lo, hi)

    def add(self, mem_uid: str, root: str, lo: int, hi: int) -> None:
        key = (mem_uid, root)
        current = self._per_mem_root.get(key, IntervalSet.empty())
        added = self._added_bytes(mem_uid, root, lo, hi)
        self._per_mem_root[key] = current.union(IntervalSet.single(lo, hi))
        self._per_mem_total[mem_uid] = (
            self._per_mem_total.get(mem_uid, 0) + added
        )

    def totals(self) -> Dict[str, int]:
        return dict(self._per_mem_total)


class MemoryPlanner:
    """Static capacity analysis of a mapping on a machine.

    With ``memoize=True`` the per-launch shard lists — pure functions of
    the launch's shape and the decision — are cached and shared by
    identical launches, so repeated capacity walks over a search chain
    skip the placement and interval arithmetic.  A memoising planner
    also answers "fits" without any footprint union when each slot's
    decision-free shard bytes, added up per memory kind, fit the
    smallest memory of that kind (:meth:`_totals_fit`); mappings close
    to a capacity take the exact union path.  The walk itself
    (accumulator operations, demotion order, error messages) is
    unchanged, so memoised and unmemoised planners produce identical
    results byte-for-byte; the unmemoised planner is the reference.
    """

    def __init__(
        self, graph: TaskGraph, machine: Machine, memoize: bool = False
    ) -> None:
        self.graph = graph
        self.machine = machine
        #: The point placement every footprint is built from; the
        #: static feasibility pass reads its per-option table too.
        self.placer = Placer(machine)
        #: launch uid -> interned shape id (the per-launch cache key).
        self._shape_of = graph.shape_ids()
        #: Decision-independent per-point read shard intervals,
        #: (shape id, slot) -> ((lo, hi), ...).
        self._interval_cache: Dict[tuple, tuple] = {}
        self._shard_cache: Optional[Dict[tuple, tuple]] = (
            {} if memoize else None
        )
        #: kind -> per-slot read-shard bytes over the kind's distinct
        #: launch shapes (memoising mode only).  Every shard of slot s
        #: lands in a memory of the decision's ``mem_kinds[s]``, so each
        #: figure bounds what the slot adds to the memories of that
        #: kind, whatever the decision.
        self._slot_bytes: Dict[str, Tuple[int, ...]] = {}
        #: memory kind -> smallest capacity among memories of the kind.
        self._min_capacity: Dict[MemKind, int] = {}
        if memoize:
            self._slot_bytes = self._decision_free_slot_bytes()
            for mem in machine.memories:
                self._min_capacity[mem.kind] = min(
                    mem.capacity,
                    self._min_capacity.get(mem.kind, mem.capacity),
                )
        #: Kind names in task-kind declaration order, launches only.
        self._launched_kinds = [
            kind.name
            for kind in graph.task_kinds
            if kind.name in self._slot_bytes
        ]
        #: (kind, decision.key()) -> {(mem_uid, root): IntervalSet}
        self._contrib_cache: Dict[tuple, dict] = {}
        #: (mem_uid, root, contributors) -> union size in bytes
        self._union_cache: Dict[tuple, int] = {}

    def _read_intervals(self, launch, slot_index: int) -> tuple:
        key = (self._shape_of[launch.uid], slot_index)
        cached = self._interval_cache.get(key)
        if cached is None:
            cached = tuple(
                launch.shard_interval(slot_index, point, for_write=False)
                for point in range(launch.size)
            )
            self._interval_cache[key] = cached
        return cached

    def _decision_free_slot_bytes(self) -> Dict[str, Tuple[int, ...]]:
        """Per launched kind, each slot's read-shard bytes summed over
        the kind's distinct launch shapes (equal shapes have equal
        shards, which add nothing to a union)."""
        totals: Dict[str, list] = {}
        seen = set()
        for launch in self.graph.launches:
            shape = self._shape_of[launch.uid]
            if shape in seen:
                continue
            seen.add(shape)
            slots = totals.setdefault(
                launch.kind.name, [0] * launch.kind.num_slots
            )
            for slot_index in range(len(slots)):
                slots[slot_index] += sum(
                    hi - lo
                    for lo, hi in self._read_intervals(launch, slot_index)
                    if hi > lo
                )
        return {name: tuple(slots) for name, slots in totals.items()}

    def _shards(self, launch, decision) -> tuple:
        """Non-empty ``(slot_index, mem_uid, root, lo, hi)`` shards of
        one launch in the program walk's encounter order (placement
        outer, slot inner)."""
        if self._shard_cache is not None:
            key = (self._shape_of[launch.uid], decision.key())
            cached = self._shard_cache.get(key)
            if cached is not None:
                return cached
        entries = []
        placements = self.placer.place_launch(launch, decision)
        slot_data = [
            (launch.args[i].root, self._read_intervals(launch, i))
            for i in range(len(launch.kind.slots))
        ]
        for placement in placements:
            for slot_index, mem in enumerate(placement.mems):
                root, intervals = slot_data[slot_index]
                assert root is not None
                lo, hi = intervals[placement.point]
                if hi > lo:
                    entries.append((slot_index, mem.uid, root, lo, hi))
        shards = tuple(entries)
        if self._shard_cache is not None:
            self._shard_cache[key] = shards
        return shards

    # ------------------------------------------------------------------
    def _kind_contrib(self, kind_name: str, decision) -> dict:
        """Merged ``{(mem_uid, root): disjoint (lo, hi) intervals}``
        footprint contribution of every launch of ``kind_name`` under
        ``decision`` — a pure function of the pair, so it is cached."""
        key = (kind_name, decision.key())
        cached = self._contrib_cache.get(key)
        if cached is not None:
            return cached
        buckets: Dict[Tuple[str, str], list] = {}
        seen = set()
        for launch in self.graph.launches_of_kind(kind_name):
            shape = self._shape_of[launch.uid]
            if shape in seen:
                continue  # identical shards add nothing to the union
            seen.add(shape)
            for _slot, mem_uid, root, lo, hi in self._shards(launch, decision):
                buckets.setdefault((mem_uid, root), []).append((lo, hi))
        contrib = {
            slot_key: tuple(IntervalSet(pieces))
            for slot_key, pieces in buckets.items()
        }
        self._contrib_cache[key] = contrib
        return contrib

    def _totals_fit(self, mapping: Mapping) -> bool:
        """Whether the decision-free slot bytes, added up per memory
        kind under the mapping's ``mem_kinds``, fit the smallest memory
        of each kind.

        Sound, not exact: a memory's union footprint is at most the
        bytes of the shards that land in it, and those are a subset of
        the shards counted under its kind.  A kind the machine lacks
        never fits here, so such mappings reach the exact path.
        """
        need: Dict[MemKind, int] = {}
        for kind_name in self._launched_kinds:
            mem_kinds = mapping.decision(kind_name).mem_kinds
            slot_bytes = self._slot_bytes[kind_name]
            for mem_kind, nbytes in zip(mem_kinds, slot_bytes):
                need[mem_kind] = need.get(mem_kind, 0) + nbytes
        capacity = self._min_capacity
        return all(
            total <= capacity.get(mem_kind, -1)
            for mem_kind, total in need.items()
        )

    def _fast_fits(self, mapping: Mapping) -> bool:
        """Whether the mapping's exact steady-state footprint fits every
        memory, computed from cached per-kind contributions.

        :meth:`_totals_fit` settles most mappings in O(kinds); the rest,
        close to some capacity, take the exact path.  There the final
        per-(memory, root) footprint is the union of the per-kind
        contributions, which is order-independent, so these totals
        equal the ones the program-order walk in :meth:`check`
        produces.  Unions are cached by their contributor set: along a
        search chain most kinds keep their decision, so only groups
        touched by the changed kind are re-merged.
        """
        if self._totals_fit(mapping):
            return True
        groups: Dict[Tuple[str, str], list] = {}
        contribs: Dict[tuple, dict] = {}
        for kind_name in self._launched_kinds:
            decision = mapping.decision(kind_name)
            member = (kind_name, decision.key())
            contrib = self._kind_contrib(kind_name, decision)
            contribs[member] = contrib
            for slot_key in contrib:
                groups.setdefault(slot_key, []).append(member)
        totals: Dict[str, int] = {}
        for slot_key, members in groups.items():
            mem_uid, _root = slot_key
            union_key = (slot_key, tuple(members))
            size = self._union_cache.get(union_key)
            if size is None:
                pieces: list = []
                for member in members:
                    pieces.extend(contribs[member][slot_key])
                size = IntervalSet(pieces).total
                self._union_cache[union_key] = size
            totals[mem_uid] = totals.get(mem_uid, 0) + size
        for mem_uid, total in totals.items():
            if total > self.machine.memory(mem_uid).capacity:
                return False
        return True

    # ------------------------------------------------------------------
    def check(self, mapping: Mapping) -> MemoryDemand:
        """Compute the footprint of ``mapping``; report overflows."""
        acc = _FootprintAccumulator(self.machine)
        for launch in self.graph.launches:
            decision = mapping.decision(launch.kind.name)
            for _slot, mem_uid, root, lo, hi in self._shards(launch, decision):
                acc.add(mem_uid, root, lo, hi)
        demand = MemoryDemand(per_memory=acc.totals())
        for uid, total in demand.per_memory.items():
            capacity = self.machine.memory(uid).capacity
            if total > capacity:
                demand.overflows[uid] = (total, capacity)
        return demand

    def ensure_fits(self, mapping: Mapping) -> None:
        """Raise :class:`OOMError` if the mapping overflows any memory."""
        if self._shard_cache is not None and self._fast_fits(mapping):
            return
        # Overflow (or no memoisation): take the exact walk so the OOM
        # message is byte-identical to the unmemoised planner's.
        demand = self.check(mapping)
        if not demand.ok:
            raise OOMError(demand.oom_message())

    # ------------------------------------------------------------------
    def apply_spill(self, mapping: Mapping) -> Mapping:
        """Demote overflowing slots along the priority list (§3.1).

        Slots are considered in program order of their first use; a slot
        that does not fit in its mapped memory kind is demoted — for the
        *whole kind*, keeping the factored-space invariant that all
        launches of a kind share one decision — to the next addressable
        memory kind.  Raises :class:`OOMError` when no kind fits.
        """
        if self._shard_cache is not None and self._fast_fits(mapping):
            # Footprint accumulation is monotone, so if the final
            # per-memory unions fit, every prefix ``would_fit`` check in
            # the exact walk below passes and the walk returns the
            # mapping unchanged — skip it.
            return mapping
        current = mapping
        # Iterate to a fixed point: each pass re-walks program order
        # with the demotions so far and either returns or demotes one
        # slot.  A processor kind addresses two memory kinds, so a valid
        # slot is demoted at most once before _next_kind runs out and
        # the walk raises (a slot on neither kind at most twice): one
        # final pass plus two per slot always suffices.
        for _ in range(1 + sum(k.num_slots for k in self.graph.task_kinds) * 2):
            acc = _FootprintAccumulator(self.machine)
            retry = False
            for launch in self.graph.launches:
                decision = current.decision(launch.kind.name)
                for slot_index, mem_uid, root, lo, hi in self._shards(
                    launch, decision
                ):
                    if acc.would_fit(mem_uid, root, lo, hi):
                        acc.add(mem_uid, root, lo, hi)
                        continue
                    # Demote this slot to the next preference kind.
                    next_kind = self._next_kind(
                        decision.proc_kind, decision.mem_kinds[slot_index]
                    )
                    if next_kind is None:
                        raise OOMError(
                            f"no memory kind can hold "
                            f"{launch.kind.name}[{slot_index}] "
                            f"({format_bytes(hi - lo)} shard in "
                            f"{mem_uid})"
                        )
                    current = current.with_mem(
                        launch.kind.name, slot_index, next_kind
                    )
                    retry = True
                    break
                if retry:
                    break
            if not retry:
                return current
        raise OOMError("spill fallback failed to converge")

    def _next_kind(
        self, proc_kind, mem_kind: MemKind
    ) -> Optional[MemKind]:
        """Next memory kind after ``mem_kind`` in the processor's
        preference order that exists on this machine."""
        order = [
            mk
            for mk in addressable_mem_kinds(proc_kind)
            if mk in self.machine.mem_kinds()
        ]
        try:
            index = order.index(mem_kind)
        except ValueError:
            return order[0] if order else None
        if index + 1 < len(order):
            return order[index + 1]
        return None
