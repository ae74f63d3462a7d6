"""Pass 2 — equivalence canonicalization.

Two mappings that provably produce the same simulated execution should
be *one* point in the search: the oracle deduplicates by
``mapping.key()`` (§5.3 separates mappings suggested from mappings
evaluated), so folding equivalence classes onto a canonical
representative turns repeat simulations into profile-database hits.

The passes here are deliberately conservative — a coordinate is folded
only when the cost model provably cannot observe it:

* **Dead distribute** (``AM201``): the distribute bit only enters the
  execution through ``Placer.point_procs`` (a blocked split over the
  nodes hosting the processor kind vs the first of them).  On a
  single-node machine, or for a kind whose launches all have group
  size 1, both branches yield the same node for every point, so the
  bit is unobservable; canonical form sets it to ``True`` (matching the
  §4.1 default mapping).
* **Dead memory choice** (``AM202``): a slot whose shard intervals are
  empty for every launch and point (e.g. boundary-clamped ghost strips
  of a size-1 launch) contributes no footprint, no coherence copies,
  and no transferred bytes — only the per-access ``link.latency`` term
  of the streaming cost model.  When every concrete processor the kind
  could run on has equal access latency to its closest memory of each
  candidate kind, the choice is unobservable; canonical form picks the
  processor's first (fastest) addressable kind.
* **Zero launches** (``AM203``): a decision for a kind with no launches
  in the graph cannot affect the execution at all (it is also invalid
  per ``AM007``; this pass just reports it).
* **Machine symmetry** (``AM502``): when the machine's kinds are
  interchangeable under a verified relabeling (see
  :class:`repro.analysis.symmetry.MachineSymmetry`), relabeled mappings
  simulate identically, so the canonical form is the lexicographically
  least mapping (by ``mapping.key()``) in the automorphism orbit —
  applied after the coordinate folds above, whose fixed points the
  verified relabelings preserve (keeping ``canonical`` idempotent).

``canonical()`` is a pure, memoized function of the mapping; it is
idempotent and runtime-preserving by construction (covered by property
tests).  The search additionally consults :meth:`dead_distribute_kinds`
and :meth:`canonical_mem` through
:meth:`repro.mapping.space.SearchSpace.prune_infeasible` to skip moves
that canonicalize onto the incumbent (their cached evaluation can never
be a strict improvement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.analysis.symmetry import MachineSymmetry
from repro.machine.kinds import MemKind, ProcKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import Machine, Processor
    from repro.mapping.mapping import Mapping
    from repro.mapping.space import SearchSpace
    from repro.taskgraph.graph import TaskGraph

__all__ = ["Canonicalizer"]


class Canonicalizer:
    """Maps mappings onto canonical representatives of their provable
    runtime-equivalence classes."""

    def __init__(self, graph: "TaskGraph", machine: "Machine") -> None:
        self.graph = graph
        self.machine = machine
        self._dead_distribute: FrozenSet[str] = frozenset(
            self._find_dead_distribute()
        )
        #: (kind, slot_index) -> True when every shard interval is empty.
        self._zero_byte_slots: FrozenSet[Tuple[str, int]] = frozenset(
            self._find_zero_byte_slots()
        )
        #: (kind, slot_index, proc_kind) -> canonical MemKind, for slots
        #: where the memory choice is provably unobservable.
        self._canonical_mem: Dict[Tuple[str, int, ProcKind], MemKind] = (
            self._find_canonical_mems()
        )
        #: Verified kind automorphisms of the machine (often empty).
        self._symmetry = MachineSymmetry(graph, machine)
        self._cache: Dict[Tuple, "Mapping"] = {}
        #: canonicalization calls that changed the mapping.
        self.folded = 0
        #: canonicalization calls the symmetry orbit fold changed.
        self.symmetry_folds = 0

    # ------------------------------------------------------------------
    # Equivalence discovery (once per graph/machine pair)
    # ------------------------------------------------------------------
    def _find_dead_distribute(self) -> List[str]:
        if self.machine.num_nodes == 1:
            return [k.name for k in self.graph.task_kinds]
        out: List[str] = []
        for kind in self.graph.task_kinds:
            launches = self.graph.launches_of_kind(kind.name)
            if launches and all(t.size == 1 for t in launches):
                out.append(kind.name)
        return out

    def _find_zero_byte_slots(self) -> List[Tuple[str, int]]:
        out: List[Tuple[str, int]] = []
        for kind in self.graph.task_kinds:
            launches = self.graph.launches_of_kind(kind.name)
            if not launches:
                continue
            for slot_index in range(kind.num_slots):
                empty = True
                for launch in launches:
                    for point in range(launch.size):
                        lo, hi = launch.shard_interval(
                            slot_index, point, for_write=False
                        )
                        if hi > lo:
                            empty = False
                            break
                    if not empty:
                        break
                if empty:
                    out.append((kind.name, slot_index))
        return out

    def _find_canonical_mems(self) -> Dict[Tuple[str, int, ProcKind], MemKind]:
        out: Dict[Tuple[str, int, ProcKind], MemKind] = {}
        for kind_name, slot_index in self._zero_byte_slots:
            kind = self.graph.kind(kind_name)
            for proc_kind in kind.variants:
                if proc_kind not in self.machine.proc_kinds():
                    continue
                options = self.machine.mem_kinds_for(proc_kind)
                if len(options) <= 1:
                    continue
                if self._equal_latencies(proc_kind, options):
                    out[(kind_name, slot_index, proc_kind)] = options[0]
        return out

    def _equal_latencies(
        self, proc_kind: ProcKind, options: Tuple[MemKind, ...]
    ) -> bool:
        """Whether every concrete processor of ``proc_kind`` sees equal
        access latency to its closest memory of each candidate kind —
        the only term a zero-byte access still pays."""
        for node in range(self.machine.num_nodes):
            for proc in self.machine.processors_of_kind(proc_kind, node):
                latencies = set()
                for mem_kind in options:
                    mem = self.machine.closest_memory(proc, mem_kind)
                    if mem is None:  # pragma: no cover - defensive
                        return False
                    link = self.machine.access_link(proc.uid, mem.uid)
                    latencies.add(link.latency)
                if len(latencies) > 1:
                    return False
        return True

    # ------------------------------------------------------------------
    # Queries used by the pruned search-space view
    # ------------------------------------------------------------------
    def dead_distribute_kinds(self) -> FrozenSet[str]:
        """Kinds whose distribute bit is provably unobservable."""
        return self._dead_distribute

    def canonical_mem(
        self, kind_name: str, slot_index: int, proc_kind: ProcKind
    ) -> Optional[MemKind]:
        """The canonical memory kind for an unobservable slot choice, or
        ``None`` when the slot's memory choice is observable."""
        return self._canonical_mem.get((kind_name, slot_index, proc_kind))

    def is_identity(self) -> bool:
        """Whether canonicalization is the identity on this graph and
        machine pair (no foldable coordinates, no machine symmetry)."""
        return (
            not self._dead_distribute
            and not self._canonical_mem
            and self._symmetry.is_trivial()
        )

    def symmetric_proc_drops(
        self, space: "SearchSpace"
    ) -> Dict[str, Tuple[ProcKind, ...]]:
        """Processor kinds move enumeration may skip per task kind.

        Only provable in the one case where per-coordinate dropping is
        orbit-safe: a space searching exactly one kind with nothing
        fixed.  There a mapping is a single decision, ``mapping.key()``
        compares its processor value right after the (relabeling-
        invariant) distribute bit, so the orbit minimum always uses the
        smallest processor value in the orbit — any kind some
        automorphism maps to a smaller value never appears in a
        canonical representative, and (because relabeling commutes with
        legalization) the canonical twin of every skipped move is
        itself an enumerated move.  Multi-kind symmetric spaces still
        benefit through the oracle's orbit fold (profile-cache hits
        instead of repeat simulations).
        """
        if self._symmetry.is_trivial():
            return {}
        names = space.kind_names()
        if len(names) != 1 or space.fixed_decisions:
            return {}
        (kind_name,) = names
        options = space.dims(kind_name).proc_options
        dropped = set()
        for rel in self._symmetry.automorphisms():
            for pk in options:
                image = rel.proc(pk)
                if image in options and image.value < pk.value:
                    dropped.add(pk)
        if not dropped or len(dropped) == len(options):
            return {}
        return {
            kind_name: tuple(pk for pk in options if pk in dropped)
        }

    # ------------------------------------------------------------------
    # The canonicalization function
    # ------------------------------------------------------------------
    def canonical(self, mapping: "Mapping") -> "Mapping":
        """The canonical representative of ``mapping``'s equivalence
        class.  Pure, memoized, and idempotent; returns ``mapping``
        itself when already canonical."""
        key = mapping.key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = mapping
        for kind in self.graph.task_kinds:
            if kind.name not in mapping:
                continue
            decision = out.decision(kind.name)
            if (
                kind.name in self._dead_distribute
                and not decision.distribute
            ):
                out = out.with_distribute(kind.name, True)
                decision = out.decision(kind.name)
            for slot_index in range(
                min(kind.num_slots, decision.num_slots)
            ):
                target = self._canonical_mem.get(
                    (kind.name, slot_index, decision.proc_kind)
                )
                if (
                    target is not None
                    and decision.mem_kinds[slot_index] != target
                ):
                    out = out.with_mem(kind.name, slot_index, target)
                    decision = out.decision(kind.name)
        if not self._symmetry.is_trivial():
            # Orbit fold: the verified relabelings preserve the fixed
            # points of the coordinate folds above, so taking the orbit
            # minimum afterwards keeps ``canonical`` idempotent.
            best, best_key = out, out.key()
            for rel in self._symmetry.automorphisms():
                image = rel.apply(out)
                image_key = image.key()
                if image_key < best_key:
                    best, best_key = image, image_key
            if best is not out:
                self.symmetry_folds += 1
                out = best
        if out is not mapping:
            self.folded += 1
        self._cache[key] = out
        self._cache.setdefault(out.key(), out)
        return out

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def diagnose_space(self, space: "SearchSpace") -> List[Diagnostic]:
        """``AM201``/``AM202`` for every foldable coordinate of the
        space, plus ``AM203`` for searched kinds with zero launches."""
        out: List[Diagnostic] = []
        for kind_name in space.kind_names():
            dims = space.dims(kind_name)
            launches = self.graph.launches_of_kind(kind_name)
            if not launches:
                out.append(
                    Diagnostic(
                        "AM203",
                        f"task kind {kind_name!r} has zero launches; its "
                        f"decision cannot affect the execution",
                        Span(kind=kind_name),
                    )
                )
                continue
            if (
                kind_name in self._dead_distribute
                and len(dims.distribute_options) > 1
            ):
                out.append(
                    Diagnostic(
                        "AM201",
                        f"{kind_name}: all launches have group size 1; "
                        f"the distribute choice is unobservable "
                        f"(canonical: distribute=True)",
                        Span(kind=kind_name),
                    )
                )
            for proc in dims.proc_options:
                for slot_index, slot_name in enumerate(dims.slot_names):
                    target = self._canonical_mem.get(
                        (kind_name, slot_index, proc)
                    )
                    if target is not None and len(dims.mem_options[proc]) > 1:
                        out.append(
                            Diagnostic(
                                "AM202",
                                f"{kind_name}[{slot_name}] transfers zero "
                                f"bytes on {proc.value} with equal access "
                                f"latencies; the memory choice is "
                                f"unobservable (canonical: {target.value})",
                                Span(kind=kind_name, slot=slot_name),
                            )
                        )
        return out

    def diagnose_symmetry(self) -> List[Diagnostic]:
        """``AM502`` for every verified machine-kind automorphism."""
        return [
            Diagnostic(
                "AM502",
                f"machine kinds are interchangeable under the "
                f"relabeling {rel.describe()}; mappings are folded "
                f"onto the lexicographically least member of each "
                f"orbit",
            )
            for rel in self._symmetry.automorphisms()
        ]
