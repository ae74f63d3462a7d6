"""The search-space representation (paper §3.2, §3.3).

AutoMap's input is "a file containing the search space and machine model
representation containing all or a subset of tasks and data collections of
the target application", produced by profiling the application once.
:class:`SearchSpace` is that representation: for every task kind it
records the distribution options, the processor kinds with variants, and
for each collection-argument slot the memory-kind choices.

Two views of the space coexist:

* the **constrained** view — only mappings satisfying addressability —
  used by CD/CCD and for the Figure 5 size estimates;
* the **unconstrained** view — the plain cross-product over all memory
  kinds — used by the OpenTuner-style ensemble, which "cannot represent
  constrained search spaces" (§4.3) and therefore proposes invalid
  mappings that AutoMap rejects with a high value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.machine.kinds import ADDRESSABLE, MemKind, ProcKind
from repro.machine.model import Machine
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.taskgraph.graph import TaskGraph
from repro.util.rng import RngStream
from repro.util.serialization import dump_json, load_json

__all__ = ["KindDimensions", "SearchSpace"]


@dataclass(frozen=True)
class KindDimensions:
    """Search dimensions for one task kind."""

    kind_name: str
    slot_names: Tuple[str, ...]
    distribute_options: Tuple[bool, ...]
    proc_options: Tuple[ProcKind, ...]
    #: Memory options per slot *given* each processor kind choice.
    mem_options: Dict[ProcKind, Tuple[MemKind, ...]]
    #: Memory options per slot in the unconstrained view.
    all_mem_options: Tuple[MemKind, ...]

    @property
    def num_slots(self) -> int:
        return len(self.slot_names)

    def valid_combinations(self) -> int:
        """Number of valid (distribute, proc, mems...) combinations."""
        total = 0
        for proc in self.proc_options:
            per_slot = len(self.mem_options[proc])
            total += per_slot**self.num_slots
        return len(self.distribute_options) * total

    def unconstrained_combinations(self) -> int:
        """Cross-product size in the unconstrained view."""
        return (
            len(self.distribute_options)
            * len(self.proc_options)
            * len(self.all_mem_options) ** self.num_slots
        )


class SearchSpace:
    """The mapping search space for one (task graph, machine) pair.

    ``fixed_decisions`` pins selected task kinds to given decisions and
    removes them from the searched dimensions — §3.3's "all or a subset
    of tasks and data collections", used e.g. by the Maestro experiment
    where the high-fidelity simulation's mapping is fixed and only the
    low-fidelity ensemble is tuned (§5.1).
    """

    def __init__(
        self,
        graph: TaskGraph,
        machine: Machine,
        fixed_decisions: Optional[Dict[str, MappingDecision]] = None,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self._fixed: Dict[str, MappingDecision] = dict(fixed_decisions or {})
        graph_kinds = {k.name for k in graph.task_kinds}
        for name in self._fixed:
            if name not in graph_kinds:
                raise ValueError(
                    f"fixed decision for unknown task kind {name!r}"
                )
        machine_proc_kinds = set(machine.proc_kinds())
        all_mem_kinds = machine.mem_kinds()

        # Static-analysis pruning tables (see :meth:`prune_infeasible`).
        # Empty on a freshly built space: every dimension is searched.
        self._dead_mems: Dict[Tuple[str, ProcKind, int], Tuple[MemKind, ...]] = {}
        self._canonical_mems: Dict[Tuple[str, ProcKind, int], MemKind] = {}
        self._dead_distribute: frozenset = frozenset()
        #: kind -> processor kinds a machine-symmetry proof drops from
        #: enumeration (their orbits' canonical members use the kept kinds).
        self._sym_procs: Dict[str, Tuple[ProcKind, ...]] = {}

        self._dims: Dict[str, KindDimensions] = {}
        for kind in graph.task_kinds:
            procs = tuple(
                pk for pk in ProcKind
                if pk in kind.variants and pk in machine_proc_kinds
            )
            if not procs:
                raise ValueError(
                    f"task kind {kind.name!r} has no variant runnable on "
                    f"machine {machine.name!r}"
                )
            mem_options = {
                proc: machine.mem_kinds_for(proc) for proc in procs
            }
            for proc, mems in mem_options.items():
                if not mems:
                    raise ValueError(
                        f"machine {machine.name!r} offers no memory "
                        f"addressable from {proc.value}"
                    )
            distribute_options = (
                (True, False) if machine.num_nodes > 1 else (True,)
            )
            self._dims[kind.name] = KindDimensions(
                kind_name=kind.name,
                slot_names=tuple(s.name for s in kind.slots),
                distribute_options=distribute_options,
                proc_options=procs,
                mem_options=mem_options,
                all_mem_options=all_mem_kinds,
            )

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    def dims(self, kind_name: str) -> KindDimensions:
        """The *full* dimensions of a kind.

        Always unpruned: the Figure 5 size estimates, the §4.1 default
        mapping, legalization, and co-location all reason over the real
        space.  Move enumeration should use :meth:`searched_mem_options`
        and :meth:`searched_distribute_options`, which respect
        :meth:`prune_infeasible`.
        """
        return self._dims[kind_name]

    def legal_mems(
        self,
        kind_name: str,
        proc_kind: ProcKind,
        mem_kinds: Sequence[MemKind],
    ) -> Tuple[MemKind, ...]:
        """Constraint (1) for one kind: ``mem_kinds`` with every slot
        ``proc_kind`` cannot address reset to the fastest memory kind it
        can (the runtime's deterministic legalisation)."""
        for mem_kind in mem_kinds:
            if (proc_kind, mem_kind) not in ADDRESSABLE:
                break
        else:
            return tuple(mem_kinds)
        fastest = self._dims[kind_name].mem_options[proc_kind][0]
        return tuple(
            mem_kind if (proc_kind, mem_kind) in ADDRESSABLE else fastest
            for mem_kind in mem_kinds
        )

    def placement_move(
        self,
        mapping: Mapping,
        kind_name: str,
        proc_kind: ProcKind,
        slot_index: int,
        mem_kind: MemKind,
    ) -> Mapping:
        """``mapping`` with ``kind_name`` on ``proc_kind`` and its slot
        ``slot_index`` on ``mem_kind`` (Alg. 1 line 16), the kind's other
        slots legalised by :meth:`legal_mems`."""
        decision = mapping.decision(kind_name)
        mems = list(decision.mem_kinds)
        mems[slot_index] = mem_kind
        return mapping.with_decision(
            kind_name,
            MappingDecision(
                distribute=decision.distribute,
                proc_kind=proc_kind,
                mem_kinds=self.legal_mems(kind_name, proc_kind, mems),
            ),
        )

    def searched_distribute_options(self, kind_name: str) -> Tuple[bool, ...]:
        """Distribute options the search should enumerate for a kind."""
        if kind_name in self._dead_distribute:
            return (True,)
        return self._dims[kind_name].distribute_options

    def searched_mem_options(
        self, kind_name: str, proc: ProcKind, slot_index: int
    ) -> Tuple[MemKind, ...]:
        """Memory options the search should enumerate for one slot
        given a processor-kind choice.

        On a pruned view this drops options a static pass proved dead
        (``AM101``: any containing mapping overflows) or runtime-
        equivalent to the canonical choice (``AM202``); never empty.
        """
        options = self._dims[kind_name].mem_options[proc]
        key = (kind_name, proc, slot_index)
        canonical = self._canonical_mems.get(key)
        if canonical is not None:
            return (canonical,)
        dead = self._dead_mems.get(key)
        if dead:
            kept = tuple(m for m in options if m not in dead)
            if kept:
                return kept
        return options

    def searched_proc_options(self, kind_name: str) -> Tuple[ProcKind, ...]:
        """Processor kinds the search should enumerate for a kind.

        On a pruned view this drops kinds a machine-symmetry proof
        showed redundant (``AM502``): every mapping using a dropped kind
        canonicalizes onto one using a kept kind, so enumerating it can
        only re-propose cached twins; never empty.
        """
        options = self._dims[kind_name].proc_options
        dropped = self._sym_procs.get(kind_name)
        if dropped:
            kept = tuple(p for p in options if p not in dropped)
            if kept:
                return kept
        return options

    @property
    def is_pruned(self) -> bool:
        """Whether this view carries static-analysis pruning tables."""
        return bool(
            self._dead_mems
            or self._canonical_mems
            or self._dead_distribute
            or self._sym_procs
        )

    def prune_infeasible(
        self, feasibility=None, canonicalizer=None
    ) -> "SearchSpace":
        """A constrained view of this space for move enumeration.

        Returns a new :class:`SearchSpace` whose ``searched_*`` methods
        skip provably-dead coordinates: memory options whose footprint
        contribution alone overflows some memory under every distribute
        choice (from
        :class:`repro.analysis.memfeas.StaticMemoryFeasibility`), and —
        when a :class:`repro.analysis.canonical.Canonicalizer` is given
        — coordinates that fold onto a canonical representative, whose
        re-evaluation could never beat the incumbent's cached result.

        ``dims()`` and everything built on it (sizes, default/random
        mappings, codecs) are unchanged, so pruning cannot alter the
        §4.1 starting mapping, legalization, or reported space sizes.

        Called with no arguments, a fresh feasibility pass is built;
        passing ``feasibility=None`` alongside an explicit
        ``canonicalizer`` skips feasibility pruning (the driver does
        this when spill mode turns overflow into demotion rather than
        failure, making overflowing options live again).
        """
        if feasibility is None and canonicalizer is None:
            from repro.analysis.memfeas import StaticMemoryFeasibility

            feasibility = StaticMemoryFeasibility(self.graph, self.machine)
        pruned = SearchSpace(self.graph, self.machine, self._fixed)
        if feasibility is not None:
            pruned._dead_mems = dict(feasibility.dead_slot_options(self))
        if canonicalizer is not None:
            pruned._dead_distribute = frozenset(
                canonicalizer.dead_distribute_kinds()
            )
            canonical_mems: Dict[Tuple[str, ProcKind, int], MemKind] = {}
            for kind_name, dims in self._dims.items():
                for proc in dims.proc_options:
                    for slot_index in range(dims.num_slots):
                        target = canonicalizer.canonical_mem(
                            kind_name, slot_index, proc
                        )
                        if target is not None:
                            canonical_mems[(kind_name, proc, slot_index)] = (
                                target
                            )
            pruned._canonical_mems = canonical_mems
            sym_procs: Dict[str, Tuple[ProcKind, ...]] = {}
            for kind_name, dropped in canonicalizer.symmetric_proc_drops(
                self
            ).items():
                options = self._dims[kind_name].proc_options
                kept = tuple(p for p in options if p not in dropped)
                # A fold must always leave at least one enumerable
                # processor option; on single-processor(-kind) machines
                # a total drop would empty the dimension, so it is
                # discarded here (searched_proc_options re-checks at
                # read time as a second line of defence).
                if kept:
                    sym_procs[kind_name] = tuple(
                        p for p in dropped if p in options
                    )
            pruned._sym_procs = sym_procs
        return pruned

    def kind_names(self) -> Tuple[str, ...]:
        """The *searched* task kinds (fixed kinds excluded)."""
        return tuple(
            name for name in self._dims if name not in self._fixed
        )

    @property
    def fixed_decisions(self) -> Dict[str, MappingDecision]:
        return dict(self._fixed)

    def is_tunable(self, kind_name: str) -> bool:
        """Whether the search may change this kind's decision."""
        return kind_name in self._dims and kind_name not in self._fixed

    def _tunable_dims(self) -> Dict[str, KindDimensions]:
        return {
            name: dims
            for name, dims in self._dims.items()
            if name not in self._fixed
        }

    @property
    def num_tasks(self) -> int:
        """Figure 5's "Tasks" column: searched task kinds (Maestro's row
        reads "13 (only LFs)" because the HF kinds are fixed)."""
        return len(self._tunable_dims())

    @property
    def num_collection_arguments(self) -> int:
        """Figure 5's "Collection Arguments" column (searched slots)."""
        return sum(d.num_slots for d in self._tunable_dims().values())

    # ------------------------------------------------------------------
    # Size estimates
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Exact number of valid mappings (over searched kinds)."""
        total = 1
        for dims in self._tunable_dims().values():
            total *= dims.valid_combinations()
        return total

    def log2_size(self) -> float:
        """``log2`` of the valid-mapping count — the Figure 5 "Search
        Space Size" column (the paper reports ``~2^k``)."""
        return math.log2(self.size())

    def unconstrained_size(self) -> int:
        """Cross-product size of the unconstrained (generic-tuner) view."""
        total = 1
        for dims in self._tunable_dims().values():
            total *= dims.unconstrained_combinations()
        return total

    # ------------------------------------------------------------------
    # Canonical mappings
    # ------------------------------------------------------------------
    def default_mapping(self) -> Mapping:
        """The paper's starting point (§4.1): group tasks distributed
        across all nodes, tasks with GPU variants on GPUs, collections in
        Frame-Buffer memory (capacity overflow is handled at runtime by
        the priority-list fallback)."""
        decisions = {}
        for kind_name, dims in self._dims.items():
            if kind_name in self._fixed:
                decisions[kind_name] = self._fixed[kind_name]
                continue
            proc = (
                ProcKind.GPU
                if ProcKind.GPU in dims.proc_options
                else dims.proc_options[0]
            )
            fastest = dims.mem_options[proc][0]
            decisions[kind_name] = MappingDecision(
                distribute=True,
                proc_kind=proc,
                mem_kinds=(fastest,) * dims.num_slots,
            )
        return Mapping(decisions)

    def random_mapping(
        self, rng: RngStream, valid: bool = True
    ) -> Mapping:
        """A uniformly random mapping.

        With ``valid=True`` memory kinds are drawn from the chosen
        processor's addressable kinds; with ``valid=False`` from all
        machine memory kinds (the generic tuner's view).
        """
        decisions = {}
        for kind_name, dims in self._dims.items():
            if kind_name in self._fixed:
                decisions[kind_name] = self._fixed[kind_name]
                continue
            distribute = rng.choice(dims.distribute_options)
            proc = rng.choice(dims.proc_options)
            pool: Sequence[MemKind] = (
                dims.mem_options[proc] if valid else dims.all_mem_options
            )
            mems = tuple(rng.choice(pool) for _ in range(dims.num_slots))
            decisions[kind_name] = MappingDecision(
                distribute=distribute, proc_kind=proc, mem_kinds=mems
            )
        return Mapping(decisions)

    def enumerate_valid(self) -> Iterator[Mapping]:
        """Yield every valid mapping (exhaustive search on tiny spaces;
        guard with :meth:`size` before calling)."""
        per_kind: List[List[MappingDecision]] = []
        kind_names = list(self._dims)
        for kind_name in kind_names:
            dims = self._dims[kind_name]
            if kind_name in self._fixed:
                per_kind.append([self._fixed[kind_name]])
                continue
            options: List[MappingDecision] = []
            for distribute in dims.distribute_options:
                for proc in dims.proc_options:
                    for mems in itertools.product(
                        dims.mem_options[proc], repeat=dims.num_slots
                    ):
                        options.append(
                            MappingDecision(
                                distribute=distribute,
                                proc_kind=proc,
                                mem_kinds=mems,
                            )
                        )
            per_kind.append(options)
        for combo in itertools.product(*per_kind):
            yield Mapping(dict(zip(kind_names, combo)))

    # ------------------------------------------------------------------
    # Integer-vector codec for generic tuners (unconstrained view)
    # ------------------------------------------------------------------
    def vector_dims(self) -> List[int]:
        """Cardinality of each integer dimension, kind by kind:
        ``[dist, proc, mem_0, ..., mem_{n-1}] ...``."""
        dims_out: List[int] = []
        for dims in self._tunable_dims().values():
            dims_out.append(len(dims.distribute_options))
            dims_out.append(len(dims.proc_options))
            dims_out.extend([len(dims.all_mem_options)] * dims.num_slots)
        return dims_out

    def decode(self, vector: Sequence[int]) -> Mapping:
        """Decode an unconstrained integer vector into a (possibly
        invalid) mapping."""
        expected = len(self.vector_dims())
        if len(vector) != expected:
            raise ValueError(
                f"vector length {len(vector)} != expected {expected}"
            )
        decisions = dict(self._fixed)
        i = 0
        for kind_name, dims in self._tunable_dims().items():
            distribute = dims.distribute_options[
                vector[i] % len(dims.distribute_options)
            ]
            proc = dims.proc_options[vector[i + 1] % len(dims.proc_options)]
            i += 2
            mems = []
            for _ in range(dims.num_slots):
                mems.append(
                    dims.all_mem_options[vector[i] % len(dims.all_mem_options)]
                )
                i += 1
            decisions[kind_name] = MappingDecision(
                distribute=distribute, proc_kind=proc, mem_kinds=tuple(mems)
            )
        return Mapping(decisions)

    def encode(self, mapping: Mapping) -> List[int]:
        """Encode a mapping into the unconstrained integer vector."""
        vector: List[int] = []
        for kind_name, dims in self._tunable_dims().items():
            decision = mapping.decision(kind_name)
            vector.append(dims.distribute_options.index(decision.distribute))
            vector.append(dims.proc_options.index(decision.proc_kind))
            for mem in decision.mem_kinds:
                vector.append(dims.all_mem_options.index(mem))
        return vector

    # ------------------------------------------------------------------
    # File I/O (paper §3.3: the search-space representation file)
    # ------------------------------------------------------------------
    def to_file(self, path: Union[str, Path]) -> None:
        """Persist the search-space representation as JSON."""
        doc = {
            "format": "automap-search-space-v1",
            "graph": self.graph.name,
            "machine": self.machine.name,
            "num_nodes": self.machine.num_nodes,
            "kinds": [
                {
                    "name": dims.kind_name,
                    "slots": list(dims.slot_names),
                    "distribute_options": list(dims.distribute_options),
                    "proc_options": [p.value for p in dims.proc_options],
                    "mem_options": {
                        p.value: [m.value for m in mems]
                        for p, mems in dims.mem_options.items()
                    },
                }
                for dims in self._dims.values()
            ],
            "size_log2": self.log2_size(),
        }
        dump_json(doc, path)

    @staticmethod
    def summary_from_file(path: Union[str, Path]) -> Dict:
        """Read back the persisted representation (summary form)."""
        doc = load_json(path)
        if doc.get("format") != "automap-search-space-v1":
            raise ValueError(f"not a search-space file: {path}")
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SearchSpace(tasks={self.num_tasks}, "
            f"args={self.num_collection_arguments}, "
            f"size~2^{self.log2_size():.0f})"
        )
