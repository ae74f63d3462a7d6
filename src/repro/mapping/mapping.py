"""The full mapping function.

A :class:`Mapping` is an immutable assignment of a
:class:`~repro.mapping.decision.MappingDecision` to every task kind of a
task graph.  Search algorithms explore the space through the functional
update helpers (``with_*``), which share unchanged decisions — mappings
are cheap to copy and safe to keep in a profiles database keyed by
:meth:`Mapping.key`.

A mapping built from a dict sorts its kind names once and indexes them
by position; every mapping derived from it through ``with_*`` shares
that sorted tuple and index.  An update copies the decision dict and
derives the key by replacing the changed kinds' entries in the parent's
key tuple, so a candidate costs what changed in it rather than a re-sort
and a walk over every kind's key.  Iteration, :meth:`Mapping.items` and
:meth:`Mapping.kind_names` follow the shared sorted order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping as TMapping, Tuple

from repro.machine.kinds import MemKind, ProcKind
from repro.mapping.decision import MappingDecision

__all__ = ["Mapping"]


class Mapping:
    """An immutable mapping: task kind name → :class:`MappingDecision`."""

    __slots__ = ("_decisions", "_names", "_index", "_key")

    def __init__(self, decisions: TMapping[str, MappingDecision]) -> None:
        if not decisions:
            raise ValueError("a mapping must cover at least one task kind")
        self._decisions: Dict[str, MappingDecision] = dict(decisions)
        #: Kind names in sorted order, and each name's position in it;
        #: shared by every mapping derived from this one.
        self._names: Tuple[str, ...] = tuple(sorted(self._decisions))
        self._index: Dict[str, int] = {
            name: position for position, name in enumerate(self._names)
        }
        self._key: Tuple = tuple(
            (name, self._decisions[name].key()) for name in self._names
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def decision(self, kind_name: str) -> MappingDecision:
        """The decision for the named task kind (``KeyError`` if absent)."""
        return self._decisions[kind_name]

    def __contains__(self, kind_name: str) -> bool:
        return kind_name in self._decisions

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._decisions)

    def kind_names(self) -> Tuple[str, ...]:
        return self._names

    def items(self) -> Iterable[Tuple[str, MappingDecision]]:
        decisions = self._decisions
        return ((name, decisions[name]) for name in self._names)

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_decisions(
        self, updates: TMapping[str, MappingDecision]
    ) -> "Mapping":
        """Copy with the named kinds' whole decisions replaced.

        The copy shares this mapping's kind order and index, and its key
        is this mapping's key with the replaced kinds' entries swapped."""
        decisions = dict(self._decisions)
        key = list(self._key)
        index = self._index
        for kind_name, decision in updates.items():
            position = index.get(kind_name)
            if position is None:
                raise KeyError(
                    f"mapping does not cover task kind {kind_name!r}"
                )
            decisions[kind_name] = decision
            key[position] = (kind_name, decision.key())
        new = Mapping.__new__(Mapping)
        new._decisions = decisions
        new._names = self._names
        new._index = index
        new._key = tuple(key)
        return new

    def with_decision(self, kind_name: str, decision: MappingDecision) -> "Mapping":
        """Copy with one kind's whole decision replaced."""
        return self.with_decisions({kind_name: decision})

    def with_distribute(self, kind_name: str, distribute: bool) -> "Mapping":
        return self.with_decision(
            kind_name, self.decision(kind_name).with_distribute(distribute)
        )

    def with_proc(self, kind_name: str, proc_kind: ProcKind) -> "Mapping":
        return self.with_decision(
            kind_name, self.decision(kind_name).with_proc(proc_kind)
        )

    def with_mem(
        self, kind_name: str, slot_index: int, mem_kind: MemKind
    ) -> "Mapping":
        return self.with_decision(
            kind_name, self.decision(kind_name).with_mem(slot_index, mem_kind)
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def key(self) -> Tuple:
        """Canonical hashable identity (used to deduplicate evaluations:
        §5.3 distinguishes mappings *suggested* from mappings *evaluated*)."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # ------------------------------------------------------------------
    # Introspection helpers used by reports and tests
    # ------------------------------------------------------------------
    def count_proc(self, proc_kind: ProcKind) -> int:
        """Number of task kinds mapped to ``proc_kind``."""
        return sum(
            1 for d in self._decisions.values() if d.proc_kind == proc_kind
        )

    def count_mem(self, mem_kind: MemKind) -> int:
        """Number of argument slots mapped to ``mem_kind``."""
        return sum(
            sum(1 for m in d.mem_kinds if m == mem_kind)
            for d in self._decisions.values()
        )

    def describe(self) -> str:
        """One line per kind: ``kind [dist|gpu|fb,fb,zc]``."""
        return "\n".join(
            f"{name} {decision}" for name, decision in self.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mapping({len(self._decisions)} kinds)"
