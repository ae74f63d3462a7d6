"""The task dependence graph.

Nodes are task launches; edges represent a partial order on execution
(paper §2).  Each dependence edge carries the collection that induces it,
because the runtime needs *per-collection* dependence information to know
what data must flow where — the paper lists this as the feature another
task-based system must expose to use AutoMap (§3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.taskgraph.collection import Collection
from repro.taskgraph.task import TaskKind, TaskLaunch

__all__ = ["Dependence", "TaskGraph"]


@dataclass(frozen=True)
class Dependence:
    """A dependence edge: ``dst`` must wait for ``src``.

    ``collection`` names the data whose flow induces the edge (the
    producer's written collection); ``consumer_collection`` the possibly
    different — but overlapping — collection through which the consumer
    sees that data (e.g. a halo region fed by a neighbouring interior
    partition).
    """

    src: str
    dst: str
    collection: str
    consumer_collection: str


class TaskGraph:
    """An immutable acyclic dependence graph of task launches.

    Use :class:`repro.taskgraph.builder.GraphBuilder` to construct graphs;
    direct construction is for tests and deserialization.
    """

    def __init__(
        self,
        name: str,
        launches: Sequence[TaskLaunch],
        dependences: Sequence[Dependence],
    ) -> None:
        self.name = name
        self.launches: Tuple[TaskLaunch, ...] = tuple(
            sorted(launches, key=lambda t: t.sequence)
        )
        self.dependences: Tuple[Dependence, ...] = tuple(dependences)

        self._by_uid: Dict[str, TaskLaunch] = {}
        for launch in self.launches:
            if launch.uid in self._by_uid:
                raise ValueError(f"duplicate launch uid {launch.uid!r}")
            self._by_uid[launch.uid] = launch

        self._preds: Dict[str, List[Dependence]] = defaultdict(list)
        self._succs: Dict[str, List[Dependence]] = defaultdict(list)
        for dep in self.dependences:
            if dep.src not in self._by_uid or dep.dst not in self._by_uid:
                raise ValueError(
                    f"dependence {dep.src}->{dep.dst} references unknown launch"
                )
            if dep.src == dep.dst:
                raise ValueError(f"self-dependence on {dep.src}")
            self._preds[dep.dst].append(dep)
            self._succs[dep.src].append(dep)

        self._check_acyclic()

        # Kind and collection registries (deterministic order of first use).
        self._kinds: Dict[str, TaskKind] = {}
        self._collections: Dict[str, Collection] = {}
        for launch in self.launches:
            existing = self._kinds.get(launch.kind.name)
            if existing is not None and existing is not launch.kind:
                if existing != launch.kind:
                    raise ValueError(
                        f"conflicting definitions of task kind "
                        f"{launch.kind.name!r}"
                    )
            self._kinds.setdefault(launch.kind.name, launch.kind)
            for arg in launch.args:
                existing_c = self._collections.get(arg.name)
                if existing_c is not None and existing_c != arg:
                    raise ValueError(
                        f"conflicting definitions of collection {arg.name!r}"
                    )
                self._collections.setdefault(arg.name, arg)
        #: Interned launch shapes, built on first use (see shape_ids).
        self._shape_ids: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    def _check_acyclic(self) -> None:
        """Kahn's algorithm; raises on cycles, naming the launches and
        edges stuck on the cycle so the offending builder code can be
        found without bisecting the graph."""
        indegree = {uid: len(self._preds[uid]) for uid in self._by_uid}
        ready = [uid for uid, deg in indegree.items() if deg == 0]
        seen = 0
        while ready:
            uid = ready.pop()
            seen += 1
            for dep in self._succs[uid]:
                indegree[dep.dst] -= 1
                if indegree[dep.dst] == 0:
                    ready.append(dep.dst)
        if seen != len(self._by_uid):
            stuck = sorted(
                (uid for uid, deg in indegree.items() if deg > 0),
                key=lambda u: self._by_uid[u].sequence,
            )
            shown = ", ".join(stuck[:6]) + (
                f", ... ({len(stuck)} launches total)" if len(stuck) > 6 else ""
            )
            stuck_set = set(stuck)
            edges = [
                f"{dep.src}->{dep.dst} (via {dep.collection!r})"
                for dep in self.dependences
                if dep.src in stuck_set and dep.dst in stuck_set
            ]
            edge_note = "; ".join(edges[:6]) + (
                f"; ... ({len(edges)} edges total)" if len(edges) > 6 else ""
            )
            raise ValueError(
                f"task graph {self.name!r} contains a cycle through "
                f"launches: {shown}; cycle edges: {edge_note} — remove or "
                f"reverse one of these dependences"
            )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def launch(self, uid: str) -> TaskLaunch:
        return self._by_uid[uid]

    def __len__(self) -> int:
        return len(self.launches)

    def __contains__(self, uid: str) -> bool:
        return uid in self._by_uid

    def predecessors(self, uid: str) -> List[Dependence]:
        """Dependence edges into ``uid``."""
        return list(self._preds.get(uid, ()))

    def successors(self, uid: str) -> List[Dependence]:
        """Dependence edges out of ``uid``."""
        return list(self._succs.get(uid, ()))

    @property
    def task_kinds(self) -> Tuple[TaskKind, ...]:
        """Distinct task kinds, in order of first launch."""
        return tuple(self._kinds.values())

    @property
    def collections(self) -> Tuple[Collection, ...]:
        """Distinct collections, in order of first use."""
        return tuple(self._collections.values())

    def kind(self, name: str) -> TaskKind:
        return self._kinds[name]

    def collection(self, name: str) -> Collection:
        return self._collections[name]

    def launches_of_kind(self, kind_name: str) -> List[TaskLaunch]:
        """All launches of the named kind, in program order."""
        return [t for t in self.launches if t.kind.name == kind_name]

    def shape_ids(self) -> Dict[str, int]:
        """Launch uid -> interned :attr:`TaskLaunch.shape` id.

        Ids are dense ints numbered by first appearance in program
        order; launches with equal shapes share one id, so caches of
        per-``(launch, decision)`` work keyed on it hold one entry per
        distinct launch and hash as cheaply as a uid.  The returned dict
        is shared: treat it as read-only.
        """
        if self._shape_ids is None:
            interned: Dict[tuple, int] = {}
            self._shape_ids = {
                launch.uid: interned.setdefault(launch.shape, len(interned))
                for launch in self.launches
            }
        return self._shape_ids

    # ------------------------------------------------------------------
    # Mapping-relevant aggregates
    # ------------------------------------------------------------------
    def num_collection_arguments(self) -> int:
        """Total collection-argument *slots* over distinct kinds.

        This is Figure 5's "Collection Arguments" column: the number of
        per-argument memory decisions the search must make.
        """
        return sum(kind.num_slots for kind in self.task_kinds)

    def kind_flops(self) -> Dict[str, float]:
        """Total FLOPs per task kind over all launches (search ordering
        proxy before profiling data exists)."""
        totals: Dict[str, float] = {k.name: 0.0 for k in self.task_kinds}
        for launch in self.launches:
            totals[launch.kind.name] += launch.flops
        return totals

    def topological_order(self) -> List[TaskLaunch]:
        """Launches in a dependence-respecting order.

        Program order is already topological for builder-produced graphs,
        but this recomputes from edges (stable by sequence) to stay
        correct for hand-built graphs.
        """
        indegree = {uid: len(self._preds[uid]) for uid in self._by_uid}
        ready = sorted(
            (uid for uid, deg in indegree.items() if deg == 0),
            key=lambda u: self._by_uid[u].sequence,
        )
        order: List[TaskLaunch] = []
        import heapq

        heap = [(self._by_uid[u].sequence, u) for u in ready]
        heapq.heapify(heap)
        while heap:
            _, uid = heapq.heappop(heap)
            order.append(self._by_uid[uid])
            for dep in self._succs[uid]:
                indegree[dep.dst] -= 1
                if indegree[dep.dst] == 0:
                    heapq.heappush(
                        heap, (self._by_uid[dep.dst].sequence, dep.dst)
                    )
        return order

    def critical_path_flops(self) -> float:
        """Length of the longest dependence chain weighted by FLOPs
        (a machine-independent lower-bound shape used in tests)."""
        longest: Dict[str, float] = {}
        for launch in self.topological_order():
            incoming = [
                longest[dep.src] for dep in self._preds.get(launch.uid, ())
            ]
            longest[launch.uid] = launch.flops + (max(incoming) if incoming else 0.0)
        return max(longest.values(), default=0.0)

    def describe(self) -> str:
        """Multi-line summary: kinds, argument slots, launches, edges."""
        lines = [
            f"TaskGraph {self.name!r}: {len(self.launches)} launches, "
            f"{len(self.dependences)} dependences",
            f"  kinds: {len(self.task_kinds)}, "
            f"collection arguments: {self.num_collection_arguments()}, "
            f"collections: {len(self.collections)}",
        ]
        for kind in self.task_kinds:
            launches = self.launches_of_kind(kind.name)
            lines.append(
                f"  {kind.name}: {len(launches)} launch(es), "
                f"{kind.num_slots} arg slot(s), variants="
                f"{sorted(v.value for v in kind.variants)}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self.name!r}, launches={len(self.launches)}, "
            f"kinds={len(self.task_kinds)})"
        )
