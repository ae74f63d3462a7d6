"""The route table of one machine: copy paths over its channel graph.

The runtime simulator routes every copy between two memories over the
machine's memory↔memory channels (paper §2).  Direct channels cover the
common cases (FB↔ZC, node↔node between Zero-Copy pools); everything else
crosses several channels.  :class:`Topology` owns that routing: a
weighted shortest-path search over the channel graph, memoised per
ordered memory pair, plus the connectivity queries of the static
analyses.  :meth:`Topology.of` hands out one table per machine object,
so the executor, the incremental engine, the bound analyzer's routing
model and the symmetry and equivalence provers all read one table, and
each pair is searched at most once per machine object.

Route choice is an output — reports, traces and the provers' route
obligations depend on which of several equal-weight paths a copy takes
— so the rule is spelled out here and in DESIGN.md ("Routing
contract"):

* the graph has one node per memory, in ``machine.memories`` order, and
  one undirected edge per channel, in ``machine.channels`` order,
  weighted ``latency + ROUTING_MESSAGE_BYTES / bandwidth``; a strictly
  faster duplicate channel between the same two memories replaces the
  slower one in place, keeping its neighbour position;
* a pair is routed by a bidirectional Dijkstra search that alternates
  one expansion forward from the source and one backward from the
  target, forward first.  Each side pops heap entries ``(distance,
  push counter, memory)``, so equal distances leave in push order (one
  counter for both sides), relaxes neighbours in adjacency order, and
  records a memory's predecessor only on a strictly shorter distance.
  The meeting memory is the first whose forward-plus-backward distance
  is strictly shorter than the best so far, and the search stops when
  one memory has been expanded from both sides.

That search is a line-for-line port of networkx 3.6.1's
``bidirectional_dijkstra``; ``tests/test_route_golden.py`` pins every
route of the stock machines to that function's choice.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.machine.model import Channel, Machine

__all__ = ["CopyPath", "DMA_EFFICIENCY", "Topology", "channel_key"]

#: Fraction of a channel's link bandwidth a runtime-issued DMA copy
#: sustains (descriptor setup, strided field layouts, synchronisation).
#: In-task streaming access saturates the same link fully, which is why
#: placing shared data in Zero-Copy can beat producing into Frame-Buffer
#: and copying — the §4.2 trade-off.
DMA_EFFICIENCY = 0.7

#: One copy-path hop as the copy engine reserves it: (channel timeline
#: key, latency, DMA bandwidth).
Hop = Tuple[str, float, float]


def channel_key(mem_a: str, mem_b: str) -> str:
    """The serial timeline key of the channel between two memories
    (orientation-independent): every copy crossing the channel reserves
    this one timeline."""
    a, b = sorted((mem_a, mem_b))
    return f"chan:{a}<->{b}"


@dataclass(frozen=True)
class CopyPath:
    """A routed copy between two memories.

    Attributes
    ----------
    hops:
        The channel sequence traversed, source side first.
    bandwidth:
        Effective end-to-end bandwidth: the minimum over hops (store-and-
        forward pipelining is bandwidth-limited by the narrowest hop).
    latency:
        Sum of per-hop latencies.
    dma_hops:
        The same hops as the copy engine reserves them: ``(channel key,
        latency, bandwidth * DMA_EFFICIENCY)`` in path order.
    """

    hops: Tuple[Channel, ...]
    bandwidth: float
    latency: float
    dma_hops: Tuple[Hop, ...] = ()

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` along this path."""
        if not self.hops:
            return 0.0
        return self.latency + nbytes / self.bandwidth


#: The zero-hop path of a copy within one memory.
_LOCAL = CopyPath(hops=(), bandwidth=float("inf"), latency=0.0)

#: Sentinel distinguishing "not routed yet" from a cached ``None`` path.
_MISSING = object()

#: The shared table of each live machine object, keyed by identity
#: (``Machine`` is an eq-comparable dataclass and therefore unhashable);
#: an entry leaves with its machine.
_TABLES: Dict[int, "Topology"] = {}


class Topology:
    """Copy-path routing over a :class:`Machine`'s channel graph.

    Edge weights for shortest-path routing are the transfer time of a
    *representative* message (default 16 MiB): this balances latency-
    and bandwidth-dominated regimes so that routing prefers the fast
    direct links the hardware actually uses.

    The table keeps no reference to its machine, so the shared table of
    :meth:`of` lives exactly as long as the machine object.
    """

    #: Representative message size used to weight channels during routing.
    ROUTING_MESSAGE_BYTES = 16 * 1024 * 1024

    def __init__(self, machine: Machine) -> None:
        #: memory uid -> {neighbour uid: (weight, channel)}, both levels
        #: in the order the routing rule fixes.
        self._adj: Dict[str, Dict[str, Tuple[float, Channel]]] = {
            mem.uid: {} for mem in machine.memories
        }
        for chan in machine.channels:
            weight = chan.latency + self.ROUTING_MESSAGE_BYTES / chan.bandwidth
            existing = self._adj[chan.mem_a].get(chan.mem_b)
            if existing is None or existing[0] > weight:
                self._adj[chan.mem_a][chan.mem_b] = (weight, chan)
                self._adj[chan.mem_b][chan.mem_a] = (weight, chan)
        #: (src, dst) -> routed path, ``None`` when disconnected.
        self._paths: Dict[Tuple[str, str], Optional[CopyPath]] = {}
        #: memory uid -> connected-component index, built on first use.
        self._component: Optional[Dict[str, int]] = None

    @classmethod
    def of(cls, machine: Machine) -> "Topology":
        """The one shared table of ``machine``.

        Identity-keyed: two equal-but-distinct machine objects get
        distinct tables.  The entry is dropped when the machine is
        garbage-collected, so a recycled ``id`` cannot alias.
        """
        key = id(machine)
        table = _TABLES.get(key)
        if table is None:
            table = _TABLES[key] = cls(machine)
            weakref.finalize(machine, _TABLES.pop, key, None)
        return table

    def copy_path(self, src_uid: str, dst_uid: str) -> Optional[CopyPath]:
        """The routed path from ``src_uid`` to ``dst_uid``.

        Returns a zero-hop path when source equals destination, and
        ``None`` when the memories are disconnected (a malformed machine;
        the stock builders always produce connected channel graphs).
        """
        key = (src_uid, dst_uid)
        path = self._paths.get(key, _MISSING)
        if path is _MISSING:
            path = self._paths[key] = self._route(src_uid, dst_uid)
        return path

    def hops(self, src_uid: str, dst_uid: str) -> Optional[Tuple[Hop, ...]]:
        """Per-hop ``(channel key, latency, DMA bandwidth)`` from ``src``
        to ``dst``: empty when source equals destination, ``None`` when
        no channel path exists."""
        path = self._paths.get((src_uid, dst_uid), _MISSING)
        if path is _MISSING:
            path = self.copy_path(src_uid, dst_uid)
        return None if path is None else path.dma_hops

    def transfer_time(self, src_uid: str, dst_uid: str, nbytes: float) -> float:
        """Seconds to copy ``nbytes`` from one memory to another.

        Raises ``ValueError`` if the memories are disconnected.
        """
        path = self.copy_path(src_uid, dst_uid)
        if path is None:
            raise ValueError(f"no channel path from {src_uid} to {dst_uid}")
        return path.transfer_time(nbytes)

    def connected(self) -> bool:
        """Whether every memory can reach every other memory."""
        return max(self._components().values(), default=0) == 0

    def unreachable_pairs(self) -> List[Tuple[str, str]]:
        """Unordered memory pairs with no channel path between them, as
        ``(machine.memories[i], machine.memories[j])`` with ``i < j``."""
        if self.connected():
            return []
        component = self._components()
        mems = list(self._adj)
        return [
            (src, dst)
            for i, src in enumerate(mems)
            for dst in mems[i + 1 :]
            if component[src] != component[dst]
        ]

    # ------------------------------------------------------------------
    def _components(self) -> Dict[str, int]:
        """Connected-component index of every memory, numbered from 0 in
        memory order (one graph walk)."""
        if self._component is None:
            component: Dict[str, int] = {}
            index = 0
            for start in self._adj:
                if start in component:
                    continue
                component[start] = index
                stack = [start]
                while stack:
                    for mem in self._adj[stack.pop()]:
                        if mem not in component:
                            component[mem] = index
                            stack.append(mem)
                index += 1
            self._component = component
        return self._component

    def _route(self, src_uid: str, dst_uid: str) -> Optional[CopyPath]:
        if src_uid == dst_uid:
            return _LOCAL
        nodes = self._search(src_uid, dst_uid)
        if nodes is None:
            return None
        hops = tuple(self._adj[a][b][1] for a, b in zip(nodes, nodes[1:]))
        return CopyPath(
            hops=hops,
            bandwidth=min(ch.bandwidth for ch in hops),
            latency=sum(ch.latency for ch in hops),
            dma_hops=tuple(
                (
                    channel_key(ch.mem_a, ch.mem_b),
                    ch.latency,
                    ch.bandwidth * DMA_EFFICIENCY,
                )
                for ch in hops
            ),
        )

    def _search(self, source: str, target: str) -> Optional[List[str]]:
        """The memories of the chosen shortest path, ``None`` if there
        is none (the routing rule of the module docstring)."""
        adj = self._adj
        if source not in adj or target not in adj:
            return None
        done: Tuple[Dict[str, float], ...] = ({}, {})
        seen: Tuple[Dict[str, float], ...] = ({source: 0}, {target: 0})
        preds: Tuple[Dict[str, Optional[str]], ...] = (
            {source: None},
            {target: None},
        )
        push = count()
        fringe: Tuple[list, ...] = (
            [(0, next(push), source)],
            [(0, next(push), target)],
        )
        best: Optional[float] = None
        meet: Optional[str] = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, mem = heappop(fringe[direction])
            if mem in done[direction]:
                continue
            done[direction][mem] = dist
            if mem in done[1 - direction]:
                path: List[str] = []
                node: Optional[str] = meet
                while node is not None:
                    path.append(node)
                    node = preds[0][node]
                path.reverse()
                node = preds[1][meet]
                while node is not None:
                    path.append(node)
                    node = preds[1][node]
                return path
            near, far = seen[direction], seen[1 - direction]
            for other, (weight, _chan) in adj[mem].items():
                if other in done[direction]:
                    # Weights are nonnegative: a finished memory's
                    # distance stands.
                    continue
                length = dist + weight
                if other not in near or length < near[other]:
                    near[other] = length
                    heappush(fringe[direction], (length, next(push), other))
                    preds[direction][other] = mem
                    if other in far:
                        total = length + far[other]
                        if best is None or best > total:
                            best, meet = total, other
        return None
