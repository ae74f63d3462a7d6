"""Channel-path routing model for the bound analyzer's traffic evidence.

Pricing each memory's traffic at its *incident* channel bandwidth is
sound but far too loose on multi-hop machines, where a copy crosses
several channels (e.g. framebuffer → zero-copy → remote zero-copy →
remote framebuffer).  This module exposes the executor's own routing
decisions to :mod:`repro.analysis.bounds`, which prices the routed
per-channel congestion beside the incident aggregate:

* :class:`RoutingModel` reads the machine's shared route table,
  :meth:`repro.machine.topology.Topology.of` — the very table the
  simulator's copy engine reserves its hops from — so the channel
  sequence :meth:`RoutingModel.route` reports for a ``(src, dst)``
  memory pair is *exactly* the sequence
  :class:`repro.runtime.copies.CopyEngine` reserves when it executes
  that copy, and each route names the engine's serial timeline keys
  (:func:`repro.machine.topology.channel_key`): the executor serialises
  all traffic through one key on one timeline, so the simulated
  makespan is at least the busy time of the busiest channel.
* The model holds no per-pair state of its own: analyses along a search
  chain hit the same machine thousands of times, and the shared table
  searches each memory pair at most once per machine object.

The model also powers the AM503 diagnostic: a memory pair with no
channel path at all means the simulator will refuse any mapping that
needs a copy between them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.machine.model import Machine
from repro.machine.topology import Topology, channel_key

__all__ = ["RoutingModel", "channel_key"]


class RoutingModel:
    """The routes of one machine, as channel timeline keys.

    A thin view over the machine's shared :class:`Topology`, so the
    analyzer and the executor always agree on which channels a copy
    traverses.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.topology = Topology.of(machine)
        #: channel timeline key -> raw channel bandwidth (bytes/s).
        self._bandwidth: Dict[str, float] = {
            channel_key(chan.mem_a, chan.mem_b): chan.bandwidth
            for chan in machine.channels
        }

    def route(self, src_uid: str, dst_uid: str) -> Optional[Tuple[str, ...]]:
        """Channel timeline keys a copy from ``src`` to ``dst`` crosses.

        Returns an empty tuple when source equals destination and
        ``None`` when no channel path exists (the executor would raise).
        """
        hops = self.topology.hops(src_uid, dst_uid)
        if hops is None:
            return None
        return tuple(key for key, _latency, _bandwidth in hops)

    def channel_bandwidth(self, key: str) -> Optional[float]:
        """Raw bandwidth of the channel behind a timeline key."""
        return self._bandwidth.get(key)

    def unreachable_pairs(self) -> List[Tuple[str, str]]:
        """Unordered memory pairs with no channel path between them, in
        ``machine.memories`` order — read off the channel graph's
        connected components, without routing a single pair."""
        return self.topology.unreachable_pairs()

    def diagnose(self) -> List[Diagnostic]:
        """``AM503`` for every memory pair the simulator cannot route."""
        return [
            Diagnostic(
                rule_id="AM503",
                message=(
                    f"no channel path between {src} and {dst}: any "
                    f"mapping that needs a copy between them fails at "
                    f"simulation time"
                ),
                span=Span(memory=src),
            )
            for src, dst in self.unreachable_pairs()
        ]
