"""Channel-path routing model for the bound analyzer's traffic evidence.

Pricing each memory's traffic at its *incident* channel bandwidth is
sound but far too loose on multi-hop machines, where a copy crosses
several channels (e.g. framebuffer → zero-copy → remote zero-copy →
remote framebuffer).  This module exposes the executor's own routing
decisions to :mod:`repro.analysis.bounds`, which prices the routed
per-channel congestion beside the incident aggregate:

* :class:`RoutingModel` wraps a :class:`repro.machine.topology.Topology`
  built from the same machine the simulator uses, so the channel
  sequence :meth:`RoutingModel.route` reports for a ``(src, dst)``
  memory pair is *exactly* the sequence
  :class:`repro.runtime.copies.CopyEngine` reserves when it executes
  that copy.  It reads the copy engine's own
  :class:`repro.runtime.copies.HopTable`, so each route names the
  engine's serial timeline keys
  (:func:`repro.runtime.copies.channel_key`): the executor serialises
  all traffic through one key on one timeline, so the simulated
  makespan is at least the busy time of the busiest channel.
* :func:`routing_model` caches one model per live machine object —
  analyses along a search chain hit the same machine thousands of
  times, and path computation dominates a cold analyzer otherwise.

The model also powers the AM503 diagnostic: a memory pair with no
channel path at all means the simulator will refuse any mapping that
needs a copy between them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.machine.model import Machine
from repro.machine.topology import Topology
from repro.runtime.copies import HopTable, channel_key

__all__ = ["RoutingModel", "channel_key", "routing_model"]


class RoutingModel:
    """Cached channel-path routes for every memory pair of one machine.

    Routes are resolved through a fresh :class:`Topology` built from the
    machine — the identical construction the simulator performs — so the
    analyzer and the executor always agree on which channels a copy
    traverses.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.topology = Topology(machine)
        #: channel timeline key -> raw channel bandwidth (bytes/s).
        self._bandwidth: Dict[str, float] = {}
        for chan in machine.channels:
            self._bandwidth[channel_key(chan.mem_a, chan.mem_b)] = (
                chan.bandwidth
            )
        self._hops = HopTable(self.topology)

    def route(self, src_uid: str, dst_uid: str) -> Optional[Tuple[str, ...]]:
        """Channel timeline keys a copy from ``src`` to ``dst`` crosses.

        Returns an empty tuple when source equals destination and
        ``None`` when no channel path exists (the executor would raise).
        """
        hops = self._hops.hops(src_uid, dst_uid)
        if hops is None:
            return None
        return tuple(key for key, _latency, _bandwidth in hops)

    def channel_bandwidth(self, key: str) -> Optional[float]:
        """Raw bandwidth of the channel behind a timeline key."""
        return self._bandwidth.get(key)

    def unreachable_pairs(self) -> List[Tuple[str, str]]:
        """Unordered memory pairs with no channel path between them."""
        out: List[Tuple[str, str]] = []
        mems = [m.uid for m in self.machine.memories]
        for i, src in enumerate(mems):
            for dst in mems[i + 1:]:
                if self.route(src, dst) is None:
                    out.append((src, dst))
        return out

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


#: Per-machine model cache, keyed by object identity (``Machine`` is an
#: eq-comparable dataclass and therefore unhashable).  Entries whose
#: machine object was garbage-collected would never match again, so a
#: small LRU keeps the cache from growing across many machines.
_MODELS: "OrderedDict[int, RoutingModel]" = OrderedDict()
_MODEL_CACHE_SIZE = 8


def routing_model(machine: Machine) -> RoutingModel:
    """The (cached) :class:`RoutingModel` for ``machine``.

    Identity-keyed: two equal-but-distinct machine objects get distinct
    models, and a recycled ``id`` cannot alias because the stored model
    keeps its machine alive and is compared by identity before reuse.
    """
    key = id(machine)
    model = _MODELS.get(key)
    if model is not None and model.machine is machine:
        _MODELS.move_to_end(key)
        return model
    model = RoutingModel(machine)
    _MODELS[key] = model
    _MODELS.move_to_end(key)
    while len(_MODELS) > _MODEL_CACHE_SIZE:
        _MODELS.popitem(last=False)
    return model
