"""Copy execution over the channel graph.

Turns the coherence layer's :class:`~repro.runtime.instances.CopyNeed`
records into timed transfers: each copy is routed over the machine's
channel path (``Topology``) and reserved hop-by-hop (store-and-forward),
so concurrent copies contend for shared links — the Frame-Buffer↔host
PCIe link and the inter-node network are exactly where the paper's
mapping trade-offs live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.machine.topology import Topology
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CopyNeed

if TYPE_CHECKING:  # recorder is optional observability plumbing
    from repro.obs.trace import TraceRecorder

__all__ = [
    "CopyStats",
    "CopyEngine",
    "DMA_EFFICIENCY",
    "HopTable",
    "channel_key",
]

#: Fraction of a channel's link bandwidth a runtime-issued DMA copy
#: sustains (descriptor setup, strided field layouts, synchronisation).
#: In-task streaming access saturates the same link fully, which is why
#: placing shared data in Zero-Copy can beat producing into Frame-Buffer
#: and copying — the §4.2 trade-off.
DMA_EFFICIENCY = 0.7

#: One copy-path hop: (channel timeline key, latency, DMA bandwidth).
Hop = Tuple[str, float, float]


def channel_key(mem_a: str, mem_b: str) -> str:
    """The serial timeline key of the channel between two memories
    (orientation-independent): every copy crossing the channel reserves
    this one timeline."""
    a, b = sorted((mem_a, mem_b))
    return f"chan:{a}<->{b}"


class HopTable:
    """The copy paths of one :class:`Topology`, per hop.

    Each ``(src, dst)`` pair is resolved once into ``(channel key,
    latency, bandwidth * DMA_EFFICIENCY)`` tuples in path order and kept
    as long as the table, which its owner keeps as long as the topology.
    """

    __slots__ = ("topology", "_hops")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._hops: Dict[Tuple[str, str], Optional[Tuple[Hop, ...]]] = {}

    def hops(self, src_uid: str, dst_uid: str) -> Optional[Tuple[Hop, ...]]:
        """Per-hop ``(channel key, latency, DMA bandwidth)`` from ``src``
        to ``dst``: empty when source equals destination, ``None`` when
        no channel path exists."""
        key = (src_uid, dst_uid)
        cached = self._hops.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        path = self.topology.copy_path(src_uid, dst_uid)
        if path is None:
            resolved: Optional[Tuple[Hop, ...]] = None
        else:
            resolved = tuple(
                (
                    channel_key(hop.mem_a, hop.mem_b),
                    hop.latency,
                    hop.bandwidth * DMA_EFFICIENCY,
                )
                for hop in path.hops
            )
        self._hops[key] = resolved
        return resolved


#: Sentinel distinguishing "not cached" from a cached ``None`` path.
_MISSING = object()


@dataclass
class CopyStats:
    """Aggregate data-movement statistics for one simulated execution."""

    num_copies: int = 0
    bytes_moved: int = 0
    copy_seconds: float = 0.0  # sum of per-copy durations (overlappable)

    def record(self, nbytes: int, duration: float) -> None:
        self.num_copies += 1
        self.bytes_moved += nbytes
        self.copy_seconds += duration

    def clone(self) -> "CopyStats":
        """An independent copy (incremental-simulation snapshots)."""
        return CopyStats(
            num_copies=self.num_copies,
            bytes_moved=self.bytes_moved,
            copy_seconds=self.copy_seconds,
        )


class CopyEngine:
    """Schedules copies on channel timelines."""

    def __init__(
        self,
        hops: HopTable,
        channels: TimelinePool,
        recorder: Optional["TraceRecorder"] = None,
        stats: Optional[CopyStats] = None,
    ) -> None:
        self._hops = hops.hops
        self._reserve = channels.reserve
        # ``stats`` lets the incremental engine resume accumulation from
        # a snapshot instead of starting a fresh tally.
        self.stats = stats if stats is not None else CopyStats()
        #: Optional span recorder (observational only; ``None`` = off).
        self.recorder = recorder

    def execute(self, need: CopyNeed, dst_mem: str, ready: float) -> float:
        """Perform one copy; returns its finish time.

        The copy may not start before ``ready`` (control dependence) nor
        before the source data exists (``need.src_time``).  Each hop of
        the routed path is a serially-reusable resource; hops are chained
        store-and-forward.
        """
        src_mem, lo, hi, src_time = need
        hops = self._hops(src_mem, dst_mem)
        if hops is None:
            raise ValueError(f"no channel path from {src_mem} to {dst_mem}")
        time = src_time if src_time > ready else ready
        if not hops:
            return time
        nbytes = hi - lo
        reserve = self._reserve
        recorder = self.recorder
        total_duration = 0.0
        for key, latency, dma_bandwidth in hops:
            duration = latency + nbytes / dma_bandwidth
            hop_start, time = reserve(key, time, duration)
            if recorder is not None:
                recorder.record_copy(key, src_mem, dst_mem, hop_start, duration, nbytes)
            total_duration += duration
        self.stats.record(nbytes, total_duration)
        return time
