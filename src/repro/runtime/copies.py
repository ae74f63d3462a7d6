"""Copy execution over the channel graph.

Turns the coherence layer's :class:`~repro.runtime.instances.CopyNeed`
records into timed transfers: each copy is routed over the machine's
channel path (its shared :class:`~repro.machine.topology.Topology`) and
reserved hop-by-hop (store-and-forward), so concurrent copies contend
for shared links — the Frame-Buffer↔host PCIe link and the inter-node
network are exactly where the paper's mapping trade-offs live.
``DMA_EFFICIENCY`` and ``channel_key`` are defined beside the routes
and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.machine.topology import DMA_EFFICIENCY, Topology, channel_key
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CopyNeed

if TYPE_CHECKING:  # recorder is optional observability plumbing
    from repro.obs.trace import TraceRecorder

__all__ = [
    "CopyStats",
    "CopyEngine",
    "DMA_EFFICIENCY",
    "channel_key",
]


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
        routes: Topology,
        channels: TimelinePool,
        recorder: Optional["TraceRecorder"] = None,
        stats: Optional[CopyStats] = None,
    ) -> None:
        self._hops = routes.hops
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
