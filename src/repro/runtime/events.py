"""Resource timelines for the discrete-event execution model.

The executor processes launches in topological order and point tasks in
deterministic order, so the only machinery needed from a classical
event queue is *resource availability tracking*: every processor and
every channel is a serially-reusable resource with a ``free_at`` time.
:class:`ResourceTimeline` records reservations and exposes utilisation
statistics for the simulation report.

This "list-scheduling over resource timelines" formulation is equivalent
to an event-heap simulation for graphs whose ready order is fixed by the
scheduler (ours is: Legion dispatches in dependence order), and it is
several times faster — which matters, since a CCD search simulates
hundreds of mappings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["ResourceTimeline", "TimelinePool"]


@dataclass
class ResourceTimeline:
    """Availability tracking for one serially-reusable resource."""

    name: str
    free_at: float = 0.0
    busy_time: float = 0.0
    reservations: int = 0

    def reserve(self, ready: float, duration: float) -> Tuple[float, float]:
        """Reserve the resource for ``duration`` seconds no earlier than
        ``ready``; returns ``(start, finish)``."""
        if duration < 0:
            raise ValueError(f"{self.name}: negative duration")
        free = self.free_at
        start = free if free > ready else ready
        finish = start + duration
        self.free_at = finish
        self.busy_time += duration
        self.reservations += 1
        return start, finish

    def utilization(self, makespan: float) -> float:
        """Busy fraction over ``makespan`` (0 when makespan is 0)."""
        if makespan <= 0:
            return 0.0
        return min(1.0, self.busy_time / makespan)


class TimelinePool:
    """A keyed collection of resource timelines (procs, channels)."""

    def __init__(self) -> None:
        self._timelines: Dict[str, ResourceTimeline] = {}

    def get(self, name: str) -> ResourceTimeline:
        timeline = self._timelines.get(name)
        if timeline is None:
            timeline = ResourceTimeline(name)
            self._timelines[name] = timeline
        return timeline

    def reserve(self, name: str, ready: float, duration: float) -> Tuple[float, float]:
        timeline = self._timelines.get(name)
        if timeline is None:
            timeline = self._timelines[name] = ResourceTimeline(name)
        return timeline.reserve(ready, duration)

    def free_at(self, name: str) -> float:
        timeline = self._timelines.get(name)
        return timeline.free_at if timeline else 0.0

    def items(self) -> List[Tuple[str, ResourceTimeline]]:
        return sorted(self._timelines.items())

    def total_busy(self, prefix: str = "") -> float:
        """Total busy seconds across resources whose name starts with
        ``prefix``."""
        return sum(
            t.busy_time
            for name, t in self._timelines.items()
            if name.startswith(prefix)
        )
