"""Dependence-driven execution of a mapped task graph.

List-scheduling semantics over resource timelines:

1. launches are processed in topological order; a launch may not start
   before all its dependence predecessors finished (group-level barrier,
   matching the iteration-synchronous structure of the benchmark
   applications);
2. each point task first materialises its argument data: the coherence
   layer plans the copies implied by the mapping and the copy engine
   schedules them on the contended channel graph;
3. the point then occupies its processor for
   ``launch_overhead + flops/throughput + Σ bytes/access_bandwidth``
   — the roofline-style cost model whose memory term makes a GPU task
   reading Zero-Copy memory run ~50× slower than reading its frame
   buffer, the paper's central trade-off;
4. written shards update the authoritative instance locations,
   invalidating stale replicas.

The executor is fully deterministic; run-to-run variation is layered on
top by :class:`repro.runtime.noise.NoiseModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.machine.kinds import ProcKind
from repro.machine.model import Machine
from repro.machine.topology import Topology
from repro.mapping.mapping import Mapping
from repro.runtime.copies import CopyEngine, CopyStats
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CoherenceState
from repro.runtime.placement import Placer
from repro.taskgraph.graph import TaskGraph

if TYPE_CHECKING:  # recorder is optional observability plumbing
    from repro.obs.trace import TraceRecorder

__all__ = ["ExecutionReport", "Executor"]


@dataclass
class ExecutionReport:
    """Everything one deterministic execution produced."""

    makespan: float
    #: total point-task busy seconds per task kind (the profiling signal
    #: CD/CCD use to order tasks "by runtime", paper Alg. 1 line 6).
    kind_busy: Dict[str, float] = field(default_factory=dict)
    #: number of point tasks executed per kind.
    kind_points: Dict[str, int] = field(default_factory=dict)
    #: finish time of the last launch of each kind (per-component
    #: makespans, e.g. the high-fidelity-only time of §5.1).
    kind_finish: Dict[str, float] = field(default_factory=dict)
    copy_stats: CopyStats = field(default_factory=CopyStats)
    #: resident bytes per concrete memory at the end of execution.
    footprint: Dict[str, int] = field(default_factory=dict)
    #: busy seconds per concrete processor.
    proc_busy: Dict[str, float] = field(default_factory=dict)

    def kind_mean_point_time(self, kind_name: str) -> float:
        points = self.kind_points.get(kind_name, 0)
        if points == 0:
            return 0.0
        return self.kind_busy.get(kind_name, 0.0) / points


class Executor:
    """Executes a task graph under a mapping; reusable across mappings."""

    def __init__(self, graph: TaskGraph, machine: Machine) -> None:
        self.graph = graph
        self.machine = machine
        self.placer = Placer(machine)
        self.topology = Topology.of(machine)
        self._order = graph.topological_order()

    # ------------------------------------------------------------------
    def run(
        self,
        mapping: Mapping,
        recorder: Optional["TraceRecorder"] = None,
    ) -> ExecutionReport:
        """One deterministic execution; assumes the mapping is valid and
        fits in memory (checked by the simulator facade).

        ``recorder`` optionally collects task/copy/overhead spans for
        the observability layer.  Recording is purely observational —
        every recorded timestamp is a value this method computed anyway,
        so traced and untraced executions are identical.
        """
        procs = TimelinePool()
        channels = TimelinePool()
        copy_engine = CopyEngine(self.topology, channels, recorder=recorder)
        coherence = CoherenceState()
        finish: Dict[str, float] = {}
        kind_busy: Dict[str, float] = {}
        kind_points: Dict[str, int] = {}
        kind_finish: Dict[str, float] = {}
        makespan = 0.0

        for launch in self._order:
            decision = mapping.decision(launch.kind.name)
            placements = self.placer.place_launch(launch, decision)
            ready_base = 0.0
            for dep in self.graph.predecessors(launch.uid):
                ready_base = max(ready_base, finish.get(dep.src, 0.0))

            pending_writes: List[Tuple[str, int, int, str, int]] = []
            launch_finish = 0.0
            point_flops = launch.flops / launch.size
            gpu_adjust = (
                launch.kind.gpu_speedup
                if decision.proc_kind == ProcKind.GPU
                else 1.0
            )

            for placement in placements:
                data_ready = ready_base
                access_seconds = 0.0
                for slot_index, slot in enumerate(launch.kind.slots):
                    mem = placement.mems[slot_index]
                    lo, hi = launch.shard_interval(
                        slot_index, placement.point, for_write=False
                    )
                    root = launch.args[slot_index].root
                    assert root is not None
                    seg_map = coherence.root(root)

                    if slot.privilege.reads and hi > lo:
                        stamps, copies = seg_map.plan_read(lo, hi, mem.uid)
                        local_ready = 0.0
                        for stamp in stamps:
                            if stamp > local_ready:
                                local_ready = stamp
                        data_ready = max(data_ready, local_ready)
                        for need in copies:
                            done = copy_engine.execute(
                                need, mem.uid, ready_base
                            )
                            seg_map.commit_cache(
                                need.lo, need.hi, mem.uid, done
                            )
                            data_ready = max(data_ready, done)

                    # Streaming access cost: read and write passes each
                    # move the shard once over the processor<->memory link.
                    link = self.machine.access_link(
                        placement.proc.uid, mem.uid
                    )
                    if link is None:
                        raise ValueError(
                            f"{placement.proc.uid} cannot access {mem.uid} "
                            "(invalid mapping reached the executor)"
                        )
                    passes = int(slot.privilege.reads) + int(
                        slot.privilege.writes
                    )
                    bytes_pp = launch.arg_bytes_per_point(slot_index)
                    access_seconds += (
                        link.latency + bytes_pp / link.bandwidth
                    ) * passes

                    if slot.privilege.writes:
                        w_lo, w_hi = launch.shard_interval(
                            slot_index, placement.point, for_write=True
                        )
                        if w_hi > w_lo:
                            pending_writes.append(
                                (root, w_lo, w_hi, mem.uid, slot_index)
                            )

                compute_seconds = 0.0
                if point_flops > 0:
                    compute_seconds = point_flops / (
                        placement.proc.throughput * gpu_adjust
                    )
                duration = (
                    placement.proc.launch_overhead
                    + compute_seconds
                    + access_seconds
                )
                point_start, point_finish = procs.reserve(
                    placement.proc.uid, data_ready, duration
                )
                if recorder is not None:
                    recorder.record_task(
                        launch.kind.name,
                        placement.proc.uid,
                        point_start,
                        duration,
                        point=placement.point,
                        compute=compute_seconds,
                        access=access_seconds,
                        overhead=placement.proc.launch_overhead,
                    )
                launch_finish = max(launch_finish, point_finish)
                kind_busy[launch.kind.name] = (
                    kind_busy.get(launch.kind.name, 0.0) + duration
                )
                kind_points[launch.kind.name] = (
                    kind_points.get(launch.kind.name, 0) + 1
                )

            # Writes become visible when the whole group finished — point
            # tasks of a group are independent, so intra-group reads must
            # not observe intra-group writes.
            for root, lo, hi, mem_uid, _slot in pending_writes:
                coherence.root(root).write(lo, hi, mem_uid, launch_finish)

            finish[launch.uid] = launch_finish
            kind_finish[launch.kind.name] = max(
                kind_finish.get(launch.kind.name, 0.0), launch_finish
            )
            makespan = max(makespan, launch_finish)

        if recorder is not None:
            recorder.finalize(makespan)
        return ExecutionReport(
            makespan=makespan,
            kind_busy=kind_busy,
            kind_points=kind_points,
            kind_finish=kind_finish,
            copy_stats=copy_engine.stats,
            footprint=coherence.footprint(),
            proc_busy={
                name: timeline.busy_time for name, timeline in procs.items()
            },
        )
