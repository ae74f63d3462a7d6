"""Memoised per-launch costs for the simulator's hot path.

A search simulates many mappings of one task graph, and CD/CCD change
one mapping coordinate per candidate, so most launches of a new
candidate run under a decision some earlier candidate already used.
For a given ``(launch shape, decision)`` pair, the placement set,
per-point durations, read shards and write shards are pure functions of
the decision, independent of simulation state.
:class:`LaunchCostCache` computes them once, with the executor's exact
float operation order, and every later execution of that launch, or of
any launch with the same :attr:`~repro.taskgraph.task.TaskLaunch.shape`,
under that decision is a dict hit.  :class:`IncrementalEngine` runs the
whole launch order from the first launch on every run over those costs;
no execution state outlives a run.

**Byte-identity contract.**  The engine reproduces
:meth:`repro.runtime.executor.Executor.run` exactly:

* it performs the *same* coherence, copy, and timeline operations in
  the *same* order (plan-read → copies → commit-cache per reading slot,
  reserve per point, group-barrier writes), so every float is produced
  by the identical operation sequence;
* memoised durations are the very floats the executor would compute
  (same ``+=`` accumulation order over slots);
* dict insertion orders (kind tallies, coherence roots, per-segment
  cache replicas) are the executor's, so serialized reports and
  checkpoints are byte-identical, not merely numerically equal.

The correctness oracle is the determinism contract: resume ledgers,
traces, and reports from an incremental session must match a
full-simulation session byte-for-byte (see ``tests/test_incremental.py``
and the CI ``incremental-identity`` step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.machine.kinds import ProcKind
from repro.machine.model import Machine
from repro.machine.topology import Topology
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.runtime.copies import CopyEngine
from repro.runtime.events import TimelinePool
from repro.runtime.executor import ExecutionReport
from repro.runtime.instances import CoherenceState
from repro.runtime.placement import Placer
from repro.taskgraph.graph import TaskGraph

__all__ = ["IncrementalStats", "LaunchCostCache", "IncrementalEngine"]


@dataclass
class IncrementalStats:
    """Effectiveness counters for the incremental machinery.

    Deliberately *not* registered in the oracle's metrics registry:
    checkpoints embed that registry's snapshot, and these counters
    depend on chain history — registering them would break the
    checkpoint byte-identity contract between incremental and full
    sessions.
    """

    #: Simulated executions routed through the engine.
    runs: int = 0
    #: Always 0 (every run executes every launch); perfbench reads it.
    launches_replayed: int = 0
    #: Launches executed.
    launches_executed: int = 0
    #: Per-launch cost lookups served from the memo table.
    cost_hits: int = 0
    #: Per-launch cost lookups that had to compute placements.
    cost_misses: int = 0

    @property
    def cost_hit_rate(self) -> float:
        total = self.cost_hits + self.cost_misses
        if total == 0:
            return 0.0
        return self.cost_hits / total

    def as_dict(self) -> Dict[str, float]:
        return {
            "runs": self.runs,
            "launches_executed": self.launches_executed,
            "cost_hits": self.cost_hits,
            "cost_misses": self.cost_misses,
            "cost_hit_rate": self.cost_hit_rate,
        }


class _PointCost:
    """State-independent cost of one point task under one decision."""

    __slots__ = ("proc_uid", "duration", "slots", "writes")

    def __init__(
        self,
        proc_uid: str,
        duration: float,
        slots: Tuple[Tuple[str, Optional[Tuple[int, int, str]]], ...],
        writes: Tuple[Tuple[str, int, int, str], ...],
    ) -> None:
        self.proc_uid = proc_uid
        self.duration = duration
        #: Per argument slot, in slot order: ``(root, read)`` where
        #: ``read`` is ``(lo, hi, mem_uid)`` for reading slots with a
        #: non-empty shard, else ``None``.  Every slot is listed — the
        #: executor touches each slot's coherence root unconditionally,
        #: which fixes root-dict insertion order.
        self.slots = slots
        #: Write shards ``(root, lo, hi, mem_uid)`` in slot order.
        self.writes = writes


class LaunchCostCache:
    """Memoised placement-derived costs per ``(launch shape, decision)``.

    The cached duration is computed with the executor's exact float
    operation sequence (per-slot ``+=`` accumulation of access seconds,
    then ``overhead + compute + access``), so a cache hit yields the
    bitwise-identical duration the executor would have produced.
    """

    def __init__(
        self,
        graph: TaskGraph,
        machine: Machine,
        stats: Optional[IncrementalStats] = None,
    ) -> None:
        self.machine = machine
        self.placer = Placer(machine)
        self.stats = stats if stats is not None else IncrementalStats()
        #: launch uid -> interned shape id (the per-launch cache key).
        self._shape_of = graph.shape_ids()
        self._costs: Dict[tuple, Tuple[_PointCost, ...]] = {}
        #: Shard intervals are decision-independent, so they are shared
        #: across every decision of a launch: (shape id, slot, for_write)
        #: -> per-point (lo, hi).
        self._intervals: Dict[tuple, Tuple[Tuple[int, int], ...]] = {}

    def _shard_intervals(
        self, launch, slot_index: int, for_write: bool
    ) -> Tuple[Tuple[int, int], ...]:
        key = (self._shape_of[launch.uid], slot_index, for_write)
        cached = self._intervals.get(key)
        if cached is None:
            cached = tuple(
                launch.shard_interval(slot_index, point, for_write=for_write)
                for point in range(launch.size)
            )
            self._intervals[key] = cached
        return cached

    def costs(self, launch, decision: MappingDecision) -> Tuple[_PointCost, ...]:
        key = (self._shape_of[launch.uid], decision.key())
        cached = self._costs.get(key)
        if cached is not None:
            self.stats.cost_hits += 1
            return cached
        self.stats.cost_misses += 1
        cached = self._compute(launch, decision)
        self._costs[key] = cached
        return cached

    def _compute(
        self, launch, decision: MappingDecision
    ) -> Tuple[_PointCost, ...]:
        # Mirrors Executor.run's per-placement loop, minus every
        # state-dependent step (coherence planning, copies, reserve).
        placements = self.placer.place_launch(launch, decision)
        point_flops = launch.flops / launch.size
        gpu_adjust = (
            launch.kind.gpu_speedup
            if decision.proc_kind == ProcKind.GPU
            else 1.0
        )
        # Per-slot data that does not depend on the placement point.
        slot_info = []
        for slot_index, slot in enumerate(launch.kind.slots):
            root = launch.args[slot_index].root
            assert root is not None
            slot_info.append(
                (
                    slot_index,
                    slot,
                    root,
                    launch.arg_bytes_per_point(slot_index),
                    int(slot.privilege.reads) + int(slot.privilege.writes),
                    self._shard_intervals(launch, slot_index, False),
                    self._shard_intervals(launch, slot_index, True)
                    if slot.privilege.writes
                    else None,
                )
            )
        points: List[_PointCost] = []
        for placement in placements:
            access_seconds = 0.0
            slots: List[Tuple[str, Optional[Tuple[int, int, str]]]] = []
            writes: List[Tuple[str, int, int, str]] = []
            for (
                slot_index,
                slot,
                root,
                bytes_pp,
                passes,
                read_intervals,
                write_intervals,
            ) in slot_info:
                mem = placement.mems[slot_index]
                lo, hi = read_intervals[placement.point]

                if slot.privilege.reads and hi > lo:
                    slots.append((root, (lo, hi, mem.uid)))
                else:
                    slots.append((root, None))

                link = self.machine.access_link(placement.proc.uid, mem.uid)
                if link is None:
                    raise ValueError(
                        f"{placement.proc.uid} cannot access {mem.uid} "
                        "(invalid mapping reached the executor)"
                    )
                access_seconds += (
                    link.latency + bytes_pp / link.bandwidth
                ) * passes

                if write_intervals is not None:
                    w_lo, w_hi = write_intervals[placement.point]
                    if w_hi > w_lo:
                        writes.append((root, w_lo, w_hi, mem.uid))

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
            points.append(
                _PointCost(
                    placement.proc.uid,
                    duration,
                    tuple(slots),
                    tuple(writes),
                )
            )
        return tuple(points)


class IncrementalEngine:
    """Executes mappings over the memoised per-launch costs.

    Drop-in equivalent of :meth:`Executor.run` for untraced executions;
    assumes (like the executor) that the mapping is valid and fits.
    """

    def __init__(
        self,
        graph: TaskGraph,
        machine: Machine,
        stats: Optional[IncrementalStats] = None,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self.topology = Topology.of(machine)
        self.stats = stats if stats is not None else IncrementalStats()
        self.costs = LaunchCostCache(graph, machine, stats=self.stats)
        self._order = graph.topological_order()
        #: Per launch index, the uids of its dependence predecessors.
        self._preds: List[Tuple[str, ...]] = [
            tuple(dep.src for dep in graph.predecessors(launch.uid))
            for launch in self._order
        ]

    # ------------------------------------------------------------------
    def run(self, mapping: Mapping) -> ExecutionReport:
        """One deterministic execution, byte-identical to
        :meth:`Executor.run` on the same (validated, fitting) mapping."""
        stats = self.stats
        stats.runs += 1
        procs = TimelinePool()
        channels = TimelinePool()
        copy_engine = CopyEngine(self.topology, channels)
        coherence = CoherenceState()
        finish: Dict[str, float] = {}
        kind_busy: Dict[str, float] = {}
        kind_points: Dict[str, int] = {}
        kind_finish: Dict[str, float] = {}
        makespan = 0.0

        execute = copy_engine.execute
        # Every ``max`` of the executor is written as a comparison
        # (``b if b > a else a`` is ``max(a, b)``, ties included).
        root_of = coherence.root
        reserve = procs.reserve
        costs = self.costs.costs

        for launch, launch_preds in zip(self._order, self._preds):
            kind_name = launch.kind.name
            points = costs(launch, mapping.decision(kind_name))
            stats.launches_executed += 1

            ready_base = 0.0
            for src in launch_preds:
                upstream = finish.get(src, 0.0)
                if upstream > ready_base:
                    ready_base = upstream

            pending_writes: List[Tuple[str, int, int, str]] = []
            launch_finish = 0.0

            for point in points:
                data_ready = ready_base
                for root, read in point.slots:
                    seg_map = root_of(root)
                    if read is not None:
                        lo, hi, mem_uid = read
                        local_ready, copies = seg_map.plan_read(
                            lo, hi, mem_uid
                        )
                        if local_ready > data_ready:
                            data_ready = local_ready
                        for need in copies:
                            done = execute(need, mem_uid, ready_base)
                            seg_map.commit_cache(
                                need.lo, need.hi, mem_uid, done
                            )
                            if done > data_ready:
                                data_ready = done
                duration = point.duration
                _start, point_finish = reserve(point.proc_uid, data_ready, duration)
                if point_finish > launch_finish:
                    launch_finish = point_finish
                kind_busy[kind_name] = kind_busy.get(kind_name, 0.0) + duration
                kind_points[kind_name] = kind_points.get(kind_name, 0) + 1
                pending_writes.extend(point.writes)

            for root, lo, hi, mem_uid in pending_writes:
                root_of(root).write(lo, hi, mem_uid, launch_finish)

            finish[launch.uid] = launch_finish
            previous = kind_finish.get(kind_name, 0.0)
            kind_finish[kind_name] = (
                launch_finish if launch_finish > previous else previous
            )
            if launch_finish > makespan:
                makespan = launch_finish

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
