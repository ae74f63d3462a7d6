"""Incremental re-simulation for coordinate-wise search chains.

CD/CCD mutate one mapping coordinate per candidate, so consecutive
simulations share most of their event schedule.  This module exploits
that in two layered ways:

1. **Per-launch cost memoisation** (:class:`LaunchCostCache`): for a
   given ``(launch shape, decision)`` pair, the placement set, per-point
   durations, read shards, and write shards are pure functions of the
   decision — independent of simulation state.  They are computed once,
   with the executor's exact float operation order, and every later
   execution of that launch — or of any launch with the same
   :attr:`~repro.taskgraph.task.TaskLaunch.shape` — under that decision
   is a dict hit.

2. **Schedule prefix replay** (:class:`IncrementalEngine`): the engine
   keeps state snapshots of the previously simulated mapping at every
   task kind's first launch index.  A new candidate is diffed against
   the previous one per kind; the *dirty index* is the smallest launch
   index whose kind's decision changed.  Execution state at that index
   is bitwise-identical between the two schedules (launches are
   processed in a fixed topological order, and the state before index
   ``i`` depends only on the decisions of launches ``< i``), so the
   engine restores the deepest snapshot at-or-before the dirty index
   and re-simulates only the suffix.  Snapshots copy the timelines and
   tallies but share the coherence state copy-on-write
   (:meth:`~repro.runtime.instances.CoherenceState.clone`).

**Byte-identity contract.**  The engine reproduces
:meth:`repro.runtime.executor.Executor.run` exactly:

* the replayed suffix performs the *same* coherence, copy, and timeline
  operations in the *same* order (plan-read → copies → commit-cache per
  reading slot, reserve per point, group-barrier writes), so every
  float is produced by the identical operation sequence;
* memoised durations are the very floats the executor would compute
  (same ``+=`` accumulation order over slots);
* dict insertion orders (kind tallies, coherence roots, per-segment
  cache replicas) are replayed, so serialized reports and checkpoints
  are byte-identical, not merely numerically equal.

The correctness oracle is the PR-3/PR-4 determinism contracts: resume
ledgers, traces, and reports from an incremental session must match a
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
from repro.runtime.copies import CopyEngine, CopyStats
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
    #: Runs that restored a non-empty prefix from a snapshot.
    incremental_runs: int = 0
    #: Launches skipped by restoring a snapshot instead of executing.
    launches_replayed: int = 0
    #: Launches actually (re-)executed.
    launches_executed: int = 0
    #: Per-launch cost lookups served from the memo table.
    cost_hits: int = 0
    #: Per-launch cost lookups that had to compute placements.
    cost_misses: int = 0

    @property
    def replay_fraction(self) -> float:
        """Fraction of launch executions avoided via prefix replay."""
        total = self.launches_replayed + self.launches_executed
        if total == 0:
            return 0.0
        return self.launches_replayed / total

    @property
    def cost_hit_rate(self) -> float:
        total = self.cost_hits + self.cost_misses
        if total == 0:
            return 0.0
        return self.cost_hits / total

    def as_dict(self) -> Dict[str, float]:
        return {
            "runs": self.runs,
            "incremental_runs": self.incremental_runs,
            "launches_replayed": self.launches_replayed,
            "launches_executed": self.launches_executed,
            "cost_hits": self.cost_hits,
            "cost_misses": self.cost_misses,
            "replay_fraction": self.replay_fraction,
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


class _State:
    """The mutable execution state at one point of the launch order."""

    __slots__ = (
        "procs",
        "channels",
        "copy_stats",
        "coherence",
        "finish",
        "kind_busy",
        "kind_points",
        "kind_finish",
        "makespan",
    )

    def __init__(self) -> None:
        self.procs = TimelinePool()
        self.channels = TimelinePool()
        self.copy_stats = CopyStats()
        self.coherence = CoherenceState()
        self.finish: Dict[str, float] = {}
        self.kind_busy: Dict[str, float] = {}
        self.kind_points: Dict[str, int] = {}
        self.kind_finish: Dict[str, float] = {}
        self.makespan = 0.0

    def clone(self) -> "_State":
        copy = _State.__new__(_State)
        copy.procs = self.procs.clone()
        copy.channels = self.channels.clone()
        copy.copy_stats = self.copy_stats.clone()
        copy.coherence = self.coherence.clone()
        copy.finish = dict(self.finish)
        copy.kind_busy = dict(self.kind_busy)
        copy.kind_points = dict(self.kind_points)
        copy.kind_finish = dict(self.kind_finish)
        copy.makespan = self.makespan
        return copy


class IncrementalEngine:
    """Executes mappings with prefix replay against the previous run.

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
        # First launch index of each kind: state before that index can
        # only depend on *other* kinds' decisions... and earlier ones.
        self._first_index: Dict[str, int] = {}
        for index, launch in enumerate(self._order):
            self._first_index.setdefault(launch.kind.name, index)
        boundaries = sorted(set(self._first_index.values()))
        boundaries.append(len(self._order))
        if not boundaries or boundaries[0] != 0:
            boundaries.insert(0, 0)
        self._boundaries = boundaries
        self._boundary_set = set(boundaries)
        #: Decision keys of the previously executed mapping, per kind.
        self._base: Optional[Dict[str, tuple]] = None
        #: Snapshots of execution state keyed by launch index, captured
        #: *before* the launch at that index runs (plus one at
        #: ``len(order)`` capturing the final state).
        self._snapshots: Dict[int, _State] = {}

    # ------------------------------------------------------------------
    def _dirty_index(self, mapping: Mapping) -> int:
        """Smallest launch index whose kind's decision changed relative
        to the previous run (``len(order)`` when nothing changed)."""
        assert self._base is not None
        dirty = len(self._order)
        for kind_name, first in self._first_index.items():
            if first >= dirty:
                continue
            if mapping.decision(kind_name).key() != self._base[kind_name]:
                dirty = first
        return dirty

    def run(self, mapping: Mapping) -> ExecutionReport:
        """One deterministic execution, byte-identical to
        :meth:`Executor.run` on the same (validated, fitting) mapping."""
        order = self._order
        self.stats.runs += 1

        if self._base is None:
            dirty = 0
        else:
            dirty = self._dirty_index(mapping)
        # Set again when this run completes.  A run that raises (an
        # unaddressable memory, an unroutable copy) has stored snapshots
        # of its own prefix; without a base the next run starts from
        # index 0 and discards them.
        self._base = None

        # Deepest usable snapshot at-or-before the dirty index.  The
        # state there is bitwise-identical between the previous and the
        # new schedule, so restoring it is indistinguishable from
        # having executed the prefix.
        start = 0
        base_snapshot = None
        for index, snapshot in self._snapshots.items():
            if start <= index <= dirty:
                start = index
                base_snapshot = snapshot
        if base_snapshot is not None:
            state = base_snapshot.clone()
        else:
            state = _State()
            start = 0
        if start > 0:
            self.stats.incremental_runs += 1
            self.stats.launches_replayed += start

        # Snapshots past the dirty index describe the *old* schedule.
        self._snapshots = {
            index: snapshot
            for index, snapshot in self._snapshots.items()
            if index <= dirty
        }

        copy_engine = CopyEngine(self.topology, state.channels, stats=state.copy_stats)
        execute = copy_engine.execute
        # Every ``max`` of the executor is written as a comparison
        # (``b if b > a else a`` is ``max(a, b)``, ties included).
        root_of = state.coherence.root
        reserve = state.procs.reserve
        finish = state.finish
        kind_busy = state.kind_busy
        kind_points = state.kind_points
        kind_finish = state.kind_finish
        makespan = state.makespan
        snapshots = self._snapshots
        boundary_set = self._boundary_set
        preds = self._preds
        costs = self.costs.costs
        stats = self.stats

        for index in range(start, len(order)):
            if index in boundary_set and index not in snapshots:
                state.makespan = makespan
                snapshots[index] = state.clone()
            launch = order[index]
            kind_name = launch.kind.name
            points = costs(launch, mapping.decision(kind_name))
            stats.launches_executed += 1

            ready_base = 0.0
            for src in preds[index]:
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

        state.makespan = makespan
        end = len(order)
        if end not in snapshots:
            # Stored by reference, not cloned: the run is over, so this
            # state is never mutated again — a future run that restores
            # from it clones it first, like any other snapshot.
            snapshots[end] = state
        self._base = {
            kind_name: mapping.decision(kind_name).key()
            for kind_name in self._first_index
        }

        return ExecutionReport(
            makespan=state.makespan,
            kind_busy=state.kind_busy,
            kind_points=state.kind_points,
            kind_finish=state.kind_finish,
            copy_stats=state.copy_stats,
            footprint=state.coherence.footprint(),
            proc_busy={
                name: timeline.busy_time
                for name, timeline in state.procs.items()
            },
        )
