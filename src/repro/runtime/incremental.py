"""Memoised launch costs and compiled coherence for the simulator's hot
path.

A search simulates many mappings of one task graph, and CD/CCD change
one mapping coordinate per candidate, so most launches of a new
candidate run under a decision some earlier candidate already used.
For a given ``(launch shape, decision)`` pair, the placement set,
per-point durations, read shards and write shards are pure functions of
the decision, independent of simulation state.
:class:`LaunchCostCache` computes them once, with the executor's exact
float operation order, and every later execution of that launch, or of
any launch with the same :attr:`~repro.taskgraph.task.TaskLaunch.shape`,
under that decision is a dict hit.

The coherence walk is memoised one level up.  No coherence operation
decides by time, so the copies a coherence root needs, and which earlier
writes and copies each read waits on, are a pure function of the shards
the launches read and write on that root.  :class:`IncrementalEngine`
keys each root on exactly that: one interned projection per launch that
touches the root.  A miss walks the runtime's own
:class:`~repro.runtime.instances.SegmentMap` once with symbolic stamps
(a write stamps its launch, a cache commit its copy) and stores the
root's *program*: per read, the launch finishes and copy completions it
waits on and its routed copies, plus the root's final footprint.  A hit
skips the walk.  Every run then makes one timing pass over all roots'
programs in the executor's (launch, point, slot) order; no execution
state outlives a run.  :meth:`IncrementalEngine.copies` reads the same
programs, in the same order, as the bound analyzer's traffic evidence.

**Byte-identity contract.**  The engine reproduces
:meth:`repro.runtime.executor.Executor.run` exactly:

* every float the executor computes is computed by the same operation
  sequence: copies reserve their hops and points their processors in
  the executor's order, each hop duration is ``CopyEngine.execute``'s
  own expression, and copy seconds and busy times accumulate in the
  executor's order;
* a read's ready time is a ``max`` over the same times, possibly in
  another order, without virgin ``0.0`` stamps, duplicates, or
  finishes of the launch's dependence predecessors.  Every time is a
  sum of non-negative durations from ``+0.0``, so the largest operand
  is one float whatever the order, and the dropped operands never
  exceed the start value (see DESIGN.md, incremental contract);
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
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.machine.kinds import ProcKind
from repro.machine.model import Machine
from repro.machine.topology import Topology
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.runtime.copies import CopyStats
from repro.runtime.executor import ExecutionReport
from repro.runtime.instances import SegmentMap
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
    #: Per-root program lookups (one per root per run) served from the
    #: engine's memo.
    program_hits: int = 0
    #: Per-root program lookups that had to walk the coherence layer.
    program_misses: int = 0

    @property
    def cost_hit_rate(self) -> float:
        return _rate(self.cost_hits, self.cost_misses)

    @property
    def program_hit_rate(self) -> float:
        return _rate(self.program_hits, self.program_misses)

    def as_dict(self) -> Dict[str, float]:
        return {
            "runs": self.runs,
            "launches_executed": self.launches_executed,
            "cost_hits": self.cost_hits,
            "cost_misses": self.cost_misses,
            "cost_hit_rate": self.cost_hit_rate,
            "program_hits": self.program_hits,
            "program_misses": self.program_misses,
            "program_hit_rate": self.program_hit_rate,
        }


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    if total == 0:
        return 0.0
    return hits / total


class _LaunchCost:
    """State-independent costs of one launch shape under one decision."""

    __slots__ = ("timing", "reads", "writes", "roots")

    def __init__(
        self,
        timing: Tuple[Tuple[str, float, Tuple[int, ...]], ...],
        reads: Tuple[Tuple[str, int, int, str], ...],
        writes: Tuple[Tuple[str, int, int, str], ...],
        roots: Tuple[Tuple[int, int], ...],
    ) -> None:
        #: Per point: ``(processor uid, duration, root index of each
        #: read)``, what the timing pass reads.
        self.timing = timing
        #: Read shards ``(root, lo, hi, mem_uid)`` of the reading slots
        #: with a non-empty shard, in (point, slot) order.
        self.reads = reads
        #: Write shards ``(root, lo, hi, mem_uid)`` in (point, slot)
        #: order.
        self.writes = writes
        #: ``(root index, projection id)`` per root the launch touches,
        #: in slot order: the launch's entry in each root's program key.
        self.roots = roots


class _Unroutable:
    """The last read op of a root program whose copy has no channel
    path.

    The timing pass unpacks every op it reaches, and unpacking this one
    raises the copy engine's error, so a run raises exactly where the
    executor does: at the first unroutable copy in (launch, point, slot)
    order, whichever root it belongs to.
    """

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def __iter__(self):
        raise ValueError(self.message)


class LaunchCostCache:
    """Memoised placement-derived costs per ``(launch shape, decision)``.

    The cached duration is computed with the executor's exact float
    operation sequence (per-slot ``+=`` accumulation of access seconds,
    then ``overhead + compute + access``), so a cache hit yields the
    bitwise-identical duration the executor would have produced.

    Each entry also carries its *projections*: per coherence root, the
    read and write shards its points issue there, interned as small ints
    (:attr:`projections` maps an id back to ``(reads, writes)``).
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
        self._costs: Dict[tuple, _LaunchCost] = {}
        #: Shard intervals are decision-independent, so they are shared
        #: across every decision of a launch: (shape id, slot, for_write)
        #: -> per-point (lo, hi).
        self._intervals: Dict[tuple, Tuple[Tuple[int, int], ...]] = {}
        #: Coherence root name -> index, numbered in the order the
        #: executor first touches the roots (launch order, slot order).
        self.root_index: Dict[str, int] = {}
        for launch in graph.topological_order():
            for arg in launch.args:
                assert arg.root is not None
                self.root_index.setdefault(arg.root, len(self.root_index))
        #: Projection id -> ``(reads, writes)``: the ``(lo, hi, mem_uid)``
        #: shards a launch reads and writes on one root, each in the
        #: executor's (point, slot) order.
        self.projections: List[tuple] = []
        self._projection_ids: Dict[tuple, int] = {}

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

    def costs(self, launch, decision: MappingDecision) -> _LaunchCost:
        key = (self._shape_of[launch.uid], decision.key())
        cached = self._costs.get(key)
        if cached is not None:
            self.stats.cost_hits += 1
            return cached
        self.stats.cost_misses += 1
        cached = self._compute(launch, decision)
        self._costs[key] = cached
        return cached

    def _compute(self, launch, decision: MappingDecision) -> _LaunchCost:
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
        root_index = self.root_index
        timing = []
        reads: List[Tuple[str, int, int, str]] = []
        writes: List[Tuple[str, int, int, str]] = []
        for placement in placements:
            access_seconds = 0.0
            read_roots = []
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
                    reads.append((root, lo, hi, mem.uid))
                    read_roots.append(root_index[root])

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
            timing.append((placement.proc.uid, duration, tuple(read_roots)))

        # Project the shards onto each root the launch touches.
        shards: Dict[str, Tuple[list, list]] = {
            info[2]: ([], []) for info in slot_info
        }
        for root, lo, hi, mem_uid in reads:
            shards[root][0].append((lo, hi, mem_uid))
        for root, lo, hi, mem_uid in writes:
            shards[root][1].append((lo, hi, mem_uid))
        roots = []
        for root, (root_reads, root_writes) in shards.items():
            projection = (tuple(root_reads), tuple(root_writes))
            pid = self._projection_ids.get(projection)
            if pid is None:
                pid = self._projection_ids[projection] = len(self.projections)
                self.projections.append(projection)
            roots.append((root_index[root], pid))
        return _LaunchCost(tuple(timing), tuple(reads), tuple(writes), tuple(roots))


class IncrementalEngine:
    """Executes mappings over the memoised launch costs and root
    programs.

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
        self._kind_names = [launch.kind.name for launch in self._order]
        index = {launch.uid: i for i, launch in enumerate(self._order)}
        #: Per launch index, the indices of its dependence predecessors.
        self._preds: List[Tuple[int, ...]] = [
            tuple(index[dep.src] for dep in graph.predecessors(launch.uid))
            for launch in self._order
        ]
        self._pred_sets: List[FrozenSet[int]] = [
            frozenset(preds) for preds in self._preds
        ]
        #: Per root index, the indices of the launches touching it.
        self._root_launches: List[List[int]] = [
            [] for _ in self.costs.root_index
        ]
        root_index = self.costs.root_index
        for i, launch in enumerate(self._order):
            for root in dict.fromkeys(arg.root for arg in launch.args):
                self._root_launches[root_index[root]].append(i)
        #: Per root index: program key -> ``(read ops, footprint)``.
        self._programs: List[Dict[tuple, tuple]] = [
            {} for _ in self._root_launches
        ]
        #: Interned read ops and compiled copies (with their hop lists).
        self._ops: Dict[tuple, tuple] = {}
        self._copies: Dict[tuple, tuple] = {}
        #: Channel timeline key -> index into a run's ``free_at`` list.
        self._channels: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _copy(self, src: int, src_mem: str, dst_mem: str, nbytes: int) -> tuple:
        """One compiled copy, interned: ``(source launch or -1, hops,
        seconds, nbytes)``, where ``hops`` lists ``(channel index,
        duration)`` per hop of the routed path and ``seconds`` is their
        sum, both with ``CopyEngine.execute``'s own expressions.  Raises
        the copy engine's ``ValueError`` when the memories are
        disconnected."""
        key = (src, src_mem, dst_mem, nbytes)
        copy = self._copies.get(key)
        if copy is None:
            hops = self.topology.hops(src_mem, dst_mem)
            if hops is None:
                raise ValueError(f"no channel path from {src_mem} to {dst_mem}")
            channels = self._channels
            timed = []
            seconds = 0.0
            for chan, latency, dma_bandwidth in hops:
                duration = latency + nbytes / dma_bandwidth
                timed.append((channels.setdefault(chan, len(channels)), duration))
                seconds += duration
            copy = self._copies[key] = (src, tuple(timed), seconds, nbytes)
        return copy

    def _compile(self, root: int, key: tuple) -> tuple:
        """The time-free program of one root under ``key``.

        Walks the runtime's own :class:`SegmentMap` in the executor's
        order with symbolic stamps: a write by launch ``i`` stamps
        ``i + 1``, the commit of the root's ``k``-th copy stamps
        ``-(k + 1)``, and virgin data keeps ``plan_read``'s ``0.0``.
        Each read becomes ``None`` (nothing to wait on) or ``(launch
        waits, copy waits, copies)``, a copy being ``(source launch or
        -1, hops, seconds, bytes)``.  A copy with no channel path ends
        the walk: its read becomes an :class:`_Unroutable`, which every
        run of the program reaches and raises at, so the footprint is
        ``None``.
        """
        seg_map = SegmentMap()
        plan_read = seg_map.plan_read
        commit_cache = seg_map.commit_cache
        projections = self.costs.projections
        ops: list = []
        intern = self._ops.setdefault
        copies_made = 0
        for i, pid in zip(self._root_launches[root], key):
            reads, writes = projections[pid]
            preds = self._pred_sets[i]
            for lo, hi, mem in reads:
                stamps, needs = plan_read(lo, hi, mem)
                waits = copy_waits = copies = ()
                if len(stamps) == 1:
                    stamp = stamps[0]
                    if stamp > 0 and stamp - 1 not in preds:
                        waits = (stamp - 1,)
                    elif stamp < 0:
                        copy_waits = (-stamp - 1,)
                elif stamps:
                    waits = tuple(
                        sorted({s - 1 for s in stamps if s > 0}.difference(preds))
                    )
                    copy_waits = tuple(sorted({-s - 1 for s in stamps if s < 0}))
                if needs:
                    copies = []
                    for src_mem, c_lo, c_hi, src_stamp in needs:
                        src = src_stamp - 1
                        if src < 0 or src in preds:
                            src = -1
                        try:
                            copy = self._copy(src, src_mem, mem, c_hi - c_lo)
                        except ValueError as error:
                            ops.append(_Unroutable(str(error)))
                            return tuple(ops), None
                        copies.append(copy)
                        copies_made += 1
                        commit_cache(c_lo, c_hi, mem, -copies_made)
                    copies = tuple(copies)
                if waits or copy_waits or copies:
                    op = (waits, copy_waits, copies)
                    ops.append(intern(op, op))
                else:
                    ops.append(None)
            for lo, hi, mem in writes:
                seg_map.write(lo, hi, mem, i + 1)
        return tuple(ops), seg_map.footprint()

    # ------------------------------------------------------------------
    def _fetch(self, mapping: Mapping) -> Tuple[List[_LaunchCost], List[tuple]]:
        """The mapping's launch costs, in executor order, and each
        root's program, served from the memo or compiled on a miss."""
        stats = self.stats
        costs = self.costs.costs
        decision = mapping.decision
        entries = []
        keys: List[list] = [[] for _ in self._programs]
        for launch in self._order:
            entry = costs(launch, decision(launch.kind.name))
            entries.append(entry)
            for root, pid in entry.roots:
                keys[root].append(pid)

        programs = []
        for root, memo in enumerate(self._programs):
            key = tuple(keys[root])
            program = memo.get(key)
            if program is None:
                stats.program_misses += 1
                program = memo[key] = self._compile(root, key)
            else:
                stats.program_hits += 1
            programs.append(program)
        return entries, programs

    def copies(
        self, mapping: Mapping
    ) -> Iterator[Tuple[str, str, Tuple[str, ...], int]]:
        """Every copy an execution of ``mapping`` makes, in the
        executor's (launch, point, slot) order, as ``(consumer kind,
        coherence root, channel keys, bytes)``: read off the same root
        programs :meth:`run` times, so exactly the executor's copies.
        Raises the copy engine's ``ValueError`` where :meth:`run` does,
        at the first copy with no channel path."""
        entries, programs = self._fetch(mapping)
        roots = list(self.costs.root_index)
        channels = list(self._channels)
        next_op = [iter(ops).__next__ for ops, _footprint in programs]
        for entry, kind_name in zip(entries, self._kind_names):
            for _proc, _duration, read_roots in entry.timing:
                for root in read_roots:
                    op = next_op[root]()
                    if op is None:
                        continue
                    _waits, _copy_waits, copies = op
                    for _src, hops, _seconds, nbytes in copies:
                        keys = tuple(channels[chan] for chan, _ in hops)
                        yield kind_name, roots[root], keys, nbytes

    def run(self, mapping: Mapping) -> ExecutionReport:
        """One deterministic execution, byte-identical to
        :meth:`Executor.run` on the same (validated, fitting) mapping."""
        stats = self.stats
        stats.runs += 1
        entries, programs = self._fetch(mapping)
        stats.launches_executed += len(entries)

        # The timing pass.  Every ``max`` of the executor is written as a
        # comparison (``b if b > a else a`` is ``max(a, b)``, ties
        # included), every reservation as the timeline's own arithmetic.
        next_op = [iter(ops).__next__ for ops, _footprint in programs]
        copy_done: List[List[float]] = [[] for _ in programs]
        channel_free = [0.0] * len(self._channels)
        proc_free: Dict[str, float] = {}
        proc_busy: Dict[str, float] = {}
        finish: List[float] = []
        kind_busy: Dict[str, float] = {}
        kind_points: Dict[str, int] = {}
        kind_finish: Dict[str, float] = {}
        makespan = 0.0
        num_copies = 0
        bytes_moved = 0
        copy_seconds = 0.0

        for entry, kind_name, preds in zip(entries, self._kind_names, self._preds):
            ready_base = 0.0
            for j in preds:
                upstream = finish[j]
                if upstream > ready_base:
                    ready_base = upstream

            launch_finish = 0.0
            busy = kind_busy.get(kind_name, 0.0)
            for proc, duration, read_roots in entry.timing:
                data_ready = ready_base
                for root in read_roots:
                    op = next_op[root]()
                    if op is None:
                        continue
                    waits, copy_waits, copies = op
                    for j in waits:
                        upstream = finish[j]
                        if upstream > data_ready:
                            data_ready = upstream
                    if copy_waits or copies:
                        done = copy_done[root]
                        for k in copy_waits:
                            local = done[k]
                            if local > data_ready:
                                data_ready = local
                        for src, hops, seconds, nbytes in copies:
                            time = ready_base
                            if src >= 0:
                                upstream = finish[src]
                                if upstream > time:
                                    time = upstream
                            for chan, hop_seconds in hops:
                                free = channel_free[chan]
                                if free > time:
                                    time = free
                                time = time + hop_seconds
                                channel_free[chan] = time
                            done.append(time)
                            num_copies += 1
                            bytes_moved += nbytes
                            copy_seconds += seconds
                            if time > data_ready:
                                data_ready = time
                free = proc_free.get(proc, 0.0)
                point_finish = (free if free > data_ready else data_ready) + duration
                proc_free[proc] = point_finish
                proc_busy[proc] = proc_busy.get(proc, 0.0) + duration
                if point_finish > launch_finish:
                    launch_finish = point_finish
                busy += duration
            kind_busy[kind_name] = busy
            kind_points[kind_name] = kind_points.get(kind_name, 0) + len(
                entry.timing
            )

            finish.append(launch_finish)
            previous = kind_finish.get(kind_name, 0.0)
            kind_finish[kind_name] = (
                launch_finish if launch_finish > previous else previous
            )
            if launch_finish > makespan:
                makespan = launch_finish

        footprint: Dict[str, int] = {}
        for _ops, root_footprint in programs:
            for mem, size in root_footprint.items():
                footprint[mem] = footprint.get(mem, 0) + size
        return ExecutionReport(
            makespan=makespan,
            kind_busy=kind_busy,
            kind_points=kind_points,
            kind_finish=kind_finish,
            copy_stats=CopyStats(num_copies, bytes_moved, copy_seconds),
            footprint=footprint,
            proc_busy={name: proc_busy[name] for name in sorted(proc_busy)},
        )
