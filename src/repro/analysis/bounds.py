"""Static cost bounds: a sound lower bound on simulated makespan.

The paper treats the runtime as a black-box oracle, so every candidate
mapping costs a full discrete-event simulation (§3.1).  But the machine
model of §2 is explicit enough to *price* a mapping without simulating
it: this pass computes a lower bound ``LB(mapping)`` on the simulator's
makespan from four independently-sound components,

* **critical path** — the longest dependence chain, each launch priced
  at its best-case per-point duration on the chosen processor kind
  (fastest processor, cheapest access links) times the unavoidable
  serialisation factor ``ceil(points-per-node / pool-size)``;
* **load** — for every concrete processor, the total best-case busy
  time of the point tasks round-robin placement provably assigns to it;
* **communication** — the mandatory transfers of a write-authority
  dataflow mirror of the coherence layer, priced two ways and combined
  with ``max``: *routed* per-channel congestion (each transfer is routed
  over the executor's own channel path via
  :mod:`repro.analysis.routing`, and every channel's bytes are divided
  by its DMA bandwidth — the executor serialises traffic per channel,
  so the busiest channel's busy time bounds the makespan) and the older
  *incident* aggregate (each memory's total traffic divided by the sum
  of its incident channel bandwidths — which also covers transfers the
  routing model cannot route);
* **routed schedule** — a conservative replay of the executor's own
  list schedule: launches are walked in the executor's topological
  order, every point task is reserved on its exact processor timeline
  (the placer mirror names the concrete processor, so durations use the
  exact link and throughput arithmetic), and every mandatory transfer
  of the flow mirror is routed hop-by-hop over the executor's channel
  paths against mirrored per-channel timelines.  The mirror performs a
  subset of the executor's events (virgin-data copies are missing,
  coalesced writes can merge copy fragments) in the same processing
  order with operand-wise smaller inputs, and the executor's timelines
  never backfill (``start = max(ready, free)``), so each mirrored
  finish time — and hence the mirrored makespan — is a lower bound on
  the simulated one.  This is the component that prices *copy stalls*:
  a consumer whose inputs cross the interconnect cannot start before
  the routed copies land, which neither the pure chain nor the load
  component can see.

``LB = max(components)``, and the soundness contract (see DESIGN.md) is
that ``LB(mapping) <= Simulator.run(mapping).makespan`` holds *in
floating point*, not merely in real arithmetic: the critical-path and
load components replay the executor's own float recurrences with
term-by-term smaller operands (IEEE rounding is monotone), and the
communication and routed-schedule components — whose aggregation does
not mirror a single executor float chain everywhere (write coalescing
can merge two copy fragments into one) — are deflated by ``1 - 1e-9``,
orders of magnitude more than the worst-case accumulated rounding of
the sums involved.
The search uses the bound for branch-and-bound pruning: a candidate
whose bound already exceeds the incumbent provably cannot win, so the
oracle can skip its simulation without changing any search decision.

Soundness is deliberately conservative where the runtime is subtle:

* virgin (never-written) data is materialised for free in its first
  reader's memory, exactly like the executor's ``plan_read`` — the
  resulting copies are order-dependent, which is sound to mirror only
  because the flow walk replays reads in the executor's own
  (launch, point, slot) processing order;
* copy latencies, store-and-forward hops, and through-traffic on a
  memory's channels are ignored (they only add real time);
* a partial mapping (some kinds undecided) falls back to the critical
  path alone, pricing undecided kinds at their cheapest option.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.analysis.routing import routing_model
from repro.machine.kinds import ADDRESSABLE, MemKind, ProcKind
from repro.machine.model import Machine
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.runtime.copies import DMA_EFFICIENCY
from repro.runtime.placement import Placer
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.task import TaskLaunch

__all__ = [
    "BoundBreakdown",
    "StaticBoundAnalyzer",
    "FLOAT_SAFETY",
    "bound_guided_mapping",
]

#: Relative deflation applied to bound components whose derivation
#: aggregates across resources instead of replaying one executor float
#: chain.  The true inequality holds in real arithmetic with slack (copy
#: latencies, DMA setup); 1e-9 dwarfs any accumulated float rounding.
FLOAT_SAFETY = 1.0 - 1e-9

#: Share of all routed bytes a single channel must carry before AM501
#: calls it the interconnect bottleneck of a placement.
AM501_SHARE = 0.5


@dataclass(frozen=True)
class BoundBreakdown:
    """The components of one mapping's lower bound.

    ``comm_memory``/``comm_edge`` name the heaviest memory boundary and
    its top contributing (consumer kind, collection root) edge — the
    evidence AM402 reports for communication-dominated placements.

    ``communication`` is the max of the routed per-channel congestion
    bound and the incident-bandwidth bound; ``communication_incident``
    keeps the incident component alone so the routed-vs-incident gap is
    observable, and ``comm_channel``/``comm_channel_share`` name the
    most congested channel and its share of all routed bytes — the
    evidence AM501 reports for bottleneck interconnects.

    ``schedule`` is the routed schedule-replay bound: the makespan of a
    conservative mirror of the executor's list schedule (exact
    processor reservations plus routed, channel-contended copies).  It
    dominates the chain and load components whenever copy stalls are on
    the critical path; zero for partial mappings.
    """

    critical_path: float
    load: float
    communication: float
    comm_memory: Optional[str] = None
    comm_edge: Optional[Tuple[str, str]] = None  # (consumer kind, root)
    comm_edge_bytes: int = 0
    communication_incident: float = 0.0
    comm_channel: Optional[str] = None
    comm_channel_share: float = 0.0
    schedule: float = 0.0

    @property
    def total(self) -> float:
        """The combined lower bound: max of the sound components."""
        return max(
            self.critical_path,
            self.load,
            self.communication,
            self.schedule,
        )


class _FlowSegment:
    """One written byte range of a root: its authoritative memory (with
    the lower-bound time the write became visible) and the memories
    holding a still-valid read replica (with their commit times)."""

    __slots__ = ("lo", "hi", "mem", "time", "caches")

    def __init__(
        self,
        lo: int,
        hi: int,
        mem: str,
        time: float,
        caches: Dict[str, float],
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.mem = mem
        self.time = time
        self.caches = caches


class _FlowMap:
    """A mirror of the coherence layer's segment map
    (:class:`repro.runtime.instances.SegmentMap`).

    Authority is created by explicit task writes *and* by virgin-data
    materialisation: like ``plan_read``, reading a never-written range
    grants the first reader's memory free authority over it, and later
    readers elsewhere must copy from that memory.  Which memory wins is
    read-order dependent — mirroring it is only sound because the bound
    walk replays reads in exactly the executor's (launch, point, slot)
    processing order, so the mirror reproduces the executor's copy set
    (same sources, same destinations; write coalescing can only merge
    adjacent fragments, dropping hop latencies).  Times carried on
    authorities and replicas are lower bounds on the executor's own, so
    the schedule replay can reuse them as copy floors and
    local-readiness terms.

    The segment list is kept sorted by ``lo`` and non-overlapping, so
    every operation locates its range by bisection instead of scanning.
    """

    __slots__ = ("_segments", "_los")

    def __init__(self) -> None:
        self._segments: List[_FlowSegment] = []
        #: Parallel list of segment ``lo`` offsets for bisection.
        self._los: List[int] = []

    def _split_at(self, pos: int) -> None:
        i = bisect_right(self._los, pos) - 1
        if i >= 0:
            seg = self._segments[i]
            if seg.lo < pos < seg.hi:
                right = _FlowSegment(
                    pos, seg.hi, seg.mem, seg.time, dict(seg.caches)
                )
                seg.hi = pos
                self._segments.insert(i + 1, right)
                self._los.insert(i + 1, pos)

    def write(self, lo: int, hi: int, mem: str, time: float = 0.0) -> None:
        """Authority for ``[lo, hi)`` moves to ``mem`` (visible at
        ``time``); replicas die."""
        if hi <= lo:
            return
        self._split_at(lo)
        self._split_at(hi)
        # After splitting, every overlapping segment is contained.
        i = bisect_left(self._los, lo)
        j = i
        n = len(self._segments)
        while j < n and self._segments[j].lo < hi:
            j += 1
        self._segments[i:j] = [_FlowSegment(lo, hi, mem, time, {})]
        self._los[i:j] = [lo]

    def read(
        self, lo: int, hi: int, dst: str
    ) -> Tuple[float, List[Tuple[str, int, int, float]]]:
        """What it takes to read ``[lo, hi)`` in ``dst``.

        Returns ``(local_ready, pieces)``: the latest availability among
        parts already valid in ``dst`` and the transfers ``(src_mem, lo,
        hi, src_time)`` still required — the planner mirror of
        ``SegmentMap.plan_read``, including its virgin-gap rule: ranges
        no segment covers are materialised in ``dst`` for free.  Copy
        replicas are recorded separately via :meth:`commit` once the
        copy has a finish time.
        """
        if hi <= lo:
            return 0.0, []
        self._split_at(lo)
        self._split_at(hi)
        local = 0.0
        pieces: List[Tuple[str, int, int, float]] = []
        overlapping: List[_FlowSegment] = []
        i = bisect_left(self._los, lo)
        n = len(self._segments)
        while i < n:
            seg = self._segments[i]
            if seg.lo >= hi:
                break
            # After splitting, every overlapping segment is contained.
            overlapping.append(seg)
            i += 1
        covered = lo
        for seg in overlapping:
            if seg.lo > covered:
                # Virgin gap: materialise in dst for free (the writes
                # insert into ranges disjoint from every overlapping
                # segment, so the snapshot above stays valid).
                self.write(covered, seg.lo, dst, 0.0)
            covered = max(covered, seg.hi)
            if seg.mem == dst:
                if seg.time > local:
                    local = seg.time
            elif dst in seg.caches:
                cached = seg.caches[dst]
                if cached > local:
                    local = cached
            else:
                pieces.append((seg.mem, seg.lo, seg.hi, seg.time))
        if covered < hi:
            self.write(covered, hi, dst, 0.0)
        return local, pieces

    def commit(self, lo: int, hi: int, mem: str, time: float) -> None:
        """Record that ``[lo, hi)`` has a valid replica in ``mem`` as of
        ``time`` (after a mirrored copy completed)."""
        if hi <= lo:
            return
        self._split_at(lo)
        self._split_at(hi)
        i = bisect_left(self._los, lo)
        n = len(self._segments)
        while i < n:
            seg = self._segments[i]
            if seg.lo >= hi:
                break
            seg.caches[mem] = time
            i += 1

    def clone(self) -> "_FlowMap":
        copy = _FlowMap.__new__(_FlowMap)
        copy._segments = [
            _FlowSegment(s.lo, s.hi, s.mem, s.time, dict(s.caches))
            for s in self._segments
        ]
        copy._los = list(self._los)
        return copy


class _CommState:
    """Accumulated flow-walk state: per-root flow maps, the integer
    traffic tallies, and the schedule-replay timelines (per-launch
    finish floors, per-processor and per-channel ``free_at`` mirrors).
    The walk state is a deterministic function of the mapping prefix it
    consumed, so any prefix/suffix recomposition of the walk reproduces
    the same final state bit-for-bit."""

    __slots__ = (
        "flows",
        "ingress",
        "egress",
        "edge_bytes",
        "pair_bytes",
        "finish",
        "proc_free",
        "chan_free",
    )

    def __init__(self) -> None:
        self.flows: Dict[str, _FlowMap] = {}
        self.ingress: Dict[str, int] = {}
        self.egress: Dict[str, int] = {}
        self.edge_bytes: Dict[Tuple[str, str, str], int] = {}
        #: (src mem uid, dst mem uid) -> bytes; feeds the routed bound.
        self.pair_bytes: Dict[Tuple[str, str], int] = {}
        #: launch uid -> lower bound on its group finish time.
        self.finish: Dict[str, float] = {}
        #: concrete processor uid -> mirrored timeline ``free_at``.
        self.proc_free: Dict[str, float] = {}
        #: channel key -> mirrored timeline ``free_at``.
        self.chan_free: Dict[str, float] = {}

    def clone(self) -> "_CommState":
        copy = _CommState.__new__(_CommState)
        copy.flows = {root: fm.clone() for root, fm in self.flows.items()}
        copy.ingress = dict(self.ingress)
        copy.egress = dict(self.egress)
        copy.edge_bytes = dict(self.edge_bytes)
        copy.pair_bytes = dict(self.pair_bytes)
        copy.finish = dict(self.finish)
        copy.proc_free = dict(self.proc_free)
        copy.chan_free = dict(self.chan_free)
        return copy


class StaticBoundAnalyzer:
    """Computes sound makespan lower bounds for (possibly partial)
    mappings of one ``(graph, machine)`` pair."""

    def __init__(self, graph: TaskGraph, machine: Machine) -> None:
        self.graph = graph
        self.machine = machine
        self._placer = Placer(machine)
        self._order = graph.topological_order()
        self._kind_names = {k.name for k in graph.task_kinds}

        # Best-case device characteristics per kind shape.
        self._max_throughput: Dict[ProcKind, float] = {}
        self._min_overhead: Dict[ProcKind, float] = {}
        for proc in machine.processors:
            best = self._max_throughput.get(proc.kind)
            if best is None or proc.throughput > best:
                self._max_throughput[proc.kind] = proc.throughput
            low = self._min_overhead.get(proc.kind)
            if low is None or proc.launch_overhead < low:
                self._min_overhead[proc.kind] = proc.launch_overhead
        self._max_bandwidth: Dict[Tuple[ProcKind, MemKind], float] = {}
        self._min_latency: Dict[Tuple[ProcKind, MemKind], float] = {}
        for link in machine.access_links:
            shape = (
                machine.processor(link.proc).kind,
                machine.memory(link.mem).kind,
            )
            bw = self._max_bandwidth.get(shape)
            if bw is None or link.bandwidth > bw:
                self._max_bandwidth[shape] = link.bandwidth
            lat = self._min_latency.get(shape)
            if lat is None or link.latency < lat:
                self._min_latency[shape] = link.latency

        self._pool_size: Dict[Tuple[ProcKind, int], int] = {}
        self._pools: Dict[Tuple[ProcKind, int], List[str]] = {}
        for pk in machine.proc_kinds():
            for node in range(machine.num_nodes):
                procs = machine.processors_of_kind(pk, node)
                self._pool_size[(pk, node)] = len(procs)
                self._pools[(pk, node)] = [p.uid for p in procs]

        #: DMA bandwidth aggregate over each memory's incident channels.
        self._channel_bw: Dict[str, float] = {}
        for mem in machine.memories:
            total = sum(c.bandwidth for c in machine.channels_of(mem.uid))
            if total > 0:
                self._channel_bw[mem.uid] = DMA_EFFICIENCY * total

        #: The executor's channel-path routes (shared per machine); its
        #: topology also serves the schedule replay's hop-level copies.
        self._routing = routing_model(machine)

        # Caches (all keyed on deterministic values).
        self._node_count_cache: Dict[Tuple[int, bool], Tuple[int, ...]] = {}
        self._duration_cache: Dict[Tuple, float] = {}
        self._best_duration_cache: Dict[str, Tuple[float, int]] = {}
        self._placement_cache: Dict[Tuple, Tuple[Tuple[str, ...], ...]] = {}
        self._interval_cache: Dict[Tuple, Tuple[Tuple[int, int], ...]] = {}
        self._breakdown_cache: Dict[Tuple, BoundBreakdown] = {}
        self._quick_cache: Dict[Tuple, float] = {}
        self._replay_ops_cache: Dict[Tuple, Optional[Tuple]] = {}

        # Incremental flow-walk state: along a search chain consecutive
        # bound requests differ in few kinds, so the walk replays the
        # unchanged prefix from a snapshot (same scheme as the runtime's
        # incremental engine; sound here because the walk state is pure
        # integer bookkeeping, so recomposition is exact).
        self._comm_first: Dict[str, int] = {}
        for index, launch in enumerate(self._order):
            self._comm_first.setdefault(launch.kind.name, index)
        self._comm_boundaries = set(self._comm_first.values())
        self._comm_base: Optional[Dict[str, Tuple]] = None
        self._comm_snapshots: Dict[int, _CommState] = {}

        #: How many bounds were requested / served from the cache.
        self.checks = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    def _node_counts(self, size: int, distribute: bool) -> Tuple[int, ...]:
        """Point tasks per node under the blocked split (placer mirror)."""
        key = (size, distribute)
        counts = self._node_count_cache.get(key)
        if counts is None:
            nodes = self.machine.num_nodes
            if not distribute:
                counts = (size,) + (0,) * (nodes - 1)
            else:
                # |{i : i*N//S == n}| = ceil((n+1)S/N) - ceil(nS/N),
                # with -ceil(a/b) spelled floor(-a/b) for int arithmetic.
                counts = tuple(
                    -(-(n + 1) * size // nodes) + (-n * size // nodes)
                    for n in range(nodes)
                )
            self._node_count_cache[key] = counts
        return counts

    def _serial_factor(
        self, launch: TaskLaunch, distribute: bool, pk: ProcKind
    ) -> int:
        """Max points any single processor provably runs serially."""
        factor = 0
        for node, cnt in enumerate(self._node_counts(launch.size, distribute)):
            if cnt == 0:
                continue
            pool = self._pool_size.get((pk, node), 0)
            if pool == 0:
                continue  # invalid option; contribute nothing (sound)
            factor = max(factor, -(-cnt // pool))
        return factor

    def _point_duration(
        self,
        launch: TaskLaunch,
        pk: ProcKind,
        mem_kinds: Tuple[MemKind, ...],
    ) -> Optional[float]:
        """Best-case per-point duration, built with the executor's exact
        float operations over term-by-term smaller operands.

        Returns ``None`` when a slot's memory kind is unreachable from
        ``pk`` on this machine (an invalid option).
        """
        key = (launch.uid, pk, mem_kinds)
        cached = self._duration_cache.get(key)
        if cached is not None:
            return cached
        access = 0.0
        for slot_index, slot in enumerate(launch.kind.slots):
            shape = (pk, mem_kinds[slot_index])
            bandwidth = self._max_bandwidth.get(shape)
            if bandwidth is None:
                return None
            passes = int(slot.privilege.reads) + int(slot.privilege.writes)
            bytes_pp = launch.arg_bytes_per_point(slot_index)
            access += (
                self._min_latency[shape] + bytes_pp / bandwidth
            ) * passes
        compute = 0.0
        point_flops = launch.flops / launch.size
        if point_flops > 0:
            adjust = (
                launch.kind.gpu_speedup if pk == ProcKind.GPU else 1.0
            )
            compute = point_flops / (self._max_throughput[pk] * adjust)
        duration = self._min_overhead[pk] + compute + access
        self._duration_cache[key] = duration
        return duration

    def _best_option(self, launch: TaskLaunch) -> Tuple[float, int]:
        """Cheapest ``(duration, serial factor)`` over every legal
        decision — the price of a kind the mapping leaves undecided.

        The two minima are taken independently (a sound under-estimate
        even if no single decision achieves both).
        """
        cached = self._best_duration_cache.get(launch.uid)
        if cached is not None:
            return cached
        best_d: Optional[float] = None
        best_m: Optional[int] = None
        for pk in self.machine.proc_kinds():
            if not launch.kind.has_variant(pk):
                continue
            kinds_for = self.machine.mem_kinds_for(pk)
            if not kinds_for:
                continue
            # Per-slot cheapest access term, accumulated in slot order
            # exactly like the executor's access_seconds.
            access = 0.0
            feasible = True
            for slot_index, slot in enumerate(launch.kind.slots):
                passes = int(slot.privilege.reads) + int(
                    slot.privilege.writes
                )
                bytes_pp = launch.arg_bytes_per_point(slot_index)
                term: Optional[float] = None
                for mk in kinds_for:
                    shape = (pk, mk)
                    bandwidth = self._max_bandwidth.get(shape)
                    if bandwidth is None:
                        continue
                    candidate = (
                        self._min_latency[shape] + bytes_pp / bandwidth
                    ) * passes
                    if term is None or candidate < term:
                        term = candidate
                if term is None:
                    feasible = False
                    break
                access += term
            if not feasible:
                continue
            compute = 0.0
            point_flops = launch.flops / launch.size
            if point_flops > 0:
                adjust = (
                    launch.kind.gpu_speedup if pk == ProcKind.GPU else 1.0
                )
                compute = point_flops / (self._max_throughput[pk] * adjust)
            duration = self._min_overhead[pk] + compute + access
            if best_d is None or duration < best_d:
                best_d = duration
            for distribute in (False, True):
                factor = self._serial_factor(launch, distribute, pk)
                if best_m is None or factor < best_m:
                    best_m = factor
        result = (best_d or 0.0, best_m or 0)
        self._best_duration_cache[launch.uid] = result
        return result

    def _placements(
        self, launch: TaskLaunch, decision: MappingDecision
    ) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, ...], ...]]:
        """Placer mirror: per-point processor uids and per-point
        per-slot memory uids, cached per (launch, decision)."""
        key = (launch.uid, decision.key())
        cached = self._placement_cache.get(key)
        if cached is None:
            placements = self._placer.place_launch(launch, decision)
            procs = tuple(p.proc.uid for p in placements)
            mems = tuple(
                tuple(m.uid for m in p.mems) for p in placements
            )
            cached = (procs, mems)
            self._placement_cache[key] = cached
        return cached

    def _shard_intervals(
        self, launch: TaskLaunch, slot_index: int, for_write: bool
    ) -> Tuple[Tuple[int, int], ...]:
        key = (launch.uid, slot_index, for_write)
        cached = self._interval_cache.get(key)
        if cached is None:
            cached = tuple(
                launch.shard_interval(slot_index, point, for_write=for_write)
                for point in range(launch.size)
            )
            self._interval_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def _chain_components(
        self, mapping: Mapping, partial: bool
    ) -> Tuple[float, float]:
        """Critical-path and per-processor-load lower bounds.

        Both replay the executor's float recurrences (``finish = max(
        ready over preds) then repeated ``+= duration``; ``busy +=
        duration`` per reservation in topological order) with smaller
        operands, so each is ``<=`` the simulated makespan *as floats*.
        """
        longest: Dict[str, float] = {}
        cp = 0.0
        busy: Dict[str, float] = {}
        for launch in self._order:
            ready = 0.0
            for dep in self.graph.predecessors(launch.uid):
                upstream = longest[dep.src]
                if upstream > ready:
                    ready = upstream
            if launch.kind.name in mapping:
                decision = mapping.decision(launch.kind.name)
                duration = self._point_duration(
                    launch, decision.proc_kind, decision.mem_kinds
                )
                if duration is None:  # invalid decision; price at best
                    duration, factor = self._best_option(launch)
                else:
                    factor = self._serial_factor(
                        launch, decision.distribute, decision.proc_kind
                    )
                    if not partial:
                        counts = self._node_counts(
                            launch.size, decision.distribute
                        )
                        for node, cnt in enumerate(counts):
                            if cnt == 0:
                                continue
                            pool = self._pools.get(
                                (decision.proc_kind, node), []
                            )
                            if not pool:
                                continue
                            size = len(pool)
                            for j, proc_uid in enumerate(pool):
                                assigned = (cnt + size - 1 - j) // size
                                if assigned == 0:
                                    break
                                acc = busy.get(proc_uid, 0.0)
                                for _ in range(assigned):
                                    acc += duration
                                busy[proc_uid] = acc
            else:
                duration, factor = self._best_option(launch)
            acc = ready
            for _ in range(factor):
                acc += duration
            longest[launch.uid] = acc
            if acc > cp:
                cp = acc
        load = max(busy.values(), default=0.0)
        return cp, load

    def _replay_ops(self, launch: TaskLaunch, decision) -> Optional[Tuple]:
        """The launch's schedule-replay operations under ``decision`` —
        a pure function of the pair, cached across the search chain.

        Returns ``(points, writes)``: ``points`` is a tuple, one entry
        per point task in placement order, of ``(proc_uid, duration,
        reads)`` where ``duration`` replays the executor's exact float
        arithmetic on the concrete processor and its concrete access
        links, and ``reads`` lists ``(root, dst_mem, lo, hi)`` for the
        point's non-empty read shards in slot order; ``writes`` is a
        tuple of ``(root, lo, hi, mem)`` write ops (coalesced where that
        provably cannot change the flow state).  ``None`` marks an
        invalid decision (no placement, no flow, no schedule).
        """
        key = (launch.uid, decision.key())
        if key in self._replay_ops_cache:
            return self._replay_ops_cache[key]
        ops: Optional[Tuple]
        try:
            point_procs, point_mems = self._placements(launch, decision)
        except ValueError:
            ops = None
        else:
            read_slots = [
                (i, launch.args[i].root, self._shard_intervals(launch, i, False))
                for i, slot in enumerate(launch.kind.slots)
                if slot.privilege.reads
            ]
            write_slots = [
                (i, launch.args[i].root, self._shard_intervals(launch, i, True))
                for i, slot in enumerate(launch.kind.slots)
                if slot.privilege.writes
            ]
            point_flops = launch.flops / launch.size
            gpu_adjust = (
                launch.kind.gpu_speedup
                if decision.proc_kind == ProcKind.GPU
                else 1.0
            )
            points = []
            ops = None
            for point in range(launch.size):
                proc_uid = point_procs[point]
                proc = self.machine.processor(proc_uid)
                access_seconds = 0.0
                for slot_index, slot in enumerate(launch.kind.slots):
                    link = self.machine.access_link(
                        proc_uid, point_mems[point][slot_index]
                    )
                    if link is None:  # unreachable slot: invalid decision
                        break
                    passes = int(slot.privilege.reads) + int(
                        slot.privilege.writes
                    )
                    bytes_pp = launch.arg_bytes_per_point(slot_index)
                    access_seconds += (
                        link.latency + bytes_pp / link.bandwidth
                    ) * passes
                else:
                    compute_seconds = 0.0
                    if point_flops > 0:
                        compute_seconds = point_flops / (
                            proc.throughput * gpu_adjust
                        )
                    duration = (
                        proc.launch_overhead
                        + compute_seconds
                        + access_seconds
                    )
                    reads = tuple(
                        (root, point_mems[point][slot_index], lo, hi)
                        for slot_index, root, intervals in read_slots
                        for lo, hi in (intervals[point],)
                        if hi > lo
                    )
                    points.append((proc_uid, duration, reads))
                    continue
                break  # a slot was unreachable; whole launch is invalid
            if len(points) == launch.size:
                writes = []
                for point in range(launch.size):
                    for slot_index, root, intervals in write_slots:
                        lo, hi = intervals[point]
                        if hi > lo:
                            writes.append(
                                (root, lo, hi, point_mems[point][slot_index])
                            )
                ops = (
                    tuple(points),
                    tuple(self._coalesce_writes(writes)),
                )
        self._replay_ops_cache[key] = ops
        return ops

    @staticmethod
    def _coalesce_writes(
        writes: List[Tuple[str, int, int, str]]
    ) -> List[Tuple[str, int, int, str]]:
        """Union a launch's write ops per ``(root, mem)``.

        The flow map tracks untimed authority and integer byte totals,
        so when no byte of a root is written to two different memories
        within one launch (the disjoint-shard case), applying the
        per-``(root, mem)`` unions leaves the final flow state — and
        every later tally — unchanged while the op count drops from one
        per point to one per contiguous run.  Order-dependent overlaps
        fall back to the exact per-point sequence."""
        grouped: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        order: List[Tuple[str, str]] = []
        for root, lo, hi, mem in writes:
            key = (root, mem)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append((lo, hi))
        merged = {key: _coalesce(pieces) for key, pieces in grouped.items()}
        by_root: Dict[str, List[Tuple[int, int]]] = {}
        for (root, _), pieces in merged.items():
            by_root.setdefault(root, []).extend(pieces)
        for pieces in by_root.values():
            union = _coalesce(pieces)
            if sum(h - l for l, h in union) != sum(h - l for l, h in pieces):
                return writes  # cross-memory overlap: order matters
        return [
            (root, lo, hi, mem)
            for root, mem in order
            for lo, hi in merged[(root, mem)]
        ]

    def _replay_copy(
        self,
        chan_free: Dict[str, float],
        src: str,
        dst: str,
        nbytes: int,
        ready: float,
        src_time: float,
    ) -> float:
        """Mirror one ``CopyEngine.execute``: route the piece over the
        executor's hop path, reserving each hop on the mirrored channel
        timelines.  Returns the copy's lower-bound finish time."""
        path = self._routing.topology.copy_path(src, dst)
        time = max(ready, src_time)
        if path is None or not path.hops:
            return time
        for hop in path.hops:
            duration = hop.latency + nbytes / (
                hop.bandwidth * DMA_EFFICIENCY
            )
            key = _channel_key(hop.mem_a, hop.mem_b)
            free = chan_free.get(key, 0.0)
            if free > time:
                time = free
            time = time + duration
            chan_free[key] = time
        return time

    def _comm_component(self, mapping: Mapping) -> Tuple[
        float,
        float,
        Optional[str],
        Optional[Tuple[str, str]],
        int,
        Optional[str],
        float,
        float,
    ]:
        """Mandatory-traffic and routed-schedule bounds: walks the
        launches once in executor order, mirroring its list schedule
        (processor reservations, routed channel-contended copies) while
        tallying the flow mirror's traffic; returns ``(bound, incident,
        memory, edge, edge_bytes, channel, channel_share, schedule)``.
        """
        order = self._order
        if self._comm_base is None:
            dirty = 0
        else:
            dirty = len(order)
            for kind_name, first in self._comm_first.items():
                if first >= dirty:
                    continue
                if (
                    mapping.decision(kind_name).key()
                    != self._comm_base[kind_name]
                ):
                    dirty = first
        start = 0
        base_snapshot = None
        for index, snapshot in self._comm_snapshots.items():
            if start <= index <= dirty:
                start = index
                base_snapshot = snapshot
        if base_snapshot is not None:
            state = base_snapshot.clone()
        else:
            state = _CommState()
            start = 0
        self._comm_snapshots = {
            index: snapshot
            for index, snapshot in self._comm_snapshots.items()
            if index <= dirty
        }
        snapshots = self._comm_snapshots
        boundaries = self._comm_boundaries
        flows = state.flows
        ingress = state.ingress
        egress = state.egress
        edge_bytes = state.edge_bytes
        pair_bytes = state.pair_bytes
        finish = state.finish
        proc_free = state.proc_free
        chan_free = state.chan_free

        for launch_index in range(start, len(order)):
            if launch_index in boundaries and launch_index not in snapshots:
                snapshots[launch_index] = state.clone()
            launch = order[launch_index]
            decision = mapping.decision(launch.kind.name)
            ops = self._replay_ops(launch, decision)
            # The group barrier: a launch starts no earlier than its
            # predecessors' mirrored finish times.
            ready = 0.0
            for dep in self.graph.predecessors(launch.uid):
                upstream = finish.get(dep.src, 0.0)
                if upstream > ready:
                    ready = upstream
            if ops is None:  # invalid decision — no placement, no flow
                finish[launch.uid] = ready
                continue
            points, write_ops = ops
            launch_finish = 0.0
            # Points in placement order, exactly like the executor: plan
            # the point's copies against the flow mirror, route them over
            # the mirrored channel timelines, then reserve the point on
            # its processor's mirrored timeline.
            for proc_uid, duration, reads in points:
                data_ready = ready
                for root, dst, lo, hi in reads:
                    flow = flows.get(root)
                    if flow is None:
                        flow = flows[root] = _FlowMap()
                    local, pieces = flow.read(lo, hi, dst)
                    if local > data_ready:
                        data_ready = local
                    for src, p_lo, p_hi, src_time in pieces:
                        nbytes = p_hi - p_lo
                        ingress[dst] = ingress.get(dst, 0) + nbytes
                        egress[src] = egress.get(src, 0) + nbytes
                        pair = (src, dst)
                        pair_bytes[pair] = pair_bytes.get(pair, 0) + nbytes
                        for mem in (dst, src):
                            edge = (mem, root, launch.kind.name)
                            edge_bytes[edge] = (
                                edge_bytes.get(edge, 0) + nbytes
                            )
                        done = self._replay_copy(
                            chan_free, src, dst, nbytes, ready, src_time
                        )
                        flow.commit(p_lo, p_hi, dst, done)
                        if done > data_ready:
                            data_ready = done
                free = proc_free.get(proc_uid, 0.0)
                point_start = free if free > data_ready else data_ready
                point_finish = point_start + duration
                proc_free[proc_uid] = point_finish
                if point_finish > launch_finish:
                    launch_finish = point_finish
            # Writes commit after the whole group, in (point, slot) order.
            for root, lo, hi, mem in write_ops:
                flow = flows.get(root)
                if flow is None:
                    flow = flows[root] = _FlowMap()
                flow.write(lo, hi, mem, launch_finish)
            finish[launch.uid] = launch_finish

        end = len(order)
        if end not in snapshots:
            # Stored by reference: the walk is over and future walks
            # clone before mutating.
            snapshots[end] = state
        self._comm_base = {
            kind_name: mapping.decision(kind_name).key()
            for kind_name in self._comm_first
        }

        incident = 0.0
        worst_mem: Optional[str] = None
        for mem_uid in sorted(set(ingress) | set(egress)):
            denom = self._channel_bw.get(mem_uid)
            if denom is None:
                continue  # no channels: the executor cannot copy here
            traffic = ingress.get(mem_uid, 0) + egress.get(mem_uid, 0)
            value = traffic / denom * FLOAT_SAFETY
            if value > incident:
                incident = value
                worst_mem = mem_uid
        edge: Optional[Tuple[str, str]] = None
        top_bytes = 0
        if worst_mem is not None:
            for (mem, root, kind), nbytes in sorted(edge_bytes.items()):
                if mem == worst_mem and nbytes > top_bytes:
                    top_bytes = nbytes
                    edge = (kind, root)

        # Routed per-channel congestion: every transfer crosses each
        # channel of its copy path, and the executor serialises all
        # traffic per channel, so the busiest channel's mandatory busy
        # time is a makespan lower bound.  Unroutable pairs are skipped
        # (a sound under-count; AM503 reports them statically).
        chan_bytes: Dict[str, int] = {}
        total_routed = 0
        for pair in sorted(pair_bytes):
            route = self._routing.route(*pair)
            if not route:
                continue
            nbytes = pair_bytes[pair]
            total_routed += nbytes
            for chan in route:
                chan_bytes[chan] = chan_bytes.get(chan, 0) + nbytes
        routed = 0.0
        worst_channel: Optional[str] = None
        for chan in sorted(chan_bytes):
            bandwidth = self._routing.channel_bandwidth(chan)
            if not bandwidth:  # pragma: no cover - defensive
                continue
            value = (
                chan_bytes[chan] / (DMA_EFFICIENCY * bandwidth) * FLOAT_SAFETY
            )
            if value > routed:
                routed = value
                worst_channel = chan
        share = (
            chan_bytes[worst_channel] / total_routed
            if worst_channel is not None and total_routed > 0
            else 0.0
        )
        bound = routed if routed > incident else incident
        # The mirrored schedule's makespan.  Deflated like the traffic
        # bounds: write coalescing can merge two executor copy fragments
        # into one mirrored copy, which is smaller in real arithmetic by
        # at least one hop latency but not a term-by-term float replay.
        schedule = max(state.finish.values(), default=0.0) * FLOAT_SAFETY
        return (
            bound,
            incident,
            worst_mem,
            edge,
            top_bytes,
            worst_channel,
            share,
            schedule,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def breakdown(self, mapping: Mapping) -> BoundBreakdown:
        """Component-wise lower bound for ``mapping``.

        A mapping covering every task kind of the graph gets all three
        components; a partial mapping gets the critical path only, with
        undecided kinds priced at their cheapest legal option.
        """
        self.checks += 1
        key = mapping.key()
        cached = self._breakdown_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        partial = self._is_partial(mapping)
        cp, load = self._chain_components(mapping, partial)
        if partial:
            result = BoundBreakdown(
                critical_path=cp, load=0.0, communication=0.0
            )
        else:
            comm, incident, mem, edge, nbytes, channel, share, schedule = (
                self._comm_component(mapping)
            )
            result = BoundBreakdown(
                critical_path=cp,
                load=load,
                communication=comm,
                comm_memory=mem,
                comm_edge=edge,
                comm_edge_bytes=nbytes,
                communication_incident=incident,
                comm_channel=channel,
                comm_channel_share=share,
                schedule=schedule,
            )
        self._breakdown_cache[key] = result
        return result

    def _is_partial(self, mapping: Mapping) -> bool:
        return any(
            name not in mapping for name in self._kind_names
        ) or any(
            mapping.decision(name).num_slots
            != self.graph.kind(name).num_slots
            for name in self._kind_names
            if name in mapping
        )

    def lower_bound(self, mapping: Mapping) -> float:
        """Sound lower bound on ``Simulator.run(mapping).makespan``."""
        return self.breakdown(mapping).total

    def gap_ratio(self, mapping: Mapping) -> float:
        """Routed-vs-incident tightening for one mapping: how much the
        channel-path congestion bound improves on the incident aggregate
        (>= 1.0; exactly 1.0 when the mapping moves no bytes).

        A pure function of ``(graph, machine, mapping)``: it does not
        depend on which candidates the search happened to bound, so
        reports built from it stay bit-identical across
        checkpoint/resume.
        """
        bd = self.breakdown(mapping)
        if bd.communication_incident <= 0.0:
            return 1.0
        return bd.communication / bd.communication_incident

    def quick_bound(self, mapping: Mapping) -> float:
        """Cheap sound lower bound: critical path and load only, no
        traffic component.

        Weaker than :meth:`lower_bound` but skips the flow-map walk
        that dominates the full breakdown, so it is the right price for
        *ordering* decisions — seeding and best-bound-first move
        ranking — where only the relative ranking matters and a sound
        but loose value cannot change correctness.  It takes its max
        over the same :meth:`_chain_components` floats as
        :meth:`breakdown`, so ``quick_bound(m) <= lower_bound(m)``
        holds exactly: the oracle prunes on it first and walks traffic
        only when it cannot decide.
        """
        key = mapping.key()
        cached = self._quick_cache.get(key)
        if cached is None:
            partial = self._is_partial(mapping)
            cp, load = self._chain_components(mapping, partial)
            cached = cp if partial else max(cp, load)
            self._quick_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def diagnose_mapping(
        self, mapping: Mapping, incumbent: Optional[float] = None
    ) -> List[Diagnostic]:
        """AM4xx (and routed-traffic AM501) findings for one (valid)
        mapping.

        ``incumbent`` is a reference makespan (e.g. the default
        mapping's simulated time): any mapping whose bound exceeds it is
        provably dominated (AM401).
        """
        found: List[Diagnostic] = []
        bd = self.breakdown(mapping)
        if incumbent is not None and bd.total > incumbent:
            found.append(
                Diagnostic(
                    rule_id="AM401",
                    message=(
                        f"static lower bound {bd.total:.6g}s exceeds "
                        f"reference makespan {incumbent:.6g}s — this "
                        f"mapping provably cannot win"
                    ),
                )
            )
        if bd.communication > max(bd.critical_path, bd.load):
            kind, root = bd.comm_edge or (None, None)
            detail = (
                f"; heaviest edge: {kind} reading collection root "
                f"{root!r} ({bd.comm_edge_bytes} bytes)"
                if kind is not None
                else ""
            )
            found.append(
                Diagnostic(
                    rule_id="AM402",
                    message=(
                        f"mandatory traffic through {bd.comm_memory} "
                        f"({bd.communication:.6g}s) dominates compute "
                        f"({max(bd.critical_path, bd.load):.6g}s)"
                        + detail
                    ),
                    span=Span(
                        kind=kind, collection=root, memory=bd.comm_memory
                    ),
                )
            )
        if (
            bd.comm_channel is not None
            and bd.comm_channel_share >= AM501_SHARE
        ):
            found.append(
                Diagnostic(
                    rule_id="AM501",
                    message=(
                        f"channel {bd.comm_channel} carries "
                        f"{bd.comm_channel_share:.0%} of all routed "
                        f"bytes ({bd.communication:.6g}s congestion "
                        f"bound) — the interconnect bottleneck for "
                        f"this placement"
                    ),
                )
            )
        usable = {
            pk
            for kind in self.graph.task_kinds
            for pk in kind.variants
        }
        for pk in self.machine.proc_kinds():
            if pk in usable and mapping.count_proc(pk) == 0:
                found.append(
                    Diagnostic(
                        rule_id="AM403",
                        message=(
                            f"machine has {pk.value} processors and task "
                            f"variants exist, but no task kind is mapped "
                            f"to them"
                        ),
                    )
                )
        return found


def _legalize_kind(space, mapping: Mapping, kind_name: str) -> Mapping:
    """Reset slots the decision's processor kind cannot address to the
    fastest addressable kind (mirrors the search's legalisation)."""
    decision = mapping.decision(kind_name)
    fastest = space.dims(kind_name).mem_options[decision.proc_kind][0]
    for slot_index, mem_kind in enumerate(decision.mem_kinds):
        if (decision.proc_kind, mem_kind) not in ADDRESSABLE:
            mapping = mapping.with_mem(kind_name, slot_index, fastest)
    return mapping


def bound_guided_mapping(space, analyzer: StaticBoundAnalyzer) -> Mapping:
    """A statically bound-guided starting mapping for the search.

    Greedy coordinate descent on the *quick lower bound* instead of the
    simulator: starting from the space's default mapping, each kind (in
    sorted name order, for determinism) tries its distribution options
    and processor×slot×memory options and keeps strict bound
    improvements.  The resulting seed tends to start the real search
    near a good incumbent, which tightens branch-and-bound pruning from
    the first round — at the cost of analyzer calls only, no
    simulations.
    """
    mapping = space.default_mapping()
    best = analyzer.quick_bound(mapping)
    for kind_name in sorted(space.kind_names()):
        for distribute in space.searched_distribute_options(kind_name):
            candidate = mapping.with_distribute(kind_name, distribute)
            bound = analyzer.quick_bound(candidate)
            if bound < best:
                mapping, best = candidate, bound
        num_slots = mapping.decision(kind_name).num_slots
        for proc_kind in space.searched_proc_options(kind_name):
            for slot_index in range(num_slots):
                for mem_kind in space.searched_mem_options(
                    kind_name, proc_kind, slot_index
                ):
                    candidate = mapping.with_proc(kind_name, proc_kind)
                    candidate = candidate.with_mem(
                        kind_name, slot_index, mem_kind
                    )
                    candidate = _legalize_kind(space, candidate, kind_name)
                    bound = analyzer.quick_bound(candidate)
                    if bound < best:
                        mapping, best = candidate, bound
    from repro.mapping.validate import MappingError, validate

    try:
        validate(space.graph, analyzer.machine, mapping)
    except MappingError:  # pragma: no cover - defensive fallback
        return space.default_mapping()
    return mapping


def _channel_key(mem_a: str, mem_b: str) -> str:
    """The executor's channel timeline key (``CopyEngine._channel_key``
    mirror), so mirrored reservations serialise exactly where it does."""
    a, b = sorted((mem_a, mem_b))
    return f"chan:{a}<->{b}"


def _coalesce(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort and merge overlapping/adjacent ``[lo, hi)`` intervals."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return merged
