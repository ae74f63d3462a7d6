"""Cost bounds: a sound lower bound on simulated makespan.

The paper treats the runtime as a black-box oracle, so every candidate
mapping costs a full evaluation (§3.1).  This pass prices a mapping
without running it, so that the search can skip the evaluations that
provably cannot win:

* **critical path** — the longest dependence chain, each launch priced
  at its best-case per-point duration on the chosen processor kind
  (fastest processor, cheapest access links) times the unavoidable
  serialisation factor: the most points any one processor runs;
* **load** — for every concrete processor, the total best-case busy
  time of the point tasks placed on it.

Together they are the quick bound (:meth:`StaticBoundAnalyzer.quick_bound`),
the only bound a search prunes on.  Both replay the executor's own float
recurrences with term-by-term smaller operands (IEEE rounding is
monotone), so each is ``<=`` the simulated makespan in floating point.
Both count each processor's points from the runtime placer's own table
(:meth:`repro.runtime.placement.Placer.point_procs`, read through the
engine), so they see exactly the executor's assignment.

For analysis only, :meth:`StaticBoundAnalyzer.breakdown` (and
:meth:`StaticBoundAnalyzer.lower_bound`, its total) adds a third term:

* **schedule** — the makespan of one
  :class:`~repro.runtime.incremental.IncrementalEngine` run on the
  mapping, deflated once by :data:`FLOAT_SAFETY`.

That term is one simulation.  ``repro analyze`` uses it (AM401); a tune
never does, because every engine run a tune makes is a counted
simulation charged to the search clock.

``LB = max(critical path, load, schedule)``, and the soundness contract
(see DESIGN.md) is that ``LB(mapping) <= Simulator.run(mapping).makespan``
holds *in floating point*.  The search uses the quick bound for
branch-and-bound pruning: a candidate whose bound already exceeds the
incumbent provably cannot win, so the oracle can skip its evaluation
without changing any search decision.

:meth:`StaticBoundAnalyzer.breakdown` also reports the mapping's
mandatory traffic as evidence for the AM402/AM501 diagnostics.  The
traffic has one source, the engine's memoised root programs
(:meth:`~repro.runtime.incremental.IncrementalEngine.copies`), which
hold exactly the executor's copies and the channels each crosses; the
schedule term has just compiled them.  Each channel's bytes are divided
by its DMA bandwidth, and the busiest channel's time is the
``communication`` evidence.  It never exceeds ``schedule`` — the
executor serialises each channel's copies, and their simulated busy
time adds hop latency on top of the bytes they carry — so it is not a
term of ``LB``.

A partial mapping (some kinds undecided) falls back to the critical
path alone, pricing undecided kinds at their cheapest option.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.machine.kinds import MemKind, ProcKind
from repro.machine.model import Machine
from repro.machine.topology import DMA_EFFICIENCY, channel_key
from repro.mapping.mapping import Mapping
from repro.runtime.incremental import IncrementalEngine
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.task import TaskLaunch

__all__ = [
    "BoundBreakdown",
    "StaticBoundAnalyzer",
    "FLOAT_SAFETY",
    "bound_guided_mapping",
]

#: Relative deflation of the schedule and traffic components.  It keeps
#: the schedule (the engine's makespan) strictly below the simulated
#: makespan, and it covers the rounding of the traffic quotients, which
#: divide a channel's bytes once instead of replaying the executor's
#: per-hop float chain; 1e-9 dwarfs any accumulated float rounding.
FLOAT_SAFETY = 1.0 - 1e-9

#: Share of all routed bytes a single channel must carry before AM501
#: calls it the interconnect bottleneck of a placement.
AM501_SHARE = 0.5


@dataclass(frozen=True)
class BoundBreakdown:
    """The components of one mapping's lower bound, and the traffic
    evidence behind the AM402/AM501 diagnostics.

    ``schedule`` is the engine's makespan for the mapping, deflated once
    by :data:`FLOAT_SAFETY`; zero for partial mappings.

    ``communication`` is the busiest channel's mandatory busy time: the
    bytes the mapping's copies put on it over its DMA bandwidth.  It
    never exceeds ``schedule``, so it is evidence, not a term of
    :attr:`total`.  ``comm_channel``/``comm_channel_share`` name that
    channel and its share of all copied bytes — the evidence AM501
    reports for bottleneck interconnects — and ``comm_edge`` names the
    (consumer kind, collection root) edge that puts the most bytes on
    it — the evidence AM402 adds for communication-dominated placements.
    """

    critical_path: float
    load: float
    communication: float
    comm_edge: Optional[Tuple[str, str]] = None  # (consumer kind, root)
    comm_edge_bytes: int = 0
    comm_channel: Optional[str] = None
    comm_channel_share: float = 0.0
    schedule: float = 0.0

    @property
    def total(self) -> float:
        """The combined lower bound: max of the sound components."""
        return max(self.critical_path, self.load, self.schedule)


class StaticBoundAnalyzer:
    """Computes sound makespan lower bounds for (possibly partial)
    mappings of one ``(graph, machine)`` pair.

    ``engine`` is the incremental engine whose placer and launch-cost
    table the bounds read, and whose root programs hold the traffic.  A
    tune passes its simulator's own
    (:attr:`~repro.runtime.simulator.Simulator.engine`), so the analyses
    and the simulations share one cost table.  Without one, the
    analyzer builds a private engine.  Only :meth:`breakdown` (and
    :meth:`lower_bound`, its total) runs it (the schedule term, one
    simulation); a tune calls neither.
    """

    def __init__(
        self,
        graph: TaskGraph,
        machine: Machine,
        engine: Optional[IncrementalEngine] = None,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self.engine = (
            engine if engine is not None else IncrementalEngine(graph, machine)
        )
        self._order = graph.topological_order()
        self._kind_names = {k.name for k in graph.task_kinds}
        #: launch uid -> interned shape id: identical launches share
        #: every per-(launch, decision) cache entry below.
        self._shape_of = graph.shape_ids()

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

        #: Channel timeline key -> the DMA bandwidth a copy sustains on it.
        self._dma_bandwidth: Dict[str, float] = {
            channel_key(chan.mem_a, chan.mem_b): DMA_EFFICIENCY * chan.bandwidth
            for chan in machine.channels
        }

        # Caches (all keyed on deterministic values).
        self._proc_count_cache: Dict[Tuple, Tuple] = {}
        self._duration_cache: Dict[Tuple, float] = {}
        self._best_duration_cache: Dict[int, Tuple[float, int]] = {}
        self._breakdown_cache: Dict[Tuple, BoundBreakdown] = {}
        #: mapping key -> (partial, quick bound).
        self._quick_cache: Dict[Tuple, Tuple[bool, float]] = {}

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    def _proc_counts(
        self, size: int, distribute: bool, pk: ProcKind
    ) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        """``((processor uid, points), ...)`` over the processors the
        placer gives points of a ``size``-point launch, and the serial
        factor: the most points any one of them runs."""
        key = (size, distribute, pk)
        cached = self._proc_count_cache.get(key)
        if cached is None:
            counts: Dict[str, int] = {}
            placer = self.engine.costs.placer
            for proc in placer.point_procs(size, distribute, pk):
                counts[proc.uid] = counts.get(proc.uid, 0) + 1
            cached = (tuple(counts.items()), max(counts.values(), default=0))
            self._proc_count_cache[key] = cached
        return cached

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
        key = (self._shape_of[launch.uid], pk, mem_kinds)
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
        shape = self._shape_of[launch.uid]
        cached = self._best_duration_cache.get(shape)
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
                factor = self._proc_counts(launch.size, distribute, pk)[1]
                if best_m is None or factor < best_m:
                    best_m = factor
        result = (best_d or 0.0, best_m or 0)
        self._best_duration_cache[shape] = result
        return result

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
                    counts, factor = self._proc_counts(
                        launch.size, decision.distribute, decision.proc_kind
                    )
                    if not partial:
                        for proc_uid, assigned in counts:
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

    def _traffic(self, mapping: Mapping) -> Tuple[
        float, Optional[Tuple[str, str]], int, Optional[str], float
    ]:
        """The mapping's mandatory traffic, priced as evidence; returns
        ``(communication, edge, edge_bytes, channel, channel_share)``.

        Tallies the bytes of every copy in the engine's root programs
        on each channel the copy crosses.  The executor serialises each
        channel's copies on one timeline, so the busiest channel's bytes
        over its DMA bandwidth are mandatory busy time.
        """
        #: (channel, root, consumer kind) -> bytes, and channel -> bytes.
        tally: Dict[Tuple[str, str, str], int] = {}
        chan_bytes: Dict[str, int] = {}
        total = 0
        for kind_name, root, channels, nbytes in self.engine.copies(mapping):
            total += nbytes
            for chan in channels:
                chan_bytes[chan] = chan_bytes.get(chan, 0) + nbytes
                entry = (chan, root, kind_name)
                tally[entry] = tally.get(entry, 0) + nbytes

        communication = 0.0
        channel: Optional[str] = None
        for chan in sorted(chan_bytes):
            value = chan_bytes[chan] / self._dma_bandwidth[chan] * FLOAT_SAFETY
            if value > communication:
                communication = value
                channel = chan
        if channel is None:
            return 0.0, None, 0, None, 0.0
        edge: Optional[Tuple[str, str]] = None
        top_bytes = 0
        for (chan, root, kind), nbytes in sorted(tally.items()):
            if chan == channel and nbytes > top_bytes:
                top_bytes = nbytes
                edge = (kind, root)
        return communication, edge, top_bytes, channel, chan_bytes[channel] / total

    def _schedule(self, mapping: Mapping) -> float:
        """The engine's makespan for ``mapping``, deflated once."""
        return self.engine.run(mapping).makespan * FLOAT_SAFETY

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def breakdown(self, mapping: Mapping) -> BoundBreakdown:
        """Component-wise lower bound for ``mapping``, with the traffic
        evidence; :meth:`lower_bound` is its ``total``.

        A mapping covering every task kind of the graph gets every
        component; a partial mapping gets the critical path only, with
        undecided kinds priced at their cheapest legal option.  The
        ``schedule`` term of a full mapping is one simulation (an engine
        run), so this serves analysis only (``repro analyze``'s
        diagnostics), never the tune path.
        """
        key = mapping.key()
        cached = self._breakdown_cache.get(key)
        if cached is not None:
            return cached
        partial = self._is_partial(mapping)
        cp, load = self._chain_components(mapping, partial)
        if partial:
            result = BoundBreakdown(
                critical_path=cp, load=0.0, communication=0.0
            )
        else:
            # The schedule's engine run compiles (or hits) every root
            # program the traffic tally then reads.
            schedule = self._schedule(mapping)
            comm, edge, nbytes, channel, share = self._traffic(mapping)
            result = BoundBreakdown(
                critical_path=cp,
                load=load,
                communication=comm,
                comm_edge=edge,
                comm_edge_bytes=nbytes,
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
        """Sound lower bound on ``Simulator.run(mapping).makespan``:
        ``breakdown(mapping).total``, i.e. :meth:`quick_bound` raised to
        the schedule component for a full mapping.

        The schedule term is one simulation (an engine run), so this is
        for analysis only (AM401's dominance check); a tune never calls
        it, because every engine run a tune makes is a counted
        simulation."""
        return self.breakdown(mapping).total

    def _quick(self, mapping: Mapping) -> Tuple[bool, float]:
        """``(partial, quick bound)`` for ``mapping``, cached per key."""
        key = mapping.key()
        cached = self._quick_cache.get(key)
        if cached is None:
            partial = self._is_partial(mapping)
            cp, load = self._chain_components(mapping, partial)
            cached = (partial, cp if partial else max(cp, load))
            self._quick_cache[key] = cached
        return cached

    def quick_bound(self, mapping: Mapping) -> float:
        """Cheap sound lower bound: critical path and load only, no
        engine run.

        The only bound a tune reads: the oracle prunes on it, and the
        bound-guided start and best-bound-first move ranking order by
        it, where only the relative ranking matters and a sound but
        loose value cannot change correctness.  :meth:`lower_bound`
        takes its max over the same floats, so ``quick_bound(m) <=
        lower_bound(m)`` holds exactly.
        """
        return self._quick(mapping)[1]

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
            # Traffic above zero has a busiest channel and a heaviest
            # edge on it.
            kind, root = bd.comm_edge
            found.append(
                Diagnostic(
                    rule_id="AM402",
                    message=(
                        f"mandatory traffic over {bd.comm_channel} "
                        f"({bd.communication:.6g}s) dominates compute "
                        f"({max(bd.critical_path, bd.load):.6g}s); "
                        f"heaviest edge: {kind} reading collection root "
                        f"{root!r} ({bd.comm_edge_bytes} bytes)"
                    ),
                    span=Span(kind=kind, collection=root),
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
                    candidate = space.placement_move(
                        mapping, kind_name, proc_kind, slot_index, mem_kind
                    )
                    bound = analyzer.quick_bound(candidate)
                    if bound < best:
                        mapping, best = candidate, bound
    from repro.mapping.validate import MappingError, validate

    try:
        validate(space.graph, analyzer.machine, mapping)
    except MappingError:  # pragma: no cover - defensive fallback
        return space.default_mapping()
    return mapping

