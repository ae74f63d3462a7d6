"""Pass 6 — static workload observational equivalence (AM6xx).

Two submitted workloads (task graph, machine, semantic search config,
fixed decisions, start mapping) are *observationally equivalent* when no
run of the tuner can distinguish them: every simulation either workload
could ever trigger returns the same floats in the same order, so the
final report — and the entire trace — is byte-identical.  Proving that
statically lets the mapping service answer a provably-equivalent
resubmission from the result cache with **zero** simulations.

The prover is deliberately one-sided: it either *proves* equivalence
through a pipeline of individually-sound lemmas, or reports the precise
witness that blocks the proof.  "Can't prove" never means "different" —
it means the service must run the tune.  The lemmas:

1. **Capacity slack** (AM601).  :func:`footprint_bounds` computes, per
   concrete memory, the exact static upper bound ``U(m)`` on the bytes
   *any* reachable mapping can ever place there: the union — over every
   option of every reachable search coordinate (fixed kinds contribute
   only their pinned decision) — of the per-option interval
   contributions of :class:`repro.analysis.memfeas
   .StaticMemoryFeasibility`.  Footprints grow by union and the planner
   compares totals against capacity, so two capacities that are equal,
   or that are both ``>= U(m)``, yield identical feasibility verdicts,
   spill decisions, and simulations for every reachable mapping.

2. **Unused-resource slack** (AM602).  :func:`touchable_resources`
   over-approximates what reachable mappings can touch: processor kinds
   from the space's (unpruned) dimensions plus fixed decisions, all
   concrete processors of those kinds (the placer round-robins over the
   whole pool), the closest memories those processors can be handed
   (including every spill-demotion target in ``mem_kinds_for``), and the
   channels on routed paths between touchable memories.  Parameters of
   resources *outside* that set are unobservable — with one deliberate
   subtlety: channel parameters feed the weighted route choice of
   :mod:`repro.machine.topology` (its routing contract), so the prover
   never reasons "unused channel, therefore immaterial" from parameters
   alone.  Instead it compares the two machines' *route tables*
   hop-for-hop over all touchable memory pairs; an unused channel whose
   parameter change flipped a route shows up there and blocks the
   proof.

3. **Relabeling** (AM603).  Names are pure metadata: the simulator
   keys noise off the mapping key (task-kind names only) and nothing
   else reads ``machine.name`` or ``graph.name`` except the final
   report's ``application`` / ``machine`` fields.  Workloads equal
   modulo a name change are therefore equivalent *modulo a pullback*
   recorded in the proof: rewrite those report fields before serving.
   Verified kind automorphisms (:class:`repro.analysis.symmetry
   .MachineSymmetry`) are surfaced as AM603 self-equivalence
   diagnostics; because capacity slack can create or destroy
   automorphisms (memory pairing requires capacity equality) and the
   canonicalizer folds orbits using them, the prover additionally
   requires the two workloads' automorphism *groups* to be equal.

Soundness notes the lemmas rest on (all re-checked by the "equivalence"
fuzz invariant, which bit-compares fresh noise-free tunes):

* ``quick_bound`` (move ordering) reads critical-path and load terms
  from throughput/launch overhead and ``typical_access_bandwidth`` of
  *touchable* kinds only — and ``typical_access_bandwidth`` maxes over
  all links of a kind shape, which is why access-link parameters must
  be equal for every link whose processor kind is touchable, not just
  for links of touchable concrete processors.
* The full routed bound feeds only pruning, which is report-invariant
  by the PR 5 contract (strictly fewer simulations, identical result).
* ``kind_runtimes`` (finalist ordering) simulates the canonical default
  mapping — covered by touchable-parameter equality plus the capacity
  lemma (its OOM fallback triggers identically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.analysis.memfeas import StaticMemoryFeasibility
from repro.analysis.routing import RoutingModel, channel_key
from repro.analysis.symmetry import MachineSymmetry
from repro.machine.kinds import ProcKind
from repro.machine.topology import Topology
from repro.util.serialization import to_jsonable
from repro.util.units import format_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import Machine
    from repro.mapping.space import SearchSpace
    from repro.taskgraph.graph import TaskGraph

__all__ = [
    "TouchableResources",
    "Workload",
    "EquivalenceProof",
    "footprint_bounds",
    "touchable_resources",
    "graph_body_doc",
    "diagnose_equivalence",
    "prove_equivalent",
    "pullback_result_doc",
]


# ----------------------------------------------------------------------
# Lemma 1: exact static footprint upper bounds
# ----------------------------------------------------------------------
def footprint_bounds(
    graph: "TaskGraph",
    machine: "Machine",
    space: Optional["SearchSpace"] = None,
) -> Dict[str, int]:
    """Per-memory upper bound ``U(m)`` on any reachable mapping's
    footprint, in bytes (0 for memories nothing can reach).

    Exact in the sense that it is the footprint of the (hypothetical)
    mapping that picks *every* option at once: the per-``(memory,
    root)`` interval union over all options of all reachable
    coordinates.  Any real mapping picks a subset of those options, and
    footprint unions are monotone, so its planner-checked total per
    memory is ``<= U(m)``; equally, each single option's own
    contribution is ``<= U(m)``, so capacities at or above ``U`` also
    freeze the AM101 dead-coordinate and AM102 verdicts.

    Options the placer rejects with ``ValueError`` (an unaddressable
    memory kind) are unreachable — legalization repairs or validity
    rejects them before any simulation — and are skipped.
    """
    if space is None:
        from repro.mapping.space import SearchSpace

        space = SearchSpace(graph, machine)
    feas = StaticMemoryFeasibility(graph, machine)
    fixed = space.fixed_decisions
    per_mem_root: Dict[Tuple[str, str], object] = {}
    for kind in graph.task_kinds:
        dims = space.dims(kind.name)
        decision = fixed.get(kind.name)
        if decision is not None:
            options = [
                (
                    decision.distribute,
                    decision.proc_kind,
                    slot,
                    decision.mem_kinds[slot],
                )
                for slot in range(dims.num_slots)
            ]
        else:
            options = [
                (dist, proc, slot, mem)
                for dist in dims.distribute_options
                for proc in dims.proc_options
                for slot in range(dims.num_slots)
                for mem in dims.mem_options[proc]
            ]
        for dist, proc, slot, mem in options:
            try:
                contrib = feas.slot_contribution(
                    kind.name, dist, proc, slot, mem
                )
            except ValueError:
                continue
            for key, ivs in contrib.items():
                current = per_mem_root.get(key)
                per_mem_root[key] = (
                    ivs if current is None else current.union(ivs)
                )
    bounds: Dict[str, int] = {mem.uid: 0 for mem in machine.memories}
    for (mem_uid, _root), ivs in per_mem_root.items():
        bounds[mem_uid] = bounds.get(mem_uid, 0) + ivs.total
    return bounds


# ----------------------------------------------------------------------
# Lemma 2: what reachable mappings can touch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TouchableResources:
    """Over-approximation of the resources any reachable mapping (or
    its spill demotions) can observe."""

    proc_kinds: FrozenSet[ProcKind]
    proc_uids: FrozenSet[str]
    mem_uids: FrozenSet[str]
    channel_keys: FrozenSet[str]


def touchable_resources(
    graph: "TaskGraph",
    machine: "Machine",
    space: Optional["SearchSpace"] = None,
) -> TouchableResources:
    """The touchable-resource set of one workload.

    Computed from the *unpruned* dimensions (a superset of anything
    move enumeration will ever propose — pruning only shrinks), plus
    fixed decisions.  Memories include every ``closest_memory`` target
    over all addressable memory kinds of each touchable processor, so
    spill-planner demotions stay inside the set.  Channels are the hops
    of the topology's chosen routes between touchable memory pairs.
    """
    if space is None:
        from repro.mapping.space import SearchSpace

        space = SearchSpace(graph, machine)
    kinds = set()
    fixed = space.fixed_decisions
    for kind in graph.task_kinds:
        decision = fixed.get(kind.name)
        if decision is not None:
            kinds.add(decision.proc_kind)
        else:
            kinds.update(space.dims(kind.name).proc_options)
    procs = [p for p in machine.processors if p.kind in kinds]
    mems = set()
    for proc in procs:
        for mk in machine.mem_kinds_for(proc.kind):
            mem = machine.closest_memory(proc, mk)
            if mem is not None:
                mems.add(mem.uid)
    model = RoutingModel(machine)
    chans = set()
    ordered = sorted(mems)
    for src in ordered:
        for dst in ordered:
            if src == dst:
                continue
            route = model.route(src, dst)
            if route:
                chans.update(route)
    return TouchableResources(
        proc_kinds=frozenset(kinds),
        proc_uids=frozenset(p.uid for p in procs),
        mem_uids=frozenset(mems),
        channel_keys=frozenset(chans),
    )


# ----------------------------------------------------------------------
# AM6xx diagnostics
# ----------------------------------------------------------------------
def diagnose_equivalence(
    graph: "TaskGraph",
    machine: "Machine",
    space: Optional["SearchSpace"] = None,
) -> List[Diagnostic]:
    """AM601/AM602/AM603 findings for one workload."""
    if space is None:
        from repro.mapping.space import SearchSpace

        space = SearchSpace(graph, machine)
    out: List[Diagnostic] = []
    bounds = footprint_bounds(graph, machine, space)
    touch = touchable_resources(graph, machine, space)
    for mem in machine.memories:
        bound = bounds.get(mem.uid, 0)
        if mem.uid in touch.mem_uids and mem.capacity > bound:
            out.append(
                Diagnostic(
                    "AM601",
                    f"capacity {format_bytes(mem.capacity)} exceeds the "
                    f"reachable footprint bound {format_bytes(bound)}; "
                    f"any capacity >= the bound is unobservable",
                    Span(memory=mem.uid),
                )
            )
    for pk in machine.proc_kinds():
        if pk not in touch.proc_kinds:
            out.append(
                Diagnostic(
                    "AM602",
                    f"processor kind {pk.value} is unreachable: no "
                    f"searched or fixed decision can place work on it",
                )
            )
    for mem in machine.memories:
        if mem.uid not in touch.mem_uids:
            out.append(
                Diagnostic(
                    "AM602",
                    "memory is unreachable: no reachable placement or "
                    "spill demotion maps a collection here",
                    Span(memory=mem.uid),
                )
            )
    for chan in machine.channels:
        if channel_key(chan.mem_a, chan.mem_b) not in touch.channel_keys:
            out.append(
                Diagnostic(
                    "AM602",
                    f"channel {chan.mem_a}<->{chan.mem_b} lies on no "
                    f"route between reachable memories",
                )
            )
    for rel in MachineSymmetry(graph, machine).automorphisms():
        out.append(
            Diagnostic(
                "AM603",
                f"machine is self-equivalent modulo the verified "
                f"relabeling [{rel.describe()}]",
            )
        )
    return out


# ----------------------------------------------------------------------
# The prover
# ----------------------------------------------------------------------
def graph_body_doc(graph: "TaskGraph") -> dict:
    """The graph's structural identity *without* its name (names are
    report metadata handled by the relabel lemma)."""
    return {
        "launches": [to_jsonable(launch) for launch in graph.launches],
        "dependences": [to_jsonable(dep) for dep in graph.dependences],
    }


@dataclass
class Workload:
    """One canonicalized workload as the prover sees it."""

    graph: "TaskGraph"
    machine: "Machine"
    config: Dict[str, object]
    start_doc: Optional[dict] = None
    space: Optional["SearchSpace"] = None

    def __post_init__(self) -> None:
        if self.space is None:
            from repro.mapping.space import SearchSpace

            self.space = SearchSpace(self.graph, self.machine)


@dataclass
class EquivalenceProof:
    """Outcome of :func:`prove_equivalent`.

    ``equivalent`` with an empty ``relabel`` means byte-identical
    service is sound as-is; a non-empty ``relabel`` maps result-document
    fields (``application`` / ``machine``) to the values the cached
    report must be rewritten to before serving.  When not equivalent,
    ``witness`` names the first blocking obligation.
    """

    equivalent: bool
    log: List[str] = field(default_factory=list)
    witness: Optional[str] = None
    relabel: Dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        lines = list(self.log)
        if self.equivalent:
            lines.append("verdict: equivalent")
        else:
            lines.append(f"verdict: not proven ({self.witness})")
        return "\n".join(lines)

    def to_doc(self) -> dict:
        return {
            "format": "automap-equivalence-proof-v1",
            "equivalent": self.equivalent,
            "witness": self.witness,
            "relabel": dict(self.relabel),
            "log": list(self.log),
        }


def _automorphism_group(graph: "TaskGraph", machine: "Machine"):
    """The verified automorphism group as a hashable set (the
    relabelings' dict fields are unhashable)."""
    return {
        (
            tuple(sorted((k.value, v.value) for k, v in rel.proc_map.items())),
            tuple(sorted((k.value, v.value) for k, v in rel.mem_map.items())),
        )
        for rel in MachineSymmetry(graph, machine).automorphisms()
    }


def _dims_doc(space: "SearchSpace") -> dict:
    out = {}
    for kind in space.graph.task_kinds:
        dims = space.dims(kind.name)
        out[kind.name] = {
            "slots": list(dims.slot_names),
            "distribute": list(dims.distribute_options),
            "procs": [p.value for p in dims.proc_options],
            "mems": {
                p.value: [m.value for m in mems]
                for p, mems in dims.mem_options.items()
            },
        }
    return out


def prove_equivalent(w1: Workload, w2: Workload) -> EquivalenceProof:
    """Prove ``w1`` and ``w2`` observationally equivalent, or report the
    blocking witness.  Sound, not complete: an ``equivalent`` verdict
    guarantees byte-identical tuner output (after the recorded name
    pullback); any doubt returns a witness instead.
    """
    log: List[str] = []
    relabel: Dict[str, str] = {}

    def blocked(witness: str) -> EquivalenceProof:
        return EquivalenceProof(False, log, witness=witness)

    # Obligation 0: identical semantic search configuration.
    c1, c2 = dict(w1.config), dict(w2.config)
    if c1 != c2:
        keys = sorted(
            k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k)
        )
        return blocked(f"search config differs on {', '.join(keys)}")
    log.append("config: semantic search knobs equal")

    # Obligation 1: identical fixed decisions.
    if to_jsonable(w1.space.fixed_decisions) != to_jsonable(
        w2.space.fixed_decisions
    ):
        return blocked("fixed decisions differ")
    log.append("space: fixed decisions equal")

    # Obligation 2: graphs equal modulo name (name is report metadata;
    # noise streams key off task-kind names, which live in the body).
    if graph_body_doc(w1.graph) != graph_body_doc(w2.graph):
        return blocked("task graphs differ structurally")
    if w1.graph.name != w2.graph.name:
        relabel["application"] = w2.graph.name
        log.append(
            f"graph: equal modulo name "
            f"{w1.graph.name!r} -> {w2.graph.name!r} (pullback recorded)"
        )
    else:
        log.append("graph: identical")

    # Obligation 3: identical canonicalized start mappings.
    def canonical_start(w: Workload) -> Optional[dict]:
        if w.start_doc is None:
            return None
        from repro.analysis.canonical import Canonicalizer
        from repro.mapping.io import mapping_from_doc, mapping_to_doc

        canon = Canonicalizer(w.graph, w.machine)
        return mapping_to_doc(canon.canonical(mapping_from_doc(w.start_doc)))

    if to_jsonable(canonical_start(w1)) != to_jsonable(canonical_start(w2)):
        return blocked("canonicalized start mappings differ")
    log.append("start: canonical representatives equal")

    # Obligation 4: identical searched dimensions (defense in depth —
    # equal machines below imply it, but the check is cheap and local).
    if _dims_doc(w1.space) != _dims_doc(w2.space):
        return blocked("search dimensions differ")

    m1, m2 = w1.machine, w2.machine
    touch = touchable_resources(w1.graph, m1, w1.space)
    bounds = footprint_bounds(w1.graph, m1, w1.space)

    # Obligation 5: processors pair index-wise; parameters equal for
    # touchable kinds (typical_access_bandwidth and quick_bound read
    # kind-level aggregates, so every processor of a touchable kind is
    # observable, pooled or not).
    if len(m1.processors) != len(m2.processors):
        return blocked("processor inventories differ in size")
    slack_procs: List[str] = []
    for a, b in zip(m1.processors, m2.processors):
        if (a.uid, a.kind, a.node, a.socket, a.device) != (
            b.uid,
            b.kind,
            b.node,
            b.socket,
            b.device,
        ):
            return blocked(f"processor {a.uid} structure differs")
        same = (
            a.throughput == b.throughput
            and a.launch_overhead == b.launch_overhead
        )
        if a.kind in touch.proc_kinds:
            if not same:
                return blocked(
                    f"reachable processor {a.uid} ({a.kind.value}) "
                    f"differs in throughput or launch overhead"
                )
        elif not same:
            slack_procs.append(a.uid)
    if slack_procs:
        log.append(
            f"procs: AM602 slack on unreachable "
            f"{', '.join(slack_procs)}; all reachable kinds equal"
        )
    else:
        log.append("procs: parameters equal")

    # Obligation 6: memories pair index-wise; capacities equal, or both
    # at/above the footprint bound (lemma AM601).
    if len(m1.memories) != len(m2.memories):
        return blocked("memory inventories differ in size")
    for a, b in zip(m1.memories, m2.memories):
        if (a.uid, a.kind, a.node, a.socket, a.device) != (
            b.uid,
            b.kind,
            b.node,
            b.socket,
            b.device,
        ):
            return blocked(f"memory {a.uid} structure differs")
        if a.capacity == b.capacity:
            continue
        bound = bounds.get(a.uid, 0)
        if a.capacity < bound or b.capacity < bound:
            return blocked(
                f"memory {a.uid} capacities "
                f"{format_bytes(a.capacity)} vs {format_bytes(b.capacity)} "
                f"differ below the footprint bound {format_bytes(bound)}"
            )
        log.append(
            f"mem {a.uid}: AM601 slack — capacities "
            f"{format_bytes(a.capacity)} vs {format_bytes(b.capacity)} "
            f"both >= footprint bound {format_bytes(bound)}"
        )

    # Obligation 7: access links — same edge set; parameters equal for
    # every link whose processor kind is touchable.
    links1 = {(li.proc, li.mem): li for li in m1.access_links}
    links2 = {(li.proc, li.mem): li for li in m2.access_links}
    if set(links1) != set(links2):
        return blocked("access-link sets differ")
    slack_links: List[str] = []
    for key in links1:
        la, lb = links1[key], links2[key]
        same = la.bandwidth == lb.bandwidth and la.latency == lb.latency
        if m1.processor(la.proc).kind in touch.proc_kinds:
            if not same:
                return blocked(
                    f"access link {la.proc}->{la.mem} (reachable kind) "
                    f"differs in bandwidth or latency"
                )
        elif not same:
            slack_links.append(f"{la.proc}->{la.mem}")
    if slack_links:
        log.append(
            f"links: AM602 slack on {', '.join(sorted(slack_links))}"
        )
    else:
        log.append("links: parameters equal")

    # Obligation 8: channels — same edge set; parameters equal for
    # channels on touchable routes (untouchable ones may differ only if
    # obligation 9's route tables still agree).
    chans1 = {channel_key(c.mem_a, c.mem_b): c for c in m1.channels}
    chans2 = {channel_key(c.mem_a, c.mem_b): c for c in m2.channels}
    if set(chans1) != set(chans2):
        return blocked("channel sets differ")
    slack_chans: List[str] = []
    for key in chans1:
        ca, cb = chans1[key], chans2[key]
        same = ca.bandwidth == cb.bandwidth and ca.latency == cb.latency
        if key in touch.channel_keys:
            if not same:
                return blocked(
                    f"channel {ca.mem_a}<->{ca.mem_b} lies on a "
                    f"reachable route and differs in bandwidth or latency"
                )
        elif not same:
            slack_chans.append(f"{ca.mem_a}<->{ca.mem_b}")
    if slack_chans:
        log.append(
            f"channels: AM602 slack on {', '.join(sorted(slack_chans))}"
        )
    else:
        log.append("channels: parameters equal")

    # Obligation 9: route tables agree hop-for-hop over every touchable
    # memory pair.  Channel parameters weight the route search's path
    # choice, so even an unused channel's slack must not have flipped a
    # route.
    topo1 = Topology.of(m1)
    topo2 = Topology.of(m2)
    ordered = sorted(touch.mem_uids)
    for src in ordered:
        for dst in ordered:
            if src == dst:
                continue
            p1 = topo1.copy_path(src, dst)
            p2 = topo2.copy_path(src, dst)
            if (p1 is None) != (p2 is None):
                return blocked(
                    f"route {src}->{dst} exists on only one machine"
                )
            if p1 is None:
                continue
            h1 = [
                (tuple(sorted((h.mem_a, h.mem_b))), h.bandwidth, h.latency)
                for h in p1.hops
            ]
            h2 = [
                (tuple(sorted((h.mem_a, h.mem_b))), h.bandwidth, h.latency)
                for h in p2.hops
            ]
            if h1 != h2:
                return blocked(f"route {src}->{dst} differs between machines")
    log.append(
        f"routes: {len(ordered)}x{len(ordered) - 1} touchable-pair "
        f"route tables identical hop-for-hop"
    )

    # Obligation 10: equal automorphism groups — capacity/parameter
    # slack can create or destroy foldable relabelings, and the
    # canonicalizer folds orbits using them.
    if _automorphism_group(w1.graph, m1) != _automorphism_group(
        w2.graph, m2
    ):
        return blocked(
            "machine-symmetry automorphism groups differ "
            "(slack changed the foldable relabelings)"
        )
    log.append("symmetry: automorphism groups equal")

    # Obligation 11: machine name (pure report metadata).
    if m1.name != m2.name:
        relabel["machine"] = m2.name
        log.append(
            f"machine: equal modulo name "
            f"{m1.name!r} -> {m2.name!r} (pullback recorded)"
        )
    else:
        log.append("machine: identical")

    return EquivalenceProof(True, log, relabel=relabel)


def pullback_result_doc(
    doc: dict, proof: EquivalenceProof, fingerprint: str
) -> dict:
    """Rewrite a cached result document for an equivalent workload: the
    new fingerprint plus the proof's recorded name relabelings.  These
    are the only result fields derived from names; everything else is
    byte-identical by the proof."""
    out = dict(doc)
    out["fingerprint"] = fingerprint
    for fieldname, value in proof.relabel.items():
        out[fieldname] = value
    return out
