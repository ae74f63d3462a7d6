"""The machine graph: processors, memories, access links, and channels.

This is the data structure the paper formalises in §2: "We model a machine
M as a graph where the nodes are processors and memories. ... An edge
between a processor p and a memory m indicates that m is addressable by p,
and an edge between two memories indicates that there is a communication
channel between the two memories."

Concrete devices carry the physical parameters the simulator needs:
compute throughput and per-task launch overhead for processors, capacity
for memories, and bandwidth/latency for access links and channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.machine.kinds import ADDRESSABLE, MemKind, ProcKind
from repro.util.units import format_bytes

__all__ = ["Processor", "Memory", "AccessLink", "Channel", "Machine"]


@dataclass(frozen=True)
class Processor:
    """A concrete processor (one CPU core or one GPU).

    Attributes
    ----------
    uid:
        Globally unique id, e.g. ``"n0.cpu3"``.
    kind:
        The processor kind.
    node:
        Index of the machine node hosting this processor.
    socket:
        CPU socket index (``None`` for GPUs).
    device:
        GPU device index on its node (``None`` for CPUs).
    throughput:
        Effective compute throughput in FLOP/s for this single processor.
    launch_overhead:
        Fixed per-task cost (seconds) of launching work here; models
        runtime dispatch plus (for GPUs) kernel-launch latency.
    """

    uid: str
    kind: ProcKind
    node: int
    socket: Optional[int] = None
    device: Optional[int] = None
    throughput: float = 1e10
    launch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError(f"{self.uid}: throughput must be positive")
        if self.launch_overhead < 0:
            raise ValueError(f"{self.uid}: launch_overhead must be >= 0")


@dataclass(frozen=True)
class Memory:
    """A concrete memory (one System allocation, Zero-Copy pool, or GPU
    frame buffer).

    Attributes
    ----------
    uid:
        Globally unique id, e.g. ``"n0.fb0"``.
    kind:
        The memory kind.
    node:
        Index of the machine node hosting this memory.
    socket / device:
        Locality within the node (socket for System memory, GPU device
        for frame buffers; ``None`` otherwise).
    capacity:
        Capacity in bytes.
    """

    uid: str
    kind: MemKind
    node: int
    socket: Optional[int] = None
    device: Optional[int] = None
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"{self.uid}: capacity must be >= 0")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.uid}({self.kind}, {format_bytes(self.capacity)})"


@dataclass(frozen=True)
class AccessLink:
    """A processor→memory "addressable by" edge with its access parameters.

    ``bandwidth`` is the sustained bandwidth (bytes/s) the processor sees
    when streaming from/to the memory; ``latency`` the per-access-stream
    startup time in seconds.
    """

    proc: str
    mem: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"{self.proc}->{self.mem}: bandwidth must be > 0")
        if self.latency < 0:
            raise ValueError(f"{self.proc}->{self.mem}: latency must be >= 0")


@dataclass(frozen=True)
class Channel:
    """A memory↔memory communication channel (bidirectional).

    Copies routed over the channel cost ``latency + bytes / bandwidth``
    and serialise on the channel in the event simulation.
    """

    mem_a: str
    mem_b: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(
                f"{self.mem_a}<->{self.mem_b}: bandwidth must be > 0"
            )
        if self.latency < 0:
            raise ValueError(
                f"{self.mem_a}<->{self.mem_b}: latency must be >= 0"
            )

    def endpoints(self) -> Tuple[str, str]:
        return (self.mem_a, self.mem_b)


@dataclass
class Machine:
    """The machine graph M.

    Construction validates global invariants: unique ids, access links and
    channels referencing known devices, and access links consistent with
    the kind-level addressability relation.

    The class offers the kind- and locality-queries that both the search
    (kind level) and the runtime simulator (concrete level) need; heavier
    memoised queries (copy paths) live in
    :class:`repro.machine.topology.Topology`.
    """

    name: str
    processors: List[Processor] = field(default_factory=list)
    memories: List[Memory] = field(default_factory=list)
    access_links: List[AccessLink] = field(default_factory=list)
    channels: List[Channel] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._procs_by_uid: Dict[str, Processor] = {}
        self._mems_by_uid: Dict[str, Memory] = {}
        for proc in self.processors:
            if proc.uid in self._procs_by_uid:
                raise ValueError(f"duplicate processor uid {proc.uid!r}")
            self._procs_by_uid[proc.uid] = proc
        for mem in self.memories:
            if mem.uid in self._mems_by_uid or mem.uid in self._procs_by_uid:
                raise ValueError(f"duplicate device uid {mem.uid!r}")
            self._mems_by_uid[mem.uid] = mem

        self._access: Dict[Tuple[str, str], AccessLink] = {}
        for link in self.access_links:
            proc = self._procs_by_uid.get(link.proc)
            mem = self._mems_by_uid.get(link.mem)
            if proc is None:
                raise ValueError(f"access link references unknown proc {link.proc!r}")
            if mem is None:
                raise ValueError(f"access link references unknown mem {link.mem!r}")
            if (proc.kind, mem.kind) not in ADDRESSABLE:
                raise ValueError(
                    f"access link {link.proc}->{link.mem} violates "
                    f"kind addressability ({proc.kind} -> {mem.kind})"
                )
            self._access[(link.proc, link.mem)] = link

        self._channels: Dict[Tuple[str, str], Channel] = {}
        for chan in self.channels:
            for end in chan.endpoints():
                if end not in self._mems_by_uid:
                    raise ValueError(f"channel references unknown memory {end!r}")
            key = tuple(sorted(chan.endpoints()))
            if key in self._channels:
                raise ValueError(f"duplicate channel {key}")
            self._channels[key] = chan

        self._nodes = sorted(
            {p.node for p in self.processors} | {m.node for m in self.memories}
        )
        if self._nodes != list(range(len(self._nodes))):
            raise ValueError("node indices must be contiguous from 0")

    # ------------------------------------------------------------------
    # Basic lookups
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of machine nodes."""
        return len(self._nodes)

    def processor(self, uid: str) -> Processor:
        """Look up a processor by uid (raises ``KeyError`` if unknown)."""
        return self._procs_by_uid[uid]

    def memory(self, uid: str) -> Memory:
        """Look up a memory by uid (raises ``KeyError`` if unknown)."""
        return self._mems_by_uid[uid]

    def proc_kinds(self) -> Tuple[ProcKind, ...]:
        """Processor kinds present on this machine, in enum order."""
        present = {p.kind for p in self.processors}
        return tuple(pk for pk in ProcKind if pk in present)

    def mem_kinds(self) -> Tuple[MemKind, ...]:
        """Memory kinds present on this machine, in enum order."""
        present = {m.kind for m in self.memories}
        return tuple(mk for mk in MemKind if mk in present)

    def mem_kinds_for(self, proc_kind: ProcKind) -> Tuple[MemKind, ...]:
        """Memory kinds present on this machine and addressable by
        ``proc_kind``, fastest first."""
        present = set(self.mem_kinds())
        from repro.machine.kinds import addressable_mem_kinds

        return tuple(
            mk for mk in addressable_mem_kinds(proc_kind) if mk in present
        )

    # ------------------------------------------------------------------
    # Locality queries
    # ------------------------------------------------------------------
    def processors_of_kind(
        self, kind: ProcKind, node: Optional[int] = None
    ) -> List[Processor]:
        """Processors of ``kind`` (optionally restricted to ``node``),
        in a deterministic order."""
        return [
            p
            for p in self.processors
            if p.kind == kind and (node is None or p.node == node)
        ]

    def memories_of_kind(
        self, kind: MemKind, node: Optional[int] = None
    ) -> List[Memory]:
        """Memories of ``kind`` (optionally restricted to ``node``)."""
        return [
            m
            for m in self.memories
            if m.kind == kind and (node is None or m.node == node)
        ]

    def access_link(self, proc_uid: str, mem_uid: str) -> Optional[AccessLink]:
        """The access link between a processor and a memory, if any."""
        return self._access.get((proc_uid, mem_uid))

    def accessible_memories(self, proc_uid: str) -> List[Memory]:
        """All memories addressable by the given processor."""
        return [
            self._mems_by_uid[mem]
            for (proc, mem) in self._access
            if proc == proc_uid
        ]

    def closest_memory(
        self, proc: Processor, kind: MemKind
    ) -> Optional[Memory]:
        """The concrete memory of ``kind`` "closest" to ``proc``.

        Closest means: same device (frame buffer of the task's own GPU),
        else same socket, else same node.  Returns ``None`` when ``proc``
        cannot address any memory of that kind — a kind-level
        addressability violation the mapping validator rejects earlier.
        """
        candidates = [
            mem
            for mem in self.memories_of_kind(kind, node=proc.node)
            if (proc.uid, mem.uid) in self._access
        ]
        if not candidates:
            return None

        def rank(mem: Memory) -> Tuple[int, str]:
            if mem.device is not None and mem.device == proc.device:
                return (0, mem.uid)
            if mem.socket is not None and mem.socket == proc.socket:
                return (1, mem.uid)
            return (2, mem.uid)

        return min(candidates, key=rank)

    def channel(self, mem_a: str, mem_b: str) -> Optional[Channel]:
        """The channel between two memories, if one exists."""
        return self._channels.get(tuple(sorted((mem_a, mem_b))))

    # ------------------------------------------------------------------
    def total_capacity(self, kind: MemKind) -> int:
        """Total capacity (bytes) over all memories of ``kind``."""
        return sum(m.capacity for m in self.memories_of_kind(kind))

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A multi-line human-readable summary of the machine."""
        lines = [f"Machine {self.name!r}: {self.num_nodes} node(s)"]
        for node in range(self.num_nodes):
            cpus = self.processors_of_kind(ProcKind.CPU, node)
            gpus = self.processors_of_kind(ProcKind.GPU, node)
            lines.append(
                f"  node {node}: {len(cpus)} CPU processor(s), {len(gpus)} GPU(s)"
            )
            for mem in sorted(
                (m for m in self.memories if m.node == node),
                key=lambda m: m.uid,
            ):
                lines.append(f"    {mem}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine(name={self.name!r}, nodes={self.num_nodes}, "
            f"procs={len(self.processors)}, mems={len(self.memories)})"
        )


def validate_same_shape(machines: Iterable[Machine]) -> None:
    """Check that machines share kind inventory (useful in tests comparing
    clusters)."""
    shapes = {
        (m.proc_kinds(), m.mem_kinds()) for m in machines
    }
    if len(shapes) > 1:
        raise ValueError(f"machines differ in kind inventory: {shapes}")
