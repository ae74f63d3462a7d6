"""Machine model (paper §2).

A machine is a graph whose nodes are *processors* and *memories*.  Each
processor has a kind (CPU or GPU here), each memory has a kind and a
capacity in bytes.  Edges are of two types: processor→memory edges mean
"addressable by" (with an access bandwidth/latency), and memory→memory
edges are communication channels.

The public surface:

- :class:`~repro.machine.kinds.ProcKind`, :class:`~repro.machine.kinds.MemKind`
  — the kind enums the factored search space ranges over;
- :class:`~repro.machine.model.Machine` — the machine graph;
- :mod:`~repro.machine.builders` — ready-made models of the paper's two
  clusters (``shepard``, ``lassen``) plus generic builders;
- :class:`~repro.machine.topology.Topology` — the route table: the
  repository's own shortest-path routing of copies between memories,
  shared per machine object (:meth:`Topology.of`) by the runtime
  simulator and the static analyses, plus reachability queries.
"""

from repro.machine.kinds import ProcKind, MemKind
from repro.machine.model import (
    AccessLink,
    Channel,
    Machine,
    Memory,
    Processor,
)
from repro.machine.builders import (
    MACHINE_ZOO,
    NodeSpec,
    generic_cluster,
    helix,
    heterogeneous_cluster,
    lassen,
    lopsided_node,
    mirrored_node,
    shepard,
    single_node,
)
from repro.machine.topology import Topology

__all__ = [
    "ProcKind",
    "MemKind",
    "Processor",
    "Memory",
    "AccessLink",
    "Channel",
    "Machine",
    "NodeSpec",
    "shepard",
    "lassen",
    "helix",
    "mirrored_node",
    "lopsided_node",
    "generic_cluster",
    "heterogeneous_cluster",
    "single_node",
    "MACHINE_ZOO",
    "Topology",
]
