"""Route golden: every ordered memory pair's copy path, pinned.

Route choice is an output: reports, traces, the symmetry proofs and the
equivalence prover's route-table obligation all depend on which of
several equal-weight channel paths the router picks.  The golden in
``tests/data/route_golden.json`` was generated with the networkx-backed
router (``networkx.shortest_path``, networkx 3.6.1) that preceded the
stdlib search in :mod:`repro.machine.topology`, so this test holds the
port to that router's choice on every pair.

Per machine the golden stores the sha256 of a canonical listing: per
ordered pair, each hop's endpoints with its bandwidth and latency as
``float.hex()``, then the path's bandwidth and latency, plus one line
for ``connected()``.  For ``shepard(4)`` and ``lassen(4)``, which have
many tied pairs, it also stores every pair's full memory-uid path, so
a tie-break regression reads as a diff of paths.

Regenerate (only on purpose, after a deliberate routing change)::

    PYTHONPATH=src python -m tests.test_route_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.machine import MACHINE_ZOO, Machine, Topology

GOLDEN = Path(__file__).parent / "data" / "route_golden.json"

#: (label, builder, size): shepard 1/2/4/16, lassen 1/2/4 and every
#: zoo builder at 1/2/4/24, each distinct build once.
_SIZES: Dict[str, List[int]] = {"shepard": [1, 2, 4, 16], "lassen": [1, 2, 4]}
for _name in MACHINE_ZOO:
    _sizes = _SIZES.setdefault(_name, [])
    _sizes += [n for n in (1, 2, 4, 24) if n not in _sizes]
BUILDS: List[Tuple[str, Callable[[int], Machine], int]] = [
    (f"{name}({size})", MACHINE_ZOO[name], size)
    for name, sizes in _SIZES.items()
    for size in sizes
]

#: Machines whose full per-pair memory paths the golden spells out.
SPELLED = ("shepard(4)", "lassen(4)")


def _hex(value: float) -> str:
    return float(value).hex()


def route_listing(machine: Machine) -> str:
    """The canonical text of a machine's whole route table."""
    topology = Topology(machine)
    mems = [mem.uid for mem in machine.memories]
    lines = [f"connected {topology.connected()}"]
    for src in mems:
        for dst in mems:
            path = topology.copy_path(src, dst)
            if path is None:
                lines.append(f"{src} {dst} none")
                continue
            hops = " ".join(
                f"{hop.mem_a}-{hop.mem_b}/{_hex(hop.bandwidth)}/"
                f"{_hex(hop.latency)}"
                for hop in path.hops
            )
            lines.append(
                f"{src} {dst} [{hops}] {_hex(path.bandwidth)} "
                f"{_hex(path.latency)}"
            )
    return "\n".join(lines) + "\n"


def memory_paths(machine: Machine) -> Dict[str, str]:
    """``"src dst"`` -> the memory uids a copy visits, space-separated,
    for every ordered pair of distinct memories."""
    topology = Topology(machine)
    mems = [mem.uid for mem in machine.memories]
    out: Dict[str, str] = {}
    for src in mems:
        for dst in mems:
            if src == dst:
                continue
            path = topology.copy_path(src, dst)
            if path is None:
                out[f"{src} {dst}"] = "none"
                continue
            uids = [src]
            for hop in path.hops:
                uids.append(hop.mem_b if hop.mem_a == uids[-1] else hop.mem_a)
            out[f"{src} {dst}"] = " ".join(uids)
    return out


def build_golden() -> dict:
    machines = {}
    for label, builder, size in BUILDS:
        machine = builder(size)
        listing = route_listing(machine)
        machines[label] = {
            "pairs": len(machine.memories) ** 2,
            "sha256": hashlib.sha256(listing.encode("utf-8")).hexdigest(),
        }
    paths = {}
    for label, builder, size in BUILDS:
        if label in SPELLED:
            paths[label] = memory_paths(builder(size))
    return {"machines": machines, "paths": paths}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_build(golden):
    assert list(golden["machines"]) == [label for label, _b, _s in BUILDS]
    assert sorted(golden["paths"]) == sorted(SPELLED)


@pytest.mark.parametrize(
    "label,builder,size", BUILDS, ids=[label for label, _b, _s in BUILDS]
)
def test_route_table_matches_golden(golden, label, builder, size):
    machine = builder(size)
    expected = golden["machines"][label]
    assert len(machine.memories) ** 2 == expected["pairs"]
    listing = route_listing(machine)
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == (
        expected["sha256"]
    )


@pytest.mark.parametrize("label", SPELLED)
def test_tied_pairs_take_the_golden_path(golden, label):
    builder, size = {lab: (b, s) for lab, b, s in BUILDS}[label]
    assert memory_paths(builder(size)) == golden["paths"][label]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
