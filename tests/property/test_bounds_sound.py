"""The bound soundness contract: ``LB(mapping) <= simulated makespan``.

This is the property every other use of :mod:`repro.analysis.bounds`
rests on — bound-based search pruning is result-preserving *only*
because the lower bound never exceeds what the simulator would have
measured.  The sweep here covers every bundled application on both
machine models, and on a cluster with a GPU-less node, with randomly
drawn valid mappings, always pricing the mapping the simulator actually
executed (spill demotions applied), and tolerates zero violations.

A second property pins the bound's direction: upgrading the machine
(faster processors, fatter links, lower latencies and overheads) can
only lower the bound for the same mapping.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis.bounds import FLOAT_SAFETY, StaticBoundAnalyzer
from repro.apps import make_app
from repro.machine import lassen, shepard
from repro.machine.builders import HELIX_T4_NODE, heterogeneous_cluster
from repro.machine.model import Machine
from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.runtime.simulator import SimConfig, Simulator

#: Small inputs so the full sweep stays a few seconds per case
#: (mirrors benchmarks/smoke.py).
APP_INPUTS = {
    "circuit": {"nodes": 200, "wires": 800},
    "stencil": {"nx": 200, "ny": 200},
    "pennant": {"zx": 64, "zy": 36},
    "htr": {"x": 8, "y": 8, "z": 9},
    "maestro": {"lf_count": 4, "lf_res": 16},
}

MACHINES = {
    "shepard": lambda: shepard(2),
    "lassen": lambda: lassen(2),
    # The second node has no GPU: distributed GPU launches stay on node 0.
    "gpuless-node": lambda: heterogeneous_cluster(
        "hetero", [HELIX_T4_NODE, replace(HELIX_T4_NODE, gpus=0)]
    ),
}

MAPPINGS_PER_CASE = 8


def _upgrade(machine: Machine, speedup: float) -> Machine:
    """The same machine with every rate scaled up and every fixed cost
    scaled down by ``speedup``."""
    return Machine(
        name=f"{machine.name}-x{speedup:g}",
        processors=[
            replace(
                p,
                throughput=p.throughput * speedup,
                launch_overhead=p.launch_overhead / speedup,
            )
            for p in machine.processors
        ],
        memories=list(machine.memories),
        access_links=[
            replace(
                link,
                bandwidth=link.bandwidth * speedup,
                latency=link.latency / speedup,
            )
            for link in machine.access_links
        ],
        channels=[
            replace(
                chan,
                bandwidth=chan.bandwidth * speedup,
                latency=chan.latency / speedup,
            )
            for chan in machine.channels
        ],
    )


def _mappings(space: SearchSpace, seed: int = 20240917):
    rng = random.Random(seed)
    yield space.default_mapping()
    for _ in range(MAPPINGS_PER_CASE):
        yield space.random_mapping(rng, valid=True)


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("app_name", sorted(APP_INPUTS))
def test_lower_bound_never_exceeds_makespan(app_name, machine_name):
    machine = MACHINES[machine_name]()
    graph = make_app(app_name, **APP_INPUTS[app_name]).graph(machine)
    space = SearchSpace(graph, machine)
    simulator = Simulator(
        graph, machine, SimConfig(noise_sigma=0.0, spill=True)
    )
    analyzer = StaticBoundAnalyzer(graph, machine)
    checked = 0
    for mapping in _mappings(space):
        result = simulator.run(mapping)
        bd = analyzer.breakdown(result.executed_mapping)
        lb = bd.total
        assert lb <= result.makespan, (
            f"{app_name}/{machine_name}: LB {lb!r} exceeds simulated "
            f"makespan {result.makespan!r} for {mapping.key()}"
        )
        assert lb > 0.0
        # Per-component soundness: every component is itself a lower
        # bound.
        assert bd.communication <= result.makespan
        assert bd.schedule <= result.makespan
        # The schedule component is the simulated makespan, deflated
        # once; the traffic evidence never exceeds it, and the pruning
        # bound is the breakdown's total.
        assert bd.schedule == result.makespan * FLOAT_SAFETY
        assert bd.communication <= bd.schedule
        assert analyzer.lower_bound(result.executed_mapping) == bd.total
        checked += 1
    assert checked == MAPPINGS_PER_CASE + 1


@pytest.mark.parametrize("app_name", ["stencil", "maestro"])
def test_lower_bound_monotone_under_machine_upgrade(app_name):
    base = shepard(2)
    graph = make_app(app_name, **APP_INPUTS[app_name]).graph(base)
    space = SearchSpace(graph, base)
    analyzer = StaticBoundAnalyzer(graph, base)
    upgrades = [
        StaticBoundAnalyzer(graph, _upgrade(base, k)) for k in (2.0, 8.0)
    ]
    for mapping in _mappings(space):
        bound = analyzer.lower_bound(mapping)
        previous = bound
        for upgraded in upgrades:
            faster = upgraded.lower_bound(mapping)
            assert faster <= previous, (
                f"{app_name}: bound rose from {previous!r} to {faster!r} "
                "on an upgraded machine"
            )
            previous = faster


def test_partial_mapping_bound_is_sound():
    """A mapping that omits kinds still yields a positive bound no
    larger than the full mapping's bound (fewer constraints can only
    loosen a lower bound)."""
    machine = shepard(2)
    graph = make_app("stencil", **APP_INPUTS["stencil"]).graph(machine)
    space = SearchSpace(graph, machine)
    analyzer = StaticBoundAnalyzer(graph, machine)
    full = space.default_mapping()
    kinds = full.kind_names()
    partial = Mapping(
        {k: full.decision(k) for k in kinds[: max(1, len(kinds) // 2)]}
    )
    lb_partial = analyzer.lower_bound(partial)
    lb_full = analyzer.lower_bound(full)
    assert 0.0 < lb_partial <= lb_full
