#!/usr/bin/env python3
"""Mapping a user-defined application with the public API.

Shows the pieces a downstream user touches: declare collections and task
kinds with :class:`~repro.taskgraph.GraphBuilder`, launch a main loop,
and hand the graph to :class:`~repro.core.AutoMapSession`.  The example
application is a small particle-in-cell-style loop: a field solve on a
grid, a particle push reading the field with halos, and a deposit phase
scattering back — a shape where the best mapping is genuinely non-obvious
because the deposit kind vectorises poorly on GPUs.

Usage::

    python examples/custom_application.py
"""

from repro.core import AutoMapSession, OracleConfig, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig
from repro.taskgraph import ArgSlot, GraphBuilder, Privilege, ShardPattern
from repro.util.units import MIB
from repro.viz import render_mapping


def build_pic_graph(iterations: int = 3, parts: int = 4):
    """A miniature particle-in-cell loop."""
    b = GraphBuilder("pic")
    field = b.collection("field", nbytes=96 * MIB)
    charge = b.collection("charge", nbytes=96 * MIB)
    particles = b.collection("particles", nbytes=256 * MIB)
    params = b.collection("params", nbytes=4096)

    halo = 2 * MIB
    field_solve = b.task_kind(
        "field_solve",
        slots=[
            ArgSlot("charge", Privilege.READ, ShardPattern.BLOCK_HALO, halo),
            ArgSlot("field", Privilege.WRITE),
        ],
        gpu_speedup=1.0,
    )
    particle_push = b.task_kind(
        "particle_push",
        slots=[
            ArgSlot("particles", Privilege.READ_WRITE),
            ArgSlot("field", Privilege.READ, ShardPattern.BLOCK_HALO, halo),
            ArgSlot("params", Privilege.READ, ShardPattern.REPLICATED),
        ],
        gpu_speedup=0.9,
    )
    charge_deposit = b.task_kind(
        "charge_deposit",
        slots=[
            ArgSlot("particles", Privilege.READ),
            ArgSlot("charge", Privilege.READ_WRITE,
                    ShardPattern.BLOCK_HALO, halo),
        ],
        gpu_speedup=0.35,  # scatter-dominated
    )

    for _ in range(iterations):
        b.launch(field_solve, [charge, field], size=parts, flops=6e9)
        b.launch(
            particle_push, [particles, field, params], size=parts, flops=2e10
        )
        b.launch(charge_deposit, [particles, charge], size=parts, flops=4e9)
    return b.build()


def main() -> None:
    machine = shepard(1)
    graph = build_pic_graph()
    print(graph.describe())
    print()

    session = AutoMapSession(
        graph,
        machine,
        algorithm="ccd",
        oracle_config=OracleConfig(max_suggestions=8000),
        sim_config=SimConfig(noise_sigma=0.04, seed=0, spill=True),
    )
    t_default = TuningEngine().measure(
        session.prepared, session.prepared.space.default_mapping()
    )
    report = session.tune()

    print(report.describe())
    print()
    print(
        f"default {t_default * 1e3:.2f} ms -> AutoMap "
        f"{report.best_mean * 1e3:.2f} ms "
        f"({t_default / report.best_mean:.2f}x)"
    )
    print()
    print(render_mapping(graph, report.best_mapping, title="Best mapping"))


if __name__ == "__main__":
    main()
