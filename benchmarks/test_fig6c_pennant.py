"""Figure 6c: Pennant — Custom and AM-CCD speedup over the default
mapper, weak-scaled meshes across Shepard node counts.

Paper shape: AM-CCD's biggest wins come on small meshes from *mixed*
mappings (up to 26 of the 31 task kinds on the CPU, several collection
arguments in Zero-Copy), shrinking toward ~1.0 as the mesh grows and the
GPU takes over; the custom mapper stays near 1.0 (0.92-1.05).
"""

from __future__ import annotations


from benchmarks.conftest import register_result
from benchmarks._common import ENGINE, fig6_inputs, fig6_node_counts, prepare
from repro.apps import PennantApp
from repro.machine import shepard
from repro.machine.kinds import ProcKind
from repro.viz import Table

#: The paper's 1-node ladder: 320x90 .. 320x5760 (zy doubles), shifted
#: upward per node count like Figure 6c.
ZY_LADDER = [90, 180, 360, 720, 1440, 2880, 5760, 11520, 23040, 46080]


def panel_inputs(nodes: int):
    shift = {1: 0, 2: 1, 4: 2, 8: 3}[nodes]
    return ZY_LADDER[shift : shift + 7]


def test_fig6c_pennant(benchmark, scale):
    table = Table(
        ["nodes", "input", "custom x", "AM-CCD x", "cpu kinds", "zc slots"],
        float_format="{:.2f}",
    )
    points = []

    def sweep():
        for nodes in fig6_node_counts(scale):
            machine = shepard(nodes)
            for zy in fig6_inputs(panel_inputs(nodes), scale):
                app = PennantApp(320, zy)
                prepared = prepare(app, machine, scale=scale)
                default_mean = ENGINE.measure(
                    prepared, prepared.space.default_mapping()
                )
                custom_mean = ENGINE.measure(
                    prepared, app.custom_mapping(machine)
                )
                report = ENGINE.run(prepared)
                best = report.best_mapping
                from repro.machine.kinds import MemKind

                point = (
                    nodes,
                    app.input_label(),
                    default_mean / custom_mean,
                    default_mean / report.best_mean,
                    best.count_proc(ProcKind.CPU),
                    best.count_mem(MemKind.ZERO_COPY),
                )
                points.append(point)
                table.add_row(list(point))
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    register_result(
        "fig6c_pennant",
        table.render(
            title="Figure 6c — Pennant speedup over DefaultMapper (Shepard)"
        ),
    )

    one_node = [p for p in points if p[0] == 1]
    # AM-CCD >= default everywhere; declining with size on one node.
    assert all(p[3] > 0.95 for p in points)
    assert one_node[0][3] > 1.3
    assert one_node[-1][3] < one_node[0][3]
    # Custom mapper near 1.0 (paper 0.92-1.08).
    assert all(0.85 < p[2] < 1.2 for p in points)
    # The small-input winner is a mixed mapping with many CPU kinds.
    assert one_node[0][4] >= 10
