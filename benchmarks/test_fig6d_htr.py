"""Figure 6d: HTR — Custom and AM-CCD speedup over the default mapper,
weak-scaled grids across Shepard node counts.

Paper shape: AM-CCD up to ~1.5x on the smallest grids — "the biggest
AutoMap gains are because of placing tasks on the CPU and the data on
Zero-Copy" — declining to ~1.0 at the largest; the custom mapper sits
slightly above 1.0 at small grids and at/below 1.0 at large ones.
"""

from __future__ import annotations


from benchmarks.conftest import register_result
from benchmarks._common import ENGINE, fig6_inputs, fig6_node_counts, prepare
from repro.apps import HTRApp
from repro.machine import shepard
from repro.machine.kinds import MemKind, ProcKind
from repro.viz import Table

#: 1-node ladder (paper: 8x8y9z .. 128x128y144z); multi-node panels
#: double the y extent per node doubling, like Figure 6d's labels.
BASE_GRIDS = [
    (8, 8, 9),
    (16, 16, 18),
    (32, 32, 36),
    (64, 64, 72),
    (128, 128, 144),
]


def panel_inputs(nodes: int):
    return [(x, y * nodes, z) for (x, y, z) in BASE_GRIDS]


def test_fig6d_htr(benchmark, scale):
    table = Table(
        ["nodes", "input", "custom x", "AM-CCD x", "cpu kinds", "zc slots"],
        float_format="{:.2f}",
    )
    points = []

    def sweep():
        for nodes in fig6_node_counts(scale):
            machine = shepard(nodes)
            for x, y, z in fig6_inputs(panel_inputs(nodes), scale):
                app = HTRApp(x, y, z)
                prepared = prepare(app, machine, scale=scale)
                default_mean = ENGINE.measure(
                    prepared, prepared.space.default_mapping()
                )
                custom_mean = ENGINE.measure(
                    prepared, app.custom_mapping(machine)
                )
                report = ENGINE.run(prepared)
                best = report.best_mapping
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
        "fig6d_htr",
        table.render(
            title="Figure 6d — HTR speedup over DefaultMapper (Shepard)"
        ),
    )

    one_node = [p for p in points if p[0] == 1]
    assert all(p[3] > 0.95 for p in points)
    # Big win at the smallest grid via CPU + Zero-Copy placements.
    assert one_node[0][3] > 1.4
    assert one_node[0][4] > 0 or one_node[0][5] > 0
    # Shrinks toward 1.0 at the largest grid.
    assert one_node[-1][3] < 1.25
    # Custom mapper close to 1.0.
    assert all(0.85 < p[2] < 1.25 for p in points)
