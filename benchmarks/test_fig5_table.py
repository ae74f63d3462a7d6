"""Figure 5 (table): benchmark-application inventory.

Regenerates the paper's description table — tasks, collection arguments,
search-space size, and CCD search time — from the application
implementations.  Paper values for reference: Circuit 3/15/~2^18,
Stencil 2/12/~2^14, Pennant 31/97/~2^128, HTR 28/72/~2^100, Maestro
13 (only LFs)/30/~2^43.

The benchmarked operation is the CCD search on the smallest Circuit
input (the table's "search time" column is measured, scaled down to the
quick input).
"""

from __future__ import annotations


from benchmarks.conftest import register_result
from benchmarks._common import ENGINE, prepare
from repro.apps import CircuitApp, HTRApp, MaestroApp, PennantApp, StencilApp
from repro.machine import shepard
from repro.viz import Table

PAPER_ROWS = {
    "circuit": (3, 15, 18),
    "stencil": (2, 12, 14),
    "pennant": (31, 97, 128),
    "htr": (28, 72, 100),
    "maestro": (13, 30, 43),
}


def build_table():
    machine = shepard(1)
    apps = [
        CircuitApp(),
        StencilApp(),
        PennantApp(),
        HTRApp(),
        MaestroApp(),
    ]
    table = Table(
        [
            "Application",
            "Tasks",
            "Collection Args",
            "Search Space (ours)",
            "Search Space (paper)",
        ]
    )
    rows = {}
    for app in apps:
        space = app.space(machine)
        rows[app.name] = (
            app.num_tasks(),
            app.num_collection_arguments(),
            space.log2_size(),
        )
        table.add_row(
            [
                app.name,
                app.num_tasks(),
                app.num_collection_arguments(),
                f"~2^{space.log2_size():.0f}",
                f"~2^{PAPER_ROWS[app.name][2]}",
            ]
        )
    return table, rows


def test_fig5_inventory_table(benchmark):
    table, rows = build_table()
    register_result(
        "fig5_table",
        table.render(title="Figure 5 — application inventory"),
    )

    # Shape assertions: counts match the paper exactly; sizes same order.
    for name, (tasks, args, log2) in rows.items():
        p_tasks, p_args, p_log2 = PAPER_ROWS[name]
        assert tasks == p_tasks, name
        assert args == p_args, name
        assert abs(log2 - p_log2) <= max(8, 0.25 * p_log2), name

    # The measured column: one CCD search on the smallest Circuit input.
    def ccd_search():
        return ENGINE.run(prepare(CircuitApp(50, 200), shepard(1)))

    report = benchmark.pedantic(ccd_search, rounds=1, iterations=1)
    assert report.best_mapping is not None
