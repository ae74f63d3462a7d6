#!/usr/bin/env python3
"""Quickstart: tune the Stencil benchmark on one Shepard-like node.

Runs AutoMap's full pipeline end to end:

1. build the application's task graph for the target machine;
2. profile it once to produce the search-space file (written to
   ``./automap_quickstart/``);
3. search with constrained coordinate-wise descent (CCD);
4. re-measure the top mappings and report the winner against the default
   and hand-written baselines.

Takes a few seconds.  Usage::

    python examples/quickstart.py
"""

from repro.apps import StencilApp
from repro.core import AutoMapSession, OracleConfig, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig
from repro.viz import render_mapping_diff


def main() -> None:
    machine = shepard(1)
    app = StencilApp(nx=1000, ny=1000)
    graph = app.graph(machine)

    print(f"Application: {graph.name}")
    print(graph.describe())
    print()
    print(machine.describe())
    print()

    session = AutoMapSession(
        graph,
        machine,
        algorithm="ccd",
        workdir="automap_quickstart",
        oracle_config=OracleConfig(max_suggestions=10_000),
        sim_config=SimConfig(noise_sigma=0.04, seed=0, spill=True),
    )

    # Baselines are measured on the session's own simulator, with the
    # same protocol as the tuner's final step.
    engine = TuningEngine()
    default = session.prepared.space.default_mapping()
    t_default = engine.measure(session.prepared, default)
    custom = app.custom_mapping(machine)
    t_custom = engine.measure(session.prepared, custom)

    report = session.tune()

    print(report.describe())
    print()
    print(f"default mapper : {t_default * 1e3:8.3f} ms per run")
    print(f"custom mapper  : {t_custom * 1e3:8.3f} ms per run")
    print(f"AutoMap (CCD)  : {report.best_mean * 1e3:8.3f} ms per run")
    print(f"speedup over default: {t_default / report.best_mean:.2f}x")
    print()
    print("What AutoMap changed relative to the default mapping:")
    print(render_mapping_diff(graph, default, report.best_mapping))


if __name__ == "__main__":
    main()
