#!/usr/bin/env python3
"""Visualise discovered mappings (paper Figures 2 and 3).

Tunes HTR on 1 node and renders the best mapping next to the default,
with per-argument relative-size bars like the paper's Figure 3, plus a
compact diff of what AutoMap changed.

Usage::

    python examples/visualize_mapping.py [--input 16x16y18z]
"""

import argparse
import re

from repro.apps import HTRApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig
from repro.viz import render_mapping, render_mapping_diff


def parse_input(label: str):
    match = re.fullmatch(r"(\d+)x(\d+)y(\d+)z", label)
    if not match:
        raise SystemExit(f"bad HTR input label: {label!r}")
    return tuple(int(g) for g in match.groups())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", default="16x16y18z")
    args = parser.parse_args()
    x, y, z = parse_input(args.input)

    machine = shepard(1)
    app = HTRApp(x, y, z)
    graph = app.graph(machine)

    engine = TuningEngine()
    prepared = engine.prepare(
        TuneRequest(
            graph,
            machine,
            algorithm="ccd",
            oracle_config=OracleConfig(max_suggestions=8000),
            sim_config=SimConfig(noise_sigma=0.04, seed=0, spill=True),
        )
    )
    default = prepared.space.default_mapping()
    t_default = engine.measure(prepared, default)
    report = engine.run(prepared)

    print(
        render_mapping(
            graph,
            report.best_mapping,
            title=f"AutoMap mapping for HTR {args.input} "
            f"({t_default / report.best_mean:.2f}x over default)",
        )
    )
    print()
    print("Changes vs the default mapping:")
    print(render_mapping_diff(graph, default, report.best_mapping))


if __name__ == "__main__":
    main()
