#!/usr/bin/env python3
"""Compare search algorithms on one application (paper §5.3, Figure 9).

Runs CCD, CD, and the OpenTuner-style ensemble on the same Pennant input
with the same budget and prints the best-mapping trajectory of each —
the series Figure 9 plots — plus the §5.3 efficiency statistics
(mappings suggested vs evaluated, fraction of search time evaluating).

Usage::

    python examples/search_comparison.py [--zx 320 --zy 90]
"""

import argparse

from repro.apps import PennantApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig
from repro.viz import Table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zx", type=int, default=320)
    parser.add_argument("--zy", type=int, default=90)
    args = parser.parse_args()

    machine = shepard(1)
    app = PennantApp(args.zx, args.zy)
    graph = app.graph(machine)
    print(f"{graph.name}: search space ~2^{app.space(machine).log2_size():.0f}")

    stats = Table(
        ["algorithm", "best (ms)", "suggested", "evaluated", "eval frac"],
        float_format="{:.3g}",
    )
    traces = {}
    for algo in ("ccd", "cd", "opentuner"):
        request = TuneRequest(
            graph,
            machine,
            algorithm=algo,
            oracle_config=OracleConfig(max_suggestions=20_000),
            sim_config=SimConfig(noise_sigma=0.04, seed=0, spill=True),
        )
        report = TuningEngine().tune(request)
        traces[algo] = report.search.trace
        stats.add_row(
            [
                algo,
                report.best_mean * 1e3,
                report.suggested,
                report.evaluated,
                report.evaluation_fraction,
            ]
        )

    print()
    print(stats.render(title="Search algorithm comparison (§5.3)"))
    print()
    print("Best-so-far trajectories (Figure 9 series):")
    for algo, trace in traces.items():
        points = trace[:: max(1, len(trace) // 8)]
        series = ", ".join(
            f"({p.elapsed:.0f}s: {p.best_performance * 1e3:.1f}ms)"
            for p in points
        )
        print(f"  {algo:<10} {series}")


if __name__ == "__main__":
    main()
