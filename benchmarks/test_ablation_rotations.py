"""Ablation: CCD rotation count (§5, experimental setup).

The paper fixes five rotations: "More rotations increased the search
time without improving performance, and fewer rotations made CCD perform
similarly to CD."  This ablation sweeps the rotation count on Pennant
320x90 and checks both halves of that statement.
"""

from __future__ import annotations


from benchmarks.conftest import register_result
from benchmarks._common import MAX_SUGGESTIONS, SEED
from repro.apps import PennantApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig
from repro.search import ConstrainedCoordinateDescent
from repro.viz import Table

ROTATIONS = {"quick": [1, 2, 3, 5, 8], "full": [1, 2, 3, 4, 5, 6, 8, 10]}


def test_ablation_rotations(benchmark, scale):
    table = Table(
        ["rotations", "best (ms)", "suggested", "search time (s)"],
        float_format="{:.2f}",
    )
    results = {}

    def sweep():
        app = PennantApp(320, 90)
        machine = shepard(1)
        graph = app.graph(machine)
        for rotations in ROTATIONS[scale]:
            request = TuneRequest(
                graph,
                machine,
                algorithm=ConstrainedCoordinateDescent(rotations=rotations),
                oracle_config=OracleConfig(
                    max_suggestions=MAX_SUGGESTIONS[scale]
                ),
                sim_config=SimConfig(noise_sigma=0.04, seed=SEED, spill=True),
            )
            report = TuningEngine().tune(request)
            results[rotations] = report
            table.add_row(
                [
                    rotations,
                    report.best_mean * 1e3,
                    report.suggested,
                    report.search_seconds,
                ]
            )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    register_result(
        "ablation_rotations",
        table.render(title="Ablation — CCD rotation count (Pennant 320x90)"),
    )

    best = {r: rep.best_mean for r, rep in results.items()}
    times = {r: rep.search_seconds for r, rep in results.items()}
    # More rotations => more search time.
    assert times[max(best)] > times[min(best)]
    # Quality saturates: 5 rotations within a few percent of the best
    # achieved by any rotation count.
    assert best[5] <= min(best.values()) * 1.05
    # Extra rotations beyond 5 buy little (the paper's "without
    # improving performance").
    most = max(r for r in best if r > 5)
    assert best[most] >= best[5] * 0.93
