"""Figure 7: Maestro multi-fidelity ensemble CFD (§5.1).

For a grid of (LF sample count × LF resolution) configurations, measures
the slowdown of the high-fidelity simulation (vs HF running alone) under
the two standard strategies — all LF work on CPUs + System memory, all
LF work on GPUs + Zero-Copy — and under the mapping AutoMap discovers
when minimising the HF finish time.

Paper shape: values near 1.0 at light LF loads; "the simple strategies
are not always optimal" — which strategy wins depends on the (count,
resolution) point; AutoMap matches or beats both everywhere.
"""

from __future__ import annotations


from benchmarks.conftest import register_result
from benchmarks._common import ENGINE, prepare
from repro.apps import MaestroApp
from repro.machine import lassen
from repro.runtime import SimConfig, Simulator
from repro.viz import Table

LF_COUNTS = {"quick": [8, 32], "full": [8, 16, 32, 64]}
LF_RES = {"quick": [16, 64], "full": [16, 32, 64]}
NODES = {"quick": [1], "full": [1, 2]}
HF_RES = 256


def hf_alone_seconds(app: MaestroApp, machine) -> float:
    alone = app.hf_alone()
    sim = Simulator(
        alone.graph(machine), machine, SimConfig(noise_sigma=0, spill=True)
    )
    report = sim.run(alone.space(machine).default_mapping()).report
    return MaestroApp.hf_metric(report)


def test_fig7_maestro(benchmark, scale):
    table = Table(
        ["nodes", "LF count", "LF res", "CPU+Sys", "GPU+ZC", "AutoMap"],
        float_format="{:.3f}",
    )
    rows = []

    def sweep():
        for nodes in NODES[scale]:
            machine = lassen(nodes)
            for lf_count in LF_COUNTS[scale]:
                for lf_res in LF_RES[scale]:
                    app = MaestroApp(
                        lf_count=lf_count, lf_res=lf_res, hf_res=HF_RES
                    )
                    base = hf_alone_seconds(app, machine)
                    prepared = prepare(
                        app, machine, scale=scale,
                        metric=MaestroApp.hf_metric,
                    )
                    cpu = MaestroApp.hf_metric(
                        prepared.simulator.run(
                            app.strategy_cpu_system(machine)
                        ).report
                    ) / base
                    gpu = MaestroApp.hf_metric(
                        prepared.simulator.run(
                            app.strategy_gpu_zero_copy(machine)
                        ).report
                    ) / base
                    report = ENGINE.run(prepared)
                    am = report.best_mean / base
                    rows.append((nodes, lf_count, lf_res, cpu, gpu, am))
                    table.add_row([nodes, lf_count, lf_res, cpu, gpu, am])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    register_result(
        "fig7_maestro",
        table.render(
            title="Figure 7 — Maestro HF slowdown vs HF alone "
            "(1.0 = unaffected)"
        ),
    )

    # Shape: AutoMap <= both standard strategies at every point.
    for nodes, lf_count, lf_res, cpu, gpu, am in rows:
        assert am <= min(cpu, gpu) * 1.05, (lf_count, lf_res)
    # Shape: strategy preference flips across the grid (the "non-trivial
    # decisions" of §5.1): no single strategy dominates every point.
    prefers_cpu = [r for r in rows if r[3] < r[4]]
    prefers_gpu = [r for r in rows if r[4] < r[3]]
    assert prefers_cpu and prefers_gpu
    # Shape: the lightest configuration barely disturbs HF.
    lightest = min(rows, key=lambda r: r[1] * r[2] ** 3)
    assert lightest[5] < 1.35
