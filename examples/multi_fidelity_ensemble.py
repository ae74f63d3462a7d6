#!/usr/bin/env python3
"""Multi-fidelity ensemble CFD mapping (paper §5.1, Figure 7).

Maestro runs one expensive high-fidelity (HF) CFD sample alongside many
cheap low-fidelity (LF) samples.  The HF mapping is fixed; the goal is
to place the LF ensemble so the HF simulation is disturbed as little as
possible.  This example compares the two standard strategies (all-LF on
CPUs + System memory; all-LF on GPUs + Zero-Copy) with what AutoMap
finds when minimising the HF finish time.

Usage::

    python examples/multi_fidelity_ensemble.py [--lf-count 16] [--lf-res 32]
"""

import argparse

from repro.apps import MaestroApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import lassen
from repro.runtime import SimConfig, Simulator
from repro.viz import Table


def hf_slowdown(sim, mapping, hf_alone_seconds):
    report = sim.run(mapping).report
    return MaestroApp.hf_metric(report) / hf_alone_seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lf-count", type=int, default=16)
    parser.add_argument("--lf-res", type=int, default=32)
    parser.add_argument("--hf-res", type=int, default=192)
    args = parser.parse_args()

    machine = lassen(1)
    app = MaestroApp(
        lf_count=args.lf_count, lf_res=args.lf_res, hf_res=args.hf_res
    )
    sim_config = SimConfig(noise_sigma=0.04, seed=0, spill=True)

    # HF-alone reference: the 1.0 line of Figure 7.
    alone = app.hf_alone()
    sim_alone = Simulator(alone.graph(machine), machine, sim_config)
    hf_alone = MaestroApp.hf_metric(
        sim_alone.run(alone.space(machine).default_mapping()).report
    )
    print(
        f"HF alone ({args.hf_res}^3 on {machine.name}): {hf_alone:.4f} s "
        "per window"
    )

    graph = app.graph(machine)
    engine = TuningEngine()
    prepared = engine.prepare(
        TuneRequest(
            graph,
            machine,
            algorithm="ccd",
            oracle_config=OracleConfig(
                metric=MaestroApp.hf_metric, max_suggestions=8000
            ),
            sim_config=sim_config,
            space=app.space(machine),
        )
    )

    table = Table(["strategy", "HF slowdown"])
    table.add_row(
        [
            "LF on CPU + System",
            hf_slowdown(
                prepared.simulator, app.strategy_cpu_system(machine), hf_alone
            ),
        ]
    )
    table.add_row(
        [
            "LF on GPU + Zero-Copy",
            hf_slowdown(
                prepared.simulator,
                app.strategy_gpu_zero_copy(machine),
                hf_alone,
            ),
        ]
    )
    report = engine.run(prepared)
    table.add_row(["AutoMap", report.best_mean / hf_alone])
    print()
    print(
        table.render(
            title=f"{args.lf_count} LF samples at {args.lf_res}^3 "
            "(1.0 = HF unaffected)"
        )
    )
    print()
    print("AutoMap's LF placement:")
    for kind in sorted(report.best_mapping.kind_names()):
        print(f"  {kind}: {report.best_mapping.decision(kind)}")


if __name__ == "__main__":
    main()
