"""Shared runners for the benchmark harness.

All benchmarks measure the same protocol the paper describes in §5:
candidate mappings are averaged over 7 noisy runs during the search, the
top-5 mappings are re-measured 31 times, and baselines (default mapper,
custom mapper, fixed strategies) are measured with the final protocol.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.apps.base import App
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.core.engine import PreparedTune
from repro.machine.model import Machine
from repro.runtime import SimConfig

#: The stateless engine every benchmark tunes through.
ENGINE = TuningEngine()

#: One fixed seed per harness run keeps every figure reproducible.
SEED = 2023

#: Suggestion cap for generic tuners (the paper's OpenTuner runs suggest
#: ~157k mappings; quick mode uses a smaller but same-regime cap).
MAX_SUGGESTIONS = {"quick": 20_000, "full": 160_000}


def bench_checkpoint_kwargs(label: str) -> dict:
    """Checkpointing knobs for long benchmark sweeps.

    Set ``REPRO_BENCH_CHECKPOINT_DIR=/path`` to checkpoint each tuning
    run to ``<dir>/<label>.checkpoint.json`` (atomically replaced) every
    ``REPRO_BENCH_CHECKPOINT_EVERY`` evaluations (default 200), so a
    killed full-scale figure run loses at most one checkpoint interval.
    Checkpointing never changes results — it only snapshots state."""
    directory = os.environ.get("REPRO_BENCH_CHECKPOINT_DIR")
    if not directory:
        return {}
    every = int(os.environ.get("REPRO_BENCH_CHECKPOINT_EVERY", "200"))
    safe = label.replace("/", "-").replace(" ", "_")
    return {
        "checkpoint_path": os.path.join(
            directory, f"{safe}.checkpoint.json"
        ),
        "checkpoint_every": every,
    }


@dataclass
class PanelPoint:
    """One x-axis point of a Figure 6-style panel."""

    label: str
    default_mean: float
    custom_speedup: float
    automap_speedup: float


def prepare(
    app: App,
    machine: Machine,
    algorithm: str = "ccd",
    scale: str = "quick",
    metric=None,
    spill: bool = True,
    seed: int = SEED,
) -> PreparedTune:
    """One benchmark tune, prepared on :data:`ENGINE`: measure baselines
    with ``ENGINE.measure`` and search with ``ENGINE.run``."""
    label = f"{app.name}-{app.input_label()}-{machine.name}-{algorithm}"
    return ENGINE.prepare(
        TuneRequest(
            app.graph(machine),
            machine,
            algorithm=algorithm,
            oracle_config=OracleConfig(
                max_suggestions=MAX_SUGGESTIONS[scale],
                metric=metric,
            ),
            sim_config=SimConfig(noise_sigma=0.04, seed=seed, spill=spill),
            space=app.space(machine),
            **bench_checkpoint_kwargs(label),
        )
    )


def run_panel_point(
    app: App, machine: Machine, scale: str = "quick"
) -> PanelPoint:
    """Measure default / custom / AutoMap for one (app, input, machine)
    point, exactly as Figure 6 plots them (speedups over the default
    mapper)."""
    prepared = prepare(app, machine, scale=scale)
    default_mean = ENGINE.measure(prepared, prepared.space.default_mapping())
    custom_mean = ENGINE.measure(prepared, app.custom_mapping(machine))
    report = ENGINE.run(prepared)
    return PanelPoint(
        label=app.input_label(),
        default_mean=default_mean,
        custom_speedup=default_mean / custom_mean,
        automap_speedup=default_mean / report.best_mean,
    )


def fig6_inputs(all_inputs, scale: str):
    """Figure 6 sweeps 8 inputs per panel; quick mode takes a spread of
    4 (smallest, two middle, largest) that preserves the crossover."""
    if scale == "full":
        return list(all_inputs)
    n = len(all_inputs)
    picks = sorted({0, n // 3, 2 * n // 3, n - 1})
    return [all_inputs[i] for i in picks]


def fig6_node_counts(scale: str):
    """Figure 6 plots 1/2/4/8 nodes; quick mode covers 1 and 2."""
    return [1, 2, 4, 8] if scale == "full" else [1, 2]
