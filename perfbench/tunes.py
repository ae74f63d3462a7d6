"""The tune workloads: whole tunes through the stateless engine.

A pass runs every (configuration, tune seed) pair of the workload once.
Each tune rebuilds its application, machine and search space, so no
analyzer or simulator state carries from one tune or pass to the next.

Correctness: every tune's report digest (best-mapping key, best mean,
finalists, suggestion count — floats by ``hex()``) must equal the digest
of the reference path, the same request with bound pruning and
incremental simulation both off.  The identity contracts of those two
layers promise equality.  Reference digests of the core and pool seeds
are committed in ``digests.json``; a tune seed missing there has its
reference recomputed after the timed passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.apps import PennantApp, make_app
from repro.core.engine import TuneRequest, TuningEngine, TuningReport
from repro.core.oracle import OracleConfig
from repro.machine import shepard
from repro.runtime.memory import MemoryPlanner, OOMError
from repro.runtime.simulator import SimConfig

from workloads import (
    FIG8_OVERFLOW,
    MAX_SUGGESTIONS,
    TUNE_WORKLOADS,
    TuneConfig,
    tune_seeds,
)

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

NOISE_SIGMA = 0.04


def max_fitting_zy(machine) -> int:
    """The largest pennant ``zy`` (at ``zx = 320``) whose default,
    all-Frame-Buffer mapping fits ``machine`` (Figure 8's x-axis)."""
    lo, hi = 1000, 2_000_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        app = PennantApp(320, mid, iterations=1)
        planner = MemoryPlanner(app.graph(machine), machine)
        try:
            planner.ensure_fits(app.space(machine).default_mapping())
            lo = mid
        except OOMError:
            hi = mid - 1
    return lo


def resolve_configs(workload: str) -> Tuple[TuneConfig, ...]:
    """The workload's configurations with set-up-time inputs filled in."""
    configs = []
    for config in TUNE_WORKLOADS[workload]:
        if config.app == "pennant":
            fit = max_fitting_zy(shepard(config.nodes))
            config = config.with_inputs(zy=int(fit * FIG8_OVERFLOW))
        configs.append(config)
    return tuple(configs)


def build(config: TuneConfig):
    """(graph, machine, space) for one configuration, built fresh."""
    machine = shepard(config.nodes)
    app = make_app(config.app, **dict(config.inputs))
    return app.graph(machine), machine, app.space(machine)


def tune(config: TuneConfig, seed: int, reference: bool = False) -> TuningReport:
    """One tune; ``reference`` selects the no-prune, full-simulation path."""
    graph, machine, space = build(config)
    request = TuneRequest(
        graph=graph,
        machine=machine,
        algorithm=config.algorithm,
        oracle_config=OracleConfig(max_suggestions=MAX_SUGGESTIONS),
        sim_config=SimConfig(
            noise_sigma=NOISE_SIGMA,
            seed=seed,
            spill=config.spill,
            incremental=not reference,
        ),
        space=space,
        seed=seed,
        bound_prune=not reference,
    )
    return TuningEngine().tune(request)


def report_digest(report: TuningReport) -> str:
    """sha256 over everything the identity contracts pin, floats exact."""
    doc = [
        repr(report.best_mapping.key()),
        report.best_mean.hex(),
        [
            [repr(mapping.key()), mean.hex(), stddev.hex(), count]
            for mapping, mean, stddev, count in report.finalists
        ],
        report.suggested,
    ]
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def digest_key(config: TuneConfig, seed: int) -> str:
    return f"{config.name}/{seed}"


def load_digests() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def tune_set(workload: str, seed: int, configs) -> List[Tuple[TuneConfig, int]]:
    """Every (configuration, tune seed) pair one pass runs, in order."""
    return [
        (config, tune_seed)
        for config in configs
        for tune_seed in tune_seeds(workload, seed, config.name)
    ]
