"""Acceptance tests for the static pre-simulation pruning layer.

On a memory-constrained Figure-8-style search (Pennant sized ~1% past
the frame buffer), static pruning must cut the simulations the search
pays by at least 20% while finding the *identical* best mapping — and
stay bit-identical across worker counts.
"""

from __future__ import annotations

import pytest

from repro.apps import PennantApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig

from tests.integration.test_memory_constrained import max_fitting_zy


@pytest.fixture(scope="module")
def machine():
    return shepard(1)


@pytest.fixture(scope="module")
def graph_and_space(machine):
    # ~5% past the all-framebuffer limit: tight enough that many
    # framebuffer placements are provably dead, loose enough that the
    # coordinate descent can still escape the failing default.
    zy = int(max_fitting_zy(machine) * 1.05)
    app = PennantApp(320, zy, iterations=1)
    return app.graph(machine), app.space(machine)


def _tune(graph, space, machine, static_prune):
    request = TuneRequest(
        graph,
        machine,
        algorithm="cd",
        oracle_config=OracleConfig(max_suggestions=3000),
        sim_config=SimConfig(noise_sigma=0.03, seed=31, spill=False),
        space=space,
        static_prune=static_prune,
        # This suite measures the static-pruning layer in isolation;
        # best-bound-first ordering would dodge most of the dead
        # candidates before the pruner ever sees them.
        bound_order=False,
    )
    return TuningEngine().tune(request)


@pytest.fixture(scope="module")
def reports(graph_and_space, machine):
    graph, space = graph_and_space
    pruned = _tune(graph, space, machine, static_prune=True)
    plain = _tune(graph, space, machine, static_prune=False)
    return pruned, plain


def test_static_pruning_cuts_simulations_at_least_20pct(reports):
    pruned, plain = reports
    assert pruned.static_oom_pruned > 0
    assert plain.static_oom_pruned == 0
    assert pruned.simulations <= 0.8 * plain.simulations, (
        f"static pruning saved too little: {pruned.simulations} vs "
        f"{plain.simulations} simulations"
    )


def test_static_pruning_finds_identical_best_mapping(reports):
    pruned, plain = reports
    assert pruned.best_mapping.key() == plain.best_mapping.key()
    assert pruned.best_mean == plain.best_mean
    assert pruned.best_stddev == plain.best_stddev
    # Every failed evaluation the plain search paid was either proven
    # statically or never enumerated by the pruned search.
    assert pruned.failed_evaluations <= plain.failed_evaluations
