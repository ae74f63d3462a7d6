"""Bound-based pruning is result-preserving — the acceptance criterion.

A bound-pruned tune must return the byte-identical best mapping, best
statistics, search trajectory, and finalists as the same tune with
``bound_prune=False``, while performing strictly fewer simulations on
at least two of the four stencil/circuit x shepard/lassen configs (in
practice: on all of them).  Pruning only skips candidates whose static
lower bound proves they cannot beat the incumbent, so the searches
take the same trajectory; the pruned run simply does not pay for the
doomed simulations.  And the bound is static: every engine run a
pruned tune makes is one of its counted simulations.
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import lassen, shepard
from repro.runtime import SimConfig
from repro.runtime.executor import Executor
from repro.runtime.incremental import IncrementalEngine

SEED = 11

#: (application, machine factory, algorithm) — cd and ccd both appear
#: on both machine models.
CONFIGS = [
    ("stencil", shepard, "cd"),
    ("stencil", lassen, "ccd"),
    ("circuit", shepard, "ccd"),
    ("circuit", lassen, "cd"),
]

#: A pruned tune also checked with incremental simulation off, where
#: simulations run on the full executor.
FULL_EXECUTOR_CONFIG = ("stencil", shepard, "ccd")


def _tune(app_name, machine_factory, algorithm, bound_prune, incremental=True):
    machine = machine_factory(2)
    app = make_app(app_name)
    request = TuneRequest(
        app.graph(machine),
        machine,
        algorithm=algorithm,
        oracle_config=OracleConfig(max_suggestions=600),
        sim_config=SimConfig(
            noise_sigma=0.04, seed=SEED, spill=True, incremental=incremental
        ),
        space=app.space(machine),
        seed=SEED,
        bound_prune=bound_prune,
    )
    return TuningEngine().tune(request)


def _counting_engine_runs(*args, **kwargs):
    """``(report, engine runs)`` of one tune: how often it called
    ``IncrementalEngine.run`` or ``Executor.run``."""
    runs = 0

    def counting(original):
        def run(self, *run_args, **run_kwargs):
            nonlocal runs
            runs += 1
            return original(self, *run_args, **run_kwargs)

        return run

    with pytest.MonkeyPatch.context() as patch:
        for cls in (IncrementalEngine, Executor):
            patch.setattr(cls, "run", counting(cls.run))
        report = _tune(*args, **kwargs)
    return report, runs


def _improvements(report):
    """The distinct best-so-far values, in order of discovery."""
    bests = []
    for point in report.search.trace:
        if not bests or point.best_performance != bests[-1]:
            bests.append(point.best_performance)
    return bests


@pytest.fixture(scope="module")
def tuned():
    """Both tunes of every config, and ``(simulations, engine runs)``
    of every pruned tune, plus one with incremental simulation off."""
    pairs = {}
    counted = {}
    for app, factory, algo in CONFIGS:
        config = (app, factory.__name__, algo)
        with_prune, runs = _counting_engine_runs(app, factory, algo, True)
        counted[config] = (with_prune.simulations, runs)
        pairs[config] = (with_prune, _tune(app, factory, algo, False))
    app, factory, algo = FULL_EXECUTOR_CONFIG
    report, runs = _counting_engine_runs(
        app, factory, algo, True, incremental=False
    )
    counted[(app, factory.__name__, algo, "full")] = (report.simulations, runs)
    return pairs, counted


@pytest.fixture(scope="module")
def report_pairs(tuned):
    return tuned[0]


class TestBoundPruneAcceptance:
    def test_results_identical(self, report_pairs):
        for config, (pruned, full) in report_pairs.items():
            assert pruned.best_mapping.key() == full.best_mapping.key(), (
                config
            )
            assert pruned.best_mean == full.best_mean, config
            assert pruned.best_stddev == full.best_stddev, config
            assert pruned.suggested == full.suggested, config
            assert pruned.invalid_suggestions == full.invalid_suggestions
            # The trace logs one point per *simulated* evaluation, so
            # the pruned run's is shorter — but the sequence of
            # incumbent improvements must match exactly.
            assert _improvements(pruned) == _improvements(full), config
            assert [
                (m.key(), mean, stddev, count)
                for m, mean, stddev, count in pruned.finalists
            ] == [
                (m.key(), mean, stddev, count)
                for m, mean, stddev, count in full.finalists
            ], config

    def test_strictly_fewer_simulations(self, report_pairs):
        fewer = sum(
            pruned.simulations < full.simulations
            for pruned, full in report_pairs.values()
        )
        for config, (pruned, full) in report_pairs.items():
            assert pruned.simulations <= full.simulations, config
        assert fewer >= 2, "pruning must save simulations somewhere"

    def test_prunes_reported(self, report_pairs):
        total = sum(p.bound_pruned for p, _ in report_pairs.values())
        assert total > 0
        for config, (pruned, full) in report_pairs.items():
            assert full.bound_pruned == 0, config
            assert pruned.bound_pruned >= 0, config
            # Accounting: every suggestion is evaluated, folded,
            # rejected, failed, or bound-pruned — never dropped.
            assert pruned.evaluated <= full.evaluated, config

    def test_disabled_flag_reaches_report(self, report_pairs):
        for pruned, full in report_pairs.values():
            assert full.bound_settled == 0
            assert "bound pruning" not in full.describe()
            if pruned.bound_pruned:
                assert "bound pruning" in pruned.describe()

    def test_simulations_count_every_engine_run(self, tuned):
        """No bound runs the engine behind the accounting: with trace
        off and one worker, a pruned tune's ``simulations`` is exactly
        its number of engine runs, in both simulation modes."""
        _pairs, counted = tuned
        for config, (simulations, runs) in counted.items():
            assert runs > 0, config
            assert simulations == runs, config
