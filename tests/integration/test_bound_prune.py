"""Bound-based pruning is result-preserving — the acceptance criterion.

A bound-pruned tune must return the byte-identical best mapping, best
statistics, search trajectory, and finalists as the same tune with
``bound_prune=False``, while performing strictly fewer simulations on
at least two of the four stencil/circuit x shepard/lassen configs (in
practice: on all of them).  Pruning only skips candidates whose static
lower bound proves they cannot beat the incumbent, so the searches
take the same trajectory; the pruned run simply does not pay for the
doomed simulations.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import StaticBoundAnalyzer
from repro.apps import make_app
from repro.core import AutoMapDriver, OracleConfig, SimulationOracle
from repro.machine import lassen, shepard
from repro.runtime import SimConfig

SEED = 11

#: (application, machine factory, algorithm) — cd and ccd both appear
#: on both machine models.
CONFIGS = [
    ("stencil", shepard, "cd"),
    ("stencil", lassen, "ccd"),
    ("circuit", shepard, "ccd"),
    ("circuit", lassen, "cd"),
]


def _tune(app_name, machine_factory, algorithm, bound_prune):
    machine = machine_factory(2)
    app = make_app(app_name)
    driver = AutoMapDriver(
        app.graph(machine),
        machine,
        algorithm=algorithm,
        oracle_config=OracleConfig(max_suggestions=600),
        sim_config=SimConfig(noise_sigma=0.04, seed=SEED, spill=True),
        space=app.space(machine),
        seed=SEED,
        bound_prune=bound_prune,
    )
    return driver.tune()


def _improvements(report):
    """The distinct best-so-far values, in order of discovery."""
    bests = []
    for point in report.search.trace:
        if not bests or point.best_performance != bests[-1]:
            bests.append(point.best_performance)
    return bests


@pytest.fixture(scope="module")
def tuned():
    """Both tunes of every config, plus two counts over the pruned
    tunes: full-bound walks and distinct bound-pruned candidates."""
    walks = 0
    pruned = set()
    lower_bound = StaticBoundAnalyzer.lower_bound
    evaluate = SimulationOracle.evaluate

    def counting_lower_bound(self, mapping):
        nonlocal walks
        walks += 1
        return lower_bound(self, mapping)

    def recording_evaluate(self, mapping):
        outcome = evaluate(self, mapping)
        if (outcome.reason or "").startswith("bound-pruned"):
            pruned.add((id(self), self.canonical(mapping).key()))
        return outcome

    pairs = {}
    for app, factory, algo in CONFIGS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                StaticBoundAnalyzer, "lower_bound", counting_lower_bound
            )
            patch.setattr(SimulationOracle, "evaluate", recording_evaluate)
            with_prune = _tune(app, factory, algo, True)
        pairs[(app, factory.__name__, algo)] = (
            with_prune,
            _tune(app, factory, algo, False),
        )
    return pairs, walks, len(pruned)


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

    def test_quick_bound_spares_full_walks(self, tuned):
        """Tiered pricing: a candidate whose quick bound already reaches
        the incumbent is pruned without a full bound, and settling walks
        only the candidates it reaches — so across the configs there
        are fewer full walks than distinct pruned candidates."""
        _pairs, walks, pruned = tuned
        assert pruned > 0
        assert walks < pruned, (walks, pruned)
