"""Integration tests for §5.3: CCD vs CD vs the generic ensemble."""

import pytest

from repro.apps import PennantApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig


@pytest.fixture(scope="module")
def reports():
    app = PennantApp(zx=320, zy=90)
    machine = shepard(1)
    graph = app.graph(machine)
    out = {}
    for algo in ("ccd", "cd", "opentuner"):
        request = TuneRequest(
            graph,
            machine,
            algorithm=algo,
            oracle_config=OracleConfig(max_suggestions=4000),
            sim_config=SimConfig(noise_sigma=0.03, seed=23, spill=True),
            # §5.3 characterizes the searches as the paper ran them —
            # every candidate simulated.  Bound pruning skips provably
            # dominated simulations and so lowers evaluation_fraction.
            bound_prune=False,
        )
        out[algo] = TuningEngine().tune(request)
    return out


class TestSearchAlgorithmComparison:
    def test_ccd_at_least_as_good(self, reports):
        assert reports["ccd"].best_mean <= reports["cd"].best_mean * 1.02
        assert (
            reports["ccd"].best_mean
            <= reports["opentuner"].best_mean * 1.02
        )

    def test_suggestion_ordering(self, reports):
        """§5.3: OpenTuner suggests orders of magnitude more than CCD,
        which suggests more than CD."""
        assert reports["cd"].suggested < reports["ccd"].suggested
        assert reports["ccd"].suggested < reports["opentuner"].suggested

    def test_evaluation_fractions(self, reports):
        """§5.3: CCD and CD spend ~99% of search time evaluating; the
        generic tuner far less (13-45% in the paper)."""
        assert reports["ccd"].evaluation_fraction > 0.9
        assert reports["cd"].evaluation_fraction > 0.9
        assert (
            reports["opentuner"].evaluation_fraction
            < reports["ccd"].evaluation_fraction
        )

    def test_dedup_gap(self, reports):
        """Suggested > evaluated for every algorithm (repeats/invalid)."""
        for algo, report in reports.items():
            assert report.suggested >= report.evaluated, algo

    def test_traces_monotone(self, reports):
        for report in reports.values():
            bests = [p.best_performance for p in report.search.trace]
            assert bests == sorted(bests, reverse=True)
