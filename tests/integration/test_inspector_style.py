"""Integration test for the inspector-executor style of use (§6).

The paper notes AutoMap "could be used in an inspector-executor style,
where AutoMap is run on-line during an initial portion of a production
run to select a fast mapping for the remainder".  This test exercises
that pattern with the public API: a short time-limited search (the
inspector) followed by executing the remainder under the selected
mapping, and checks the combined run beats staying on the default.
"""


from repro.apps import StencilApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig


class TestInspectorExecutor:
    def test_time_limited_search_pays_off(self):
        machine = shepard(1)
        app = StencilApp(nx=800, ny=800)
        graph = app.graph(machine)
        engine = TuningEngine()
        prepared = engine.prepare(
            TuneRequest(
                graph,
                machine,
                algorithm="ccd",
                # Inspector phase: a tight simulated-time budget (§3.3:
                # "the search can be time-limited if desired").
                oracle_config=OracleConfig(max_sim_seconds=0.5),
                sim_config=SimConfig(noise_sigma=0.03, seed=41, spill=True),
            )
        )
        default = prepared.space.default_mapping()
        per_iteration_default = prepared.simulator.run(default).makespan

        report = engine.run(prepared, start=default)
        per_iteration_best = prepared.simulator.run(
            report.best_mapping
        ).makespan

        # The search honoured its budget...
        assert report.search_seconds <= 0.5 * 1.5
        # ...and still found a mapping at least as good as the default.
        assert per_iteration_best <= per_iteration_default

        # Executor phase arithmetic: amortised over a long production
        # run, inspector cost + tuned iterations beat the default.
        production_iterations = 10_000
        tuned_total = (
            report.search_seconds
            + production_iterations * per_iteration_best
        )
        default_total = production_iterations * per_iteration_default
        assert tuned_total < default_total

    def test_budget_zero_returns_start(self):
        machine = shepard(1)
        app = StencilApp(nx=500, ny=500)
        report = TuningEngine().tune(
            TuneRequest(
                app.graph(machine),
                machine,
                algorithm="ccd",
                oracle_config=OracleConfig(max_sim_seconds=1e-9),
                sim_config=SimConfig(noise_sigma=0.03, seed=41, spill=True),
            )
        )
        # With no budget, the only measured mapping is the start.
        assert report.evaluated <= 1
        assert report.best_mapping is not None
