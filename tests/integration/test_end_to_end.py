"""Integration tests: full AutoMap runs on the benchmark applications."""

import pytest

from repro.apps import CircuitApp, HTRApp, MaestroApp, PennantApp, StencilApp
from repro.core import AutoMapSession, OracleConfig, TuneRequest, TuningEngine
from repro.machine import lassen, shepard
from repro.machine.kinds import ProcKind
from repro.runtime import SimConfig

ENGINE = TuningEngine()


def tune(app, machine, algorithm="ccd", metric=None, **oracle_kwargs):
    prepared = ENGINE.prepare(
        TuneRequest(
            app.graph(machine),
            machine,
            algorithm=algorithm,
            oracle_config=OracleConfig(
                max_suggestions=8000, metric=metric, **oracle_kwargs
            ),
            sim_config=SimConfig(noise_sigma=0.03, seed=17, spill=True),
            space=app.space(machine),
        )
    )
    return prepared, ENGINE.run(prepared)


class TestAutoMapBeatsOrMatchesDefault:
    """§5 headline: AutoMap finds mappings at least as fast as the
    default mapper on every application."""

    @pytest.mark.parametrize(
        "app",
        [
            CircuitApp(nodes=400, wires=1600),
            StencilApp(nx=700, ny=700),
            PennantApp(zx=320, zy=90),
            HTRApp(x=8, y=8, z=9),
        ],
        ids=lambda a: a.name,
    )
    def test_vs_default(self, app):
        machine = shepard(1)
        prepared, report = tune(app, machine)
        default_mean = ENGINE.measure(prepared, app.default_mapping(machine))
        assert report.best_mean <= default_mean * 1.02

    def test_small_inputs_move_work_to_cpu(self):
        """Small inputs are overhead-bound: the best mapping places work
        on CPUs (Figures 6c/6d discussion)."""
        machine = shepard(1)
        _, report = tune(PennantApp(zx=320, zy=90), machine)
        assert report.best_mapping is not None
        assert report.best_mapping.count_proc(ProcKind.CPU) > 0

    def test_large_inputs_stay_on_gpu(self):
        machine = shepard(1)
        _, report = tune(StencilApp(nx=5000, ny=5000), machine)
        assert report.best_mapping is not None
        gpu_kinds = report.best_mapping.count_proc(ProcKind.GPU)
        assert gpu_kinds == len(report.best_mapping)


class TestCustomMapperComparison:
    def test_automap_at_least_matches_custom(self):
        machine = shepard(1)
        app = CircuitApp(nodes=200, wires=800)
        prepared, report = tune(app, machine)
        custom_mean = ENGINE.measure(prepared, app.custom_mapping(machine))
        assert report.best_mean <= custom_mean * 1.02


class TestMaestroEndToEnd:
    def test_automap_beats_both_strategies(self):
        machine = lassen(1)
        app = MaestroApp(lf_count=8, lf_res=32, hf_res=96)
        prepared, report = tune(
            app, machine, metric=MaestroApp.hf_metric
        )
        cpu = MaestroApp.hf_metric(
            prepared.simulator.run(app.strategy_cpu_system(machine)).report
        )
        gpu = MaestroApp.hf_metric(
            prepared.simulator.run(app.strategy_gpu_zero_copy(machine)).report
        )
        assert report.best_mean <= min(cpu, gpu) * 1.05

    def test_hf_mapping_untouched(self):
        machine = lassen(1)
        app = MaestroApp(lf_count=4, lf_res=16, hf_res=64)
        _, report = tune(app, machine, metric=MaestroApp.hf_metric)
        fixed = app.fixed_hf_decisions()
        for name, decision in fixed.items():
            assert report.best_mapping.decision(name) == decision


class TestSessionOnApp:
    def test_session_quickstart_flow(self, tmp_path):
        machine = shepard(1)
        app = StencilApp(nx=500, ny=500)
        session = AutoMapSession(
            app.graph(machine),
            machine,
            workdir=tmp_path / "stencil",
            oracle_config=OracleConfig(max_suggestions=4000),
            sim_config=SimConfig(noise_sigma=0.03, seed=5, spill=True),
        )
        report = session.tune()
        assert report.best_mapping is not None
        assert (tmp_path / "stencil" / "search_space.json").exists()
