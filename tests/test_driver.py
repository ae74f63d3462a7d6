"""Unit tests for the AutoMap driver (the tuning engine), session,
mapper, and space file."""

import pytest

from repro.core import (
    AutoMapMapper,
    AutoMapSession,
    TuneRequest,
    TuningEngine,
    generate_space_file,
    load_space_file,
)
from repro.core.engine import make_algorithm
from repro.machine.kinds import MemKind
from repro.mapping import SearchSpace
from repro.runtime import SimConfig


class TestMakeAlgorithm:
    @pytest.mark.parametrize("name", ["ccd", "cd", "opentuner", "random"])
    def test_known(self, name):
        assert make_algorithm(name).name == name

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown search algorithm"):
            make_algorithm("simulated-annealing")


class TestDriver:
    def test_tune_produces_report(self, diamond_graph, mini_machine):
        report = TuningEngine().tune(
            TuneRequest(
                diamond_graph,
                mini_machine,
                algorithm="ccd",
                sim_config=SimConfig(noise_sigma=0.02, seed=9),
            )
        )
        assert report.best_mapping is not None
        assert report.best_mean > 0
        assert report.evaluated > 0
        assert report.suggested >= report.evaluated
        assert 0 < report.evaluation_fraction <= 1

    def test_final_reevaluation_31_runs(self, diamond_graph, mini_machine):
        report = TuningEngine().tune(
            TuneRequest(
                diamond_graph, mini_machine,
                sim_config=SimConfig(noise_sigma=0.02, seed=9),
            )
        )
        # Every finalist re-measured to >= 31 samples (§5).
        for _, _, _, count in report.finalists:
            assert count >= 31
        assert len(report.finalists) <= 5

    def test_best_at_most_default(self, diamond_graph, mini_machine):
        engine = TuningEngine()
        prepared = engine.prepare(
            TuneRequest(
                diamond_graph, mini_machine,
                sim_config=SimConfig(noise_sigma=0.02, seed=9),
            )
        )
        default_mean = engine.measure(
            prepared, prepared.space.default_mapping()
        )
        report = engine.run(prepared)
        assert report.best_mean <= default_mean * 1.02

    def test_describe(self, diamond_graph, mini_machine):
        report = TuningEngine().tune(TuneRequest(diamond_graph, mini_machine))
        text = report.describe()
        assert "best mean time" in text and "evaluated" in text


class TestSession:
    def test_artifacts_written(self, diamond_graph, mini_machine, tmp_path):
        session = AutoMapSession(
            diamond_graph,
            mini_machine,
            workdir=tmp_path / "work",
            sim_config=SimConfig(noise_sigma=0.02, seed=9),
        )
        report = session.tune()
        assert (tmp_path / "work" / "search_space.json").exists()
        assert (tmp_path / "work" / "finalists.json").exists()
        assert (tmp_path / "work" / "report.txt").exists()
        assert report.best_mapping is not None

    def test_measure_baseline(self, diamond_graph, mini_machine):
        session = AutoMapSession(
            diamond_graph, mini_machine,
            sim_config=SimConfig(noise_sigma=0.02, seed=9),
        )
        prepared = session.prepared
        t = TuningEngine().measure(
            prepared, prepared.space.default_mapping(), runs=5
        )
        assert t > 0


class TestSpaceFile:
    def test_generate_and_load(self, diamond_graph, mini_machine, tmp_path):
        path = tmp_path / "space.json"
        doc = generate_space_file(diamond_graph, mini_machine, path)
        loaded = load_space_file(path)
        assert loaded["application"] == "diamond"
        assert loaded["profile"]["makespan"] > 0
        assert len(loaded["kinds"]) == 4
        assert doc["size_log2"] == pytest.approx(
            SearchSpace(diamond_graph, mini_machine).log2_size()
        )

    def test_load_rejects_foreign(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError):
            load_space_file(path)


class TestMapper:
    def test_callbacks_consistent_with_placer(
        self, diamond_graph, mini_machine, diamond_space
    ):
        mapping = diamond_space.default_mapping()
        mapper = AutoMapMapper(mini_machine, mapping)
        launch = diamond_graph.launches[0]
        distribute, proc_kind = mapper.select_task_options(launch)
        assert distribute is True
        assert proc_kind == "gpu"
        placements = mapper.map_task(launch)
        assert len(placements) == launch.size
        assert mapper.select_processor(launch, 0) == placements[0].proc
        assert (
            mapper.select_memory(launch, 0, 0) == placements[0].mems[0]
        )
        assert placements[0].mems[0].kind is MemKind.FRAMEBUFFER
