"""Search telemetry: round records, JSONL artifact, driver wiring."""

from __future__ import annotations

import math

from repro.core import AutoMapSession, OracleConfig
from repro.machine import shepard
from repro.obs.telemetry import (
    TELEMETRY_FILENAME,
    RoundRecord,
    SearchTelemetry,
    load_telemetry,
)
from repro.runtime import SimConfig

from tests.conftest import build_diamond_graph


class FakeOracle:
    """Attribute bag mimicking the oracle counters telemetry reads."""

    def __init__(self):
        self.suggested = 0
        self.evaluated = 0
        self.invalid_suggestions = 0
        self.failed_evaluations = 0
        self.canonical_folds = 0
        self.static_oom_pruned = 0
        self.sim_elapsed = 0.0
        self.best_performance = math.inf


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRoundRecording:
    def test_deltas(self):
        oracle = FakeOracle()
        clock = FakeClock()
        telemetry = SearchTelemetry(clock=clock)
        telemetry.begin_round(oracle)
        oracle.suggested += 10
        oracle.evaluated += 4
        oracle.invalid_suggestions += 2
        oracle.sim_elapsed = 1.5
        oracle.best_performance = 0.25
        clock.now = 3.0
        telemetry.end_round(oracle, "ccd", "kind=left")
        (record,) = telemetry.rounds
        assert record.round == 0
        assert record.proposed == 10
        assert record.evaluated == 4
        assert record.invalid == 2
        assert record.total_suggested == 10
        assert record.best_performance == 0.25
        assert record.sim_elapsed == 1.5
        assert record.wall_seconds == 3.0

    def test_infinite_best_is_none(self):
        oracle = FakeOracle()
        telemetry = SearchTelemetry()
        telemetry.begin_round(oracle)
        telemetry.end_round(oracle, "ccd", "r0")
        assert telemetry.rounds[0].best_performance is None

    def test_end_without_begin_is_noop(self):
        telemetry = SearchTelemetry()
        telemetry.end_round(FakeOracle(), "ccd", "r0")
        assert telemetry.rounds == []

    def test_double_begin_restarts(self):
        oracle = FakeOracle()
        telemetry = SearchTelemetry()
        telemetry.begin_round(oracle)
        oracle.suggested = 5
        telemetry.begin_round(oracle)  # abandoned snapshot dropped
        oracle.suggested = 8
        telemetry.end_round(oracle, "ccd", "r0")
        assert telemetry.rounds[0].proposed == 3

    def test_summary(self):
        oracle = FakeOracle()
        telemetry = SearchTelemetry()
        for _ in range(3):
            telemetry.begin_round(oracle)
            oracle.suggested += 2
            oracle.evaluated += 1
            telemetry.end_round(oracle, "ccd", "r")
        summary = telemetry.summary()
        assert summary["rounds"] == 3
        assert summary["proposed"] == 6
        assert summary["evaluated"] == 3


class TestJsonlRoundTrip:
    def test_stream_and_load(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        oracle = FakeOracle()
        with SearchTelemetry(path) as telemetry:
            for i in range(4):
                telemetry.begin_round(oracle)
                oracle.suggested += i + 1
                telemetry.end_round(oracle, "random", f"draws={i}")
        loaded = load_telemetry(path)
        assert loaded == telemetry.rounds

    def test_record_doc_round_trip(self):
        record = RoundRecord(
            round=3,
            algorithm="ccd",
            label="kind=left",
            proposed=7,
            evaluated=2,
            invalid=1,
            failed=0,
            folded=3,
            pruned=1,
            total_suggested=40,
            total_evaluated=12,
            best_performance=0.5,
            sim_elapsed=2.5,
            wall_seconds=0.1,
        )
        assert RoundRecord.from_doc(record.to_doc()) == record

    def test_crash_keeps_completed_rounds(self, tmp_path):
        """Each line is flushed as it completes — a killed run keeps
        everything up to the last finished round."""
        path = tmp_path / TELEMETRY_FILENAME
        oracle = FakeOracle()
        telemetry = SearchTelemetry(path)
        telemetry.begin_round(oracle)
        oracle.suggested = 5
        telemetry.end_round(oracle, "ccd", "r0")
        telemetry.begin_round(oracle)  # never finished
        # No close(): simulate an abrupt death.
        assert len(load_telemetry(path)) == 1
        telemetry.close()


class TestDriverWiring:
    def test_workdir_tune_emits_telemetry(self, tmp_path):
        machine = shepard(1)
        session = AutoMapSession(
            build_diamond_graph(),
            machine,
            algorithm="ccd",
            workdir=tmp_path / "w",
            oracle_config=OracleConfig(max_suggestions=120),
            sim_config=SimConfig(noise_sigma=0.04, seed=11),
            seed=11,
        )
        report = session.tune()
        records = load_telemetry(tmp_path / "w" / TELEMETRY_FILENAME)
        assert records
        assert report.telemetry is not None
        assert report.telemetry["rounds"] == len(records)
        # Round deltas add up to the run's totals; the only oracle call
        # outside any round is the seed evaluation of the start mapping.
        assert report.suggested - sum(r.proposed for r in records) <= 1
        assert sum(r.evaluated for r in records) <= report.evaluated
        assert records[-1].total_suggested == report.suggested
        # Telemetry labels carry the algorithm's cursor.
        assert any("kind=" in r.label for r in records)
        # The algorithm's sink is detached after the tune.
        assert session.prepared.algorithm.telemetry is None


class TestBoundPruneTelemetry:
    def test_bound_pruned_delta(self):
        oracle = FakeOracle()
        oracle.bound_pruned = 3
        telemetry = SearchTelemetry(clock=FakeClock())
        telemetry.begin_round(oracle)
        oracle.suggested += 5
        oracle.bound_pruned += 4
        telemetry.end_round(oracle, "cd", "kind=left")
        (record,) = telemetry.rounds
        assert record.bound_pruned == 4

    def test_bound_pruned_round_trips(self):
        record = RoundRecord(
            round=0,
            algorithm="cd",
            label="kind=left",
            proposed=5,
            evaluated=1,
            invalid=0,
            failed=0,
            folded=0,
            pruned=0,
            total_suggested=5,
            total_evaluated=1,
            best_performance=0.5,
            sim_elapsed=1.0,
            wall_seconds=0.1,
            bound_pruned=4,
        )
        assert RoundRecord.from_doc(record.to_doc()) == record

    def test_pre_bound_prune_docs_load(self):
        """telemetry.jsonl written before the bound-pruning layer has
        no bound_pruned key; loading must default it to zero."""
        record = RoundRecord(
            round=0,
            algorithm="cd",
            label="kind=left",
            proposed=5,
            evaluated=1,
            invalid=0,
            failed=0,
            folded=0,
            pruned=0,
            total_suggested=5,
            total_evaluated=1,
            best_performance=0.5,
            sim_elapsed=1.0,
            wall_seconds=0.1,
        )
        doc = record.to_doc()
        del doc["bound_pruned"]
        assert RoundRecord.from_doc(doc).bound_pruned == 0
