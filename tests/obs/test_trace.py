"""Trace recorder: determinism contract, Chrome export, Gantt render."""

from __future__ import annotations

import json

import pytest

from repro.core import AutoMapSession, OracleConfig
from repro.machine import shepard
from repro.obs.trace import (
    TRACE_FILENAME,
    TraceRecorder,
    diff_traces,
    load_trace,
    validate_chrome_trace,
)
from repro.runtime import SimConfig, Simulator
from repro.viz import render_gantt

from tests.conftest import build_diamond_graph


def make_sim(machine):
    return Simulator(
        build_diamond_graph(),
        machine,
        SimConfig(noise_sigma=0.03, seed=7),
    )


def default_mapping(sim):
    from repro.mapping.space import SearchSpace

    return SearchSpace(sim.graph, sim.machine).default_mapping()


class TestTraceDiff:
    def _recorder(self):
        recorder = TraceRecorder(label="a")
        recorder.record_task("k", "p0", 0.0, 2.0, 0, 1.5, 0.25, 0.25)
        recorder.record_copy("chan:x", "m0", "m1", 0.5, 0.5, 4096)
        recorder.finalize(2.0)
        return recorder

    def test_identical_traces(self, mini_machine):
        sim = make_sim(mini_machine)
        mapping = default_mapping(sim)
        first, _ = sim.trace(mapping)
        second, _ = sim.trace(mapping)
        diff = diff_traces(first, second)
        assert diff.identical
        assert diff.mismatches == 0
        assert diff.render() == "traces are identical"

    def test_makespan_mismatch(self):
        a, b = self._recorder(), self._recorder()
        b.finalize(2.5)
        diff = diff_traces(a, b)
        assert not diff.identical
        assert any("makespan" in line for line in diff.lines)

    def test_span_count_and_field_mismatch(self):
        a, b = self._recorder(), self._recorder()
        b.record_task("k", "p0", 2.0, 1.0, 1, 0.5, 0.25, 0.25)
        diff = diff_traces(a, b)
        assert not diff.identical
        assert any("span count" in line for line in diff.lines)

        c = TraceRecorder(label="a")
        c.record_task("k", "p0", 0.0, 2.0, 0, 1.5, 0.25, 0.25)
        c.record_copy("chan:x", "m0", "m1", 0.5, 0.5 + 1e-12, 4096)
        c.finalize(2.0)
        diff = diff_traces(a, c)
        assert not diff.identical  # floats compare exactly
        assert diff.mismatches == 1

    def test_limit_truncates_report_not_count(self):
        a, b = TraceRecorder(), TraceRecorder()
        for index in range(30):
            a.record_task("k", "p0", index, 1.0, index, 1.0, 0.0, 0.0)
            b.record_task("k", "p0", index, 2.0, index, 2.0, 0.0, 0.0)
        a.finalize(30.0)
        b.finalize(31.0)
        diff = diff_traces(a, b, limit=5)
        assert len(diff.lines) == 5
        assert diff.mismatches > 5
        assert str(diff.mismatches) in diff.render()


class TestTraceDeterminism:
    def test_traced_makespan_bit_identical(self, mini_machine):
        """The determinism contract: tracing observes the schedule, it
        never perturbs it."""
        sim = make_sim(mini_machine)
        mapping = default_mapping(sim)
        untraced = sim.run(mapping)
        recorder, traced = sim.trace(mapping)
        assert traced.makespan == untraced.makespan  # exact, not approx
        assert recorder.makespan == untraced.makespan
        assert recorder.spans

    def test_trace_never_touches_search_accounting(self, mini_machine):
        sim = make_sim(mini_machine)
        mapping = default_mapping(sim)
        sim.run(mapping)
        executions = sim.executions
        sim.trace(mapping)
        sim.trace(mapping)
        assert sim.executions == executions

    def test_repeat_traces_identical(self, mini_machine):
        sim = make_sim(mini_machine)
        mapping = default_mapping(sim)
        first, _ = sim.trace(mapping)
        second, _ = sim.trace(mapping)
        assert first.spans == second.spans

    def test_no_wall_time_in_spans(self, mini_machine):
        """Every timestamp is a simulated-clock value: bounded by the
        makespan, not by any epoch-sized wall-clock number."""
        sim = make_sim(mini_machine)
        recorder, result = sim.trace(default_mapping(sim))
        for span in recorder.spans:
            assert 0.0 <= span.start <= result.makespan + 1e-12
            assert span.finish <= result.makespan + 1e-12


class TestChromeExport:
    def test_export_validates_and_round_trips(self, mini_machine, tmp_path):
        sim = make_sim(mini_machine)
        recorder, _ = sim.trace(default_mapping(sim), label="t")
        doc = recorder.to_chrome_doc()
        assert validate_chrome_trace(doc) == len(recorder.spans)
        path = tmp_path / TRACE_FILENAME
        recorder.save(path)
        loaded = load_trace(path)
        assert loaded.label == "t"
        assert loaded.makespan == recorder.makespan
        assert loaded.spans == recorder.spans

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "B", "name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1}]}
            )

    def test_timestamps_are_microseconds(self, mini_machine):
        sim = make_sim(mini_machine)
        recorder, result = sim.trace(default_mapping(sim))
        doc = recorder.to_chrome_doc()
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert max(e["ts"] + e["dur"] for e in spans) <= (
            result.makespan * 1e6 + 1e-6
        )


class TestBreakdown:
    def test_fractions_normalised(self, mini_machine):
        sim = make_sim(mini_machine)
        recorder, _ = sim.trace(default_mapping(sim))
        b = recorder.breakdown()
        assert b["active_processors"] > 0
        total = (
            b["compute_fraction"]
            + b["copy_fraction"]
            + b["overhead_fraction"]
            + b["idle_fraction"]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_empty_trace(self):
        b = TraceRecorder().breakdown()
        assert b["active_processors"] == 0
        assert b["idle_fraction"] == 0.0


class TestGantt:
    def test_renders_all_resources(self, mini_machine):
        sim = make_sim(mini_machine)
        recorder, _ = sim.trace(default_mapping(sim))
        chart = render_gantt(recorder, width=40)
        for resource in recorder.resources():
            assert resource in chart
        assert "makespan" in chart

    def test_empty(self):
        assert "empty" in render_gantt(TraceRecorder())


class TestEndToEndTraceIdentity:
    """`repro tune --trace` invariants."""

    SESSION_KW = dict(
        algorithm="ccd",
        oracle_config=OracleConfig(max_suggestions=120),
        sim_config=SimConfig(noise_sigma=0.04, seed=11),
        seed=11,
    )

    def _tune(self, tmp_path, name, **kw):
        machine = shepard(1)
        graph = build_diamond_graph()
        workdir = tmp_path / name
        session = AutoMapSession(
            graph,
            machine,
            workdir=workdir,
            trace=True,
            **{**self.SESSION_KW, **kw},
        )
        report = session.tune()
        return report, workdir

    def test_traced_equals_untraced(self, tmp_path):
        machine = shepard(1)
        graph = build_diamond_graph()
        untraced = AutoMapSession(
            graph, machine, **self.SESSION_KW
        ).tune()
        traced, workdir = self._tune(tmp_path, "traced")
        # Tracing must not change the result at all.
        assert traced.best_mean == untraced.best_mean
        assert traced.best_mapping == untraced.best_mapping
        assert traced.evaluated == untraced.evaluated

        trace_doc = json.loads((workdir / TRACE_FILENAME).read_text())
        assert validate_chrome_trace(trace_doc) > 0
