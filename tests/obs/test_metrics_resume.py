"""Metrics are derived state: checkpoint/resume leaves them unchanged.

A resumed run re-derives every registry metric through the deterministic
replay — nothing is restored from the checkpoint — so an interrupted-
and-resumed run's metrics snapshot must equal the uninterrupted run's,
except ``oracle.replayed`` (zero on the baseline by definition).
"""

from __future__ import annotations

import json

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.resilience import load_checkpoint
from repro.runtime import SimConfig

SEED = 2023


class KillAfter:
    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __call__(self, oracle) -> None:
        if oracle.evaluated >= self.limit:
            raise KeyboardInterrupt


def tune(**kwargs):
    machine = shepard(2)
    app = make_app("stencil")
    request = TuneRequest(
        app.graph(machine),
        machine,
        algorithm="ccd",
        oracle_config=OracleConfig(max_suggestions=800),
        sim_config=SimConfig(noise_sigma=0.04, seed=SEED, spill=True),
        space=app.space(machine),
        seed=SEED,
        **kwargs,
    )
    return TuningEngine().tune(request)


def comparable(metrics: dict) -> dict:
    """The snapshot minus the one counter that legitimately differs."""
    out = json.loads(json.dumps(metrics))  # deep copy
    out["counters"].pop("oracle.replayed", None)
    return out


class TestMetricsSurviveResume:
    def test_resumed_metrics_equal_baseline(self, tmp_path):
        baseline = tune()
        assert baseline.metrics is not None
        assert baseline.metrics["counters"]["oracle.replayed"] == 0

        path = tmp_path / "checkpoint.json"
        with pytest.raises(KeyboardInterrupt):
            tune(
                checkpoint_path=path,
                checkpoint_every=2,
                observers=(KillAfter(3),),
            )

        resumed = tune(
            checkpoint_path=path,
            checkpoint_every=2,
            resume_checkpoint=load_checkpoint(path),
        )
        assert resumed.metrics is not None
        assert resumed.metrics["counters"]["oracle.replayed"] > 0
        assert comparable(resumed.metrics) == comparable(baseline.metrics)
        # The histogram of executed makespans is re-derived exactly too.
        assert (
            resumed.metrics["histograms"]["oracle.eval_makespan"]
            == baseline.metrics["histograms"]["oracle.eval_makespan"]
        )

    def test_checkpoint_embeds_metrics_snapshot(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        report = tune(checkpoint_path=path, checkpoint_every=5)
        doc = json.loads(path.read_text())
        assert doc["format"] == "automap-checkpoint-v1"
        embedded = doc["metrics"]
        # The final flush happens after the search but before the trace/
        # report stage adds nothing further — counters must agree with
        # the report's own snapshot.
        assert (
            embedded["counters"]["oracle.evaluated"]
            == report.metrics["counters"]["oracle.evaluated"]
        )
        # Old checkpoints without the key still load (derived state).
        del doc["metrics"]
        rewritten = tmp_path / "old-format.json"
        rewritten.write_text(json.dumps(doc))
        loaded = load_checkpoint(rewritten)
        assert loaded.metrics is None
