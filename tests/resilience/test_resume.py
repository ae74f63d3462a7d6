"""Kill-then-resume bit-identity — the acceptance criterion.

A tuning run killed at an arbitrary point and resumed from its
checkpoint must report the bit-identical best mapping, best mean, trace,
and accounting as an uninterrupted serial run with the same seed.  The
only counter allowed to differ is ``simulations`` (runtime work done
since the restart), which is why the comparison below never touches it.
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.resilience import load_checkpoint
from repro.runtime import SimConfig

SEED = 2023


class KillAfter:
    """Oracle observer that simulates a crash: raises KeyboardInterrupt
    once the run has executed ``limit`` evaluations.  Registered after
    the checkpoint manager, so the interrupt always lands on a fully
    flushed state."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __call__(self, oracle) -> None:
        if oracle.evaluated >= self.limit:
            raise KeyboardInterrupt


def make_request(app_name, algorithm, max_suggestions=800, **kwargs):
    machine = shepard(2)
    app = make_app(app_name)
    return TuneRequest(
        app.graph(machine),
        machine,
        algorithm=algorithm,
        oracle_config=OracleConfig(max_suggestions=max_suggestions),
        sim_config=SimConfig(noise_sigma=0.04, seed=SEED, spill=True),
        space=app.space(machine),
        seed=SEED,
        **kwargs,
    )


def tune(app_name, algorithm, **kwargs):
    return TuningEngine().tune(make_request(app_name, algorithm, **kwargs))


def assert_reports_identical(baseline, resumed):
    assert baseline.best_mapping.key() == resumed.best_mapping.key()
    assert baseline.best_mean == resumed.best_mean
    assert baseline.best_stddev == resumed.best_stddev
    assert baseline.search.trace == resumed.search.trace
    assert baseline.suggested == resumed.suggested
    assert baseline.evaluated == resumed.evaluated
    assert baseline.invalid_suggestions == resumed.invalid_suggestions
    assert baseline.failed_evaluations == resumed.failed_evaluations
    assert baseline.search_seconds == resumed.search_seconds
    assert [
        (m.key(), mean, stddev, count)
        for m, mean, stddev, count in baseline.finalists
    ] == [
        (m.key(), mean, stddev, count)
        for m, mean, stddev, count in resumed.finalists
    ]


def kill_and_resume(app_name, algorithm, tmp_path, kill_after=3):
    """Run uninterrupted; run again with a mid-search crash; resume;
    return (baseline report, resumed report)."""
    baseline = tune(app_name, algorithm)

    path = tmp_path / "checkpoint.json"
    with pytest.raises(KeyboardInterrupt):
        tune(
            app_name,
            algorithm,
            checkpoint_path=path,
            checkpoint_every=2,
            observers=(KillAfter(kill_after),),
        )
    assert path.exists(), "interrupt must flush a final checkpoint"
    killed_at = load_checkpoint(path)
    assert 0 < killed_at.evaluated <= baseline.evaluated

    resumed = tune(
        app_name,
        algorithm,
        checkpoint_path=path,
        checkpoint_every=2,
        resume_checkpoint=load_checkpoint(path),
    )
    assert resumed.resumed
    # Every ledgered record replays: executed and failed evaluations.
    assert resumed.replayed == (
        killed_at.evaluated + killed_at.failed_evaluations
    )
    return baseline, resumed


class TestKillThenResume:
    @pytest.mark.parametrize("algorithm", ["ccd", "random"])
    def test_stencil(self, algorithm, tmp_path):
        baseline, resumed = kill_and_resume("stencil", algorithm, tmp_path)
        assert_reports_identical(baseline, resumed)

    @pytest.mark.parametrize("algorithm", ["ccd", "opentuner"])
    def test_circuit(self, algorithm, tmp_path):
        baseline, resumed = kill_and_resume("circuit", algorithm, tmp_path)
        assert_reports_identical(baseline, resumed)

    def test_double_kill(self, tmp_path):
        """Crash, resume, crash again, resume again: re-checkpointing a
        resumed run must carry un-replayed ledger entries forward."""
        baseline = tune("stencil", "ccd")
        path = tmp_path / "checkpoint.json"

        with pytest.raises(KeyboardInterrupt):
            tune(
                "stencil",
                "ccd",
                checkpoint_path=path,
                checkpoint_every=2,
                observers=(KillAfter(2),),
            )

        with pytest.raises(KeyboardInterrupt):
            tune(
                "stencil",
                "ccd",
                checkpoint_path=path,
                checkpoint_every=2,
                resume_checkpoint=load_checkpoint(path),
                observers=(KillAfter(4),),
            )

        final = tune(
            "stencil",
            "ccd",
            checkpoint_path=path,
            checkpoint_every=2,
            resume_checkpoint=load_checkpoint(path),
        )
        assert_reports_identical(baseline, final)

    def test_resume_after_completion(self, tmp_path):
        """Resuming a finished run replays everything and reproduces
        the same report (idempotent resume)."""
        path = tmp_path / "checkpoint.json"
        baseline = tune(
            "stencil", "ccd", checkpoint_path=path, checkpoint_every=10
        )
        resumed = tune(
            "stencil",
            "ccd",
            checkpoint_path=path,
            checkpoint_every=10,
            resume_checkpoint=load_checkpoint(path),
        )
        assert resumed.replayed == baseline.evaluated
        assert_reports_identical(baseline, resumed)


class TestBoundPruneResume:
    """Bound pruning (on by default above) composes with kill/resume:
    pruned candidates are never ledgered, so a resumed run re-derives
    every prune decision statically and lands on the same counts."""

    def test_prunes_fire_and_survive_resume(self, tmp_path):
        baseline, resumed = kill_and_resume("stencil", "ccd", tmp_path)
        assert baseline.bound_pruned > 0
        assert baseline.bound_pruned == resumed.bound_pruned
        assert baseline.bound_settled == resumed.bound_settled

    def test_checkpoint_roundtrips_prune_counter(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        with pytest.raises(KeyboardInterrupt):
            tune(
                "stencil",
                "ccd",
                checkpoint_path=path,
                checkpoint_every=2,
                observers=(KillAfter(3),),
            )
        killed_at = load_checkpoint(path)
        assert killed_at.bound_pruned >= 0
        # The flushed ledger only holds really-evaluated candidates;
        # replay therefore re-prunes instead of replaying prunes.
        assert len(killed_at.entries) == (
            killed_at.evaluated + killed_at.failed_evaluations
        )


class TestResumeGuards:
    def test_mismatched_checkpoint_rejected(self, tmp_path):
        from repro.resilience import CheckpointMismatch

        path = tmp_path / "checkpoint.json"
        with pytest.raises(KeyboardInterrupt):
            tune(
                "stencil",
                "ccd",
                checkpoint_path=path,
                checkpoint_every=2,
                observers=(KillAfter(3),),
            )
        with pytest.raises(CheckpointMismatch):
            TuningEngine().prepare(
                make_request(
                    "circuit",
                    "ccd",
                    resume_checkpoint=load_checkpoint(path),
                )
            )
        with pytest.raises(CheckpointMismatch):
            TuningEngine().prepare(
                make_request(
                    "stencil",
                    "random",
                    resume_checkpoint=load_checkpoint(path),
                )
            )
