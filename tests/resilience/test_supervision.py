"""Worker supervision under injected faults.

The supervision contract: worker crashes, hangs, and pool breakage may
cost wall-clock time (retries, pool rebuilds, serial fallback) but can
never change a result — prefetch is a pure cache warmer, so every
recovery action is result-preserving by construction.
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.resilience.faults import FaultPlan
from repro.runtime import SimConfig

SEED = 2023


def tune(algorithm="ccd", max_suggestions=300, **kwargs):
    machine = shepard(2)
    app = make_app("stencil")
    request = TuneRequest(
        app.graph(machine),
        machine,
        algorithm=algorithm,
        oracle_config=OracleConfig(max_suggestions=max_suggestions),
        sim_config=SimConfig(noise_sigma=0.04, seed=SEED, spill=True),
        space=app.space(machine),
        seed=SEED,
        # Bound pruning would starve the worker pool of prefetch work;
        # these tests need real batches in flight to inject faults into.
        bound_prune=False,
        **kwargs,
    )
    return TuningEngine().tune(request)


def assert_reports_identical(serial, supervised):
    assert serial.best_mapping.key() == supervised.best_mapping.key()
    assert serial.best_mean == supervised.best_mean
    assert serial.search.trace == supervised.search.trace
    assert serial.suggested == supervised.suggested
    assert serial.evaluated == supervised.evaluated
    assert serial.search_seconds == supervised.search_seconds


class TestFaultPlan:
    def test_inactive_by_default(self, monkeypatch):
        for var in (
            "REPRO_FAULT_CRASH_P",
            "REPRO_FAULT_HANG_P",
            "REPRO_FAULT_SEED",
        ):
            monkeypatch.delenv(var, raising=False)
        plan = FaultPlan.from_env()
        assert not plan.active
        assert plan.decide("anything", 0) == "ok"

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_CRASH_P", "0.25")
        monkeypatch.setenv("REPRO_FAULT_HANG_P", "0.1")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "2.5")
        monkeypatch.setenv("REPRO_FAULT_SEED", "9")
        plan = FaultPlan.from_env()
        assert plan.active
        assert plan.crash_p == 0.25
        assert plan.hang_p == 0.1
        assert plan.hang_seconds == 2.5
        assert plan.seed == 9

    def test_decide_is_deterministic(self):
        plan = FaultPlan(crash_p=0.5, hang_p=0.2, seed=13)
        verdicts = [plan.decide("mapping-a", i) for i in range(20)]
        assert verdicts == [plan.decide("mapping-a", i) for i in range(20)]
        # Different contexts / attempts draw independently; with these
        # probabilities 20 draws must not all agree.
        assert len(set(verdicts)) > 1

    def test_retry_gets_fresh_draw(self):
        plan = FaultPlan(crash_p=0.5, hang_p=0.0, seed=13)
        # Find a context that crashes on attempt 0 but succeeds on some
        # later attempt: the retry path must be able to make progress.
        for i in range(50):
            context = f"candidate-{i}"
            if plan.decide(context, 0) == "crash":
                outcomes = {plan.decide(context, a) for a in range(1, 6)}
                if "ok" in outcomes:
                    return
        pytest.fail("no context recovered on retry — draws not fresh")

    def test_crash_probability_one_always_crashes(self):
        plan = FaultPlan(crash_p=1.0, hang_p=0.0, seed=1)
        assert all(
            plan.decide(f"c{i}", i) == "crash" for i in range(10)
        )


@pytest.mark.slow
class TestInjectedFaults:
    """End-to-end: injected worker faults never change the report."""

    def test_occasional_crashes_are_recovered(self, monkeypatch):
        serial = tune()
        monkeypatch.setenv("REPRO_FAULT_CRASH_P", "0.3")
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        supervised = tune(workers=2)
        assert_reports_identical(serial, supervised)
        assert supervised.recovery.any_events
        assert supervised.recovery.broken_pools > 0

    def test_total_crash_degrades_to_serial(self, monkeypatch):
        serial = tune()
        monkeypatch.setenv("REPRO_FAULT_CRASH_P", "1.0")
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        supervised = tune(workers=2)
        assert_reports_identical(serial, supervised)
        assert supervised.recovery.serial_fallback
        assert supervised.recovery.pool_rebuilds > 0

    def test_hung_workers_are_timed_out(self, monkeypatch):
        serial = tune(max_suggestions=120)
        monkeypatch.setenv("REPRO_FAULT_HANG_P", "1.0")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "60")
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")
        supervised = tune(max_suggestions=120, workers=2, worker_timeout=0.5)
        assert_reports_identical(serial, supervised)
        assert supervised.recovery.timeouts > 0
        assert supervised.recovery.pool_rebuilds > 0
