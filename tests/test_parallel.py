"""Tests for parallel batch evaluation (:mod:`repro.parallel` and the
oracle's batch API).

The contract under test: with a fixed seed, every observable result of a
search run through :class:`~repro.core.SimulationOracle`'s batch API —
best mapping, best performance, the full §5.3 trace, and the
suggested/evaluated accounting — is bit-identical between the serial
path (``workers=1``, no processes spawned) and the process-pool path.
"""

from __future__ import annotations

import os
import time
from contextlib import closing

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, SimulationOracle, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.parallel import SimulatorSpec
from repro.runtime import SimConfig, Simulator
from repro.util.rng import RngStream

SEED = 2023

ALGORITHMS = ["ccd", "cd", "random", "opentuner"]


def tune(app_name, algorithm, workers, max_suggestions=800, **kwargs):
    machine = shepard(2)
    app = make_app(app_name, **kwargs)
    request = TuneRequest(
        app.graph(machine),
        machine,
        algorithm=algorithm,
        oracle_config=OracleConfig(max_suggestions=max_suggestions),
        sim_config=SimConfig(noise_sigma=0.04, seed=SEED, spill=True),
        space=app.space(machine),
        seed=SEED,
        workers=workers,
    )
    return TuningEngine().tune(request)


def assert_reports_identical(serial, parallel):
    assert serial.best_mapping.key() == parallel.best_mapping.key()
    assert serial.best_mean == parallel.best_mean
    assert serial.best_stddev == parallel.best_stddev
    assert serial.search.trace == parallel.search.trace
    assert serial.suggested == parallel.suggested
    assert serial.evaluated == parallel.evaluated
    assert serial.search_seconds == parallel.search_seconds


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_circuit(self, algorithm):
        serial = tune("circuit", algorithm, workers=1)
        parallel = tune("circuit", algorithm, workers=4)
        assert_reports_identical(serial, parallel)

    @pytest.mark.parametrize("algorithm", ["ccd", "random"])
    def test_stencil(self, algorithm):
        serial = tune("stencil", algorithm, workers=1)
        parallel = tune("stencil", algorithm, workers=4)
        assert_reports_identical(serial, parallel)


class TestBatchOracle:
    """The oracle's batch API: ``batch_size``, ``peek``, ``prefetch``
    and ``evaluate_many``."""

    @pytest.fixture
    def setup(self, diamond_graph, mini_machine, diamond_space):
        simulator = Simulator(
            diamond_graph, mini_machine, SimConfig(noise_sigma=0.03, seed=7)
        )
        return simulator, diamond_space

    def test_evaluate_many_dedups_within_batch(self, setup):
        simulator, space = setup
        rng = RngStream(11)
        unique = [
            space.random_mapping(rng.fork(str(i)), valid=True)
            for i in range(4)
        ]
        batch = unique + unique  # every candidate suggested twice
        oracle = SimulationOracle(simulator, OracleConfig(), workers=2)
        with closing(oracle):
            outcomes = oracle.evaluate_many(batch)
        # All 8 suggestions are accounted for, but each unique mapping is
        # simulated exactly once; the second half comes from the profiles
        # database.
        assert len(outcomes) == len(batch)
        assert oracle.suggested == len(batch)
        unique_keys = {m.key() for m in unique}
        assert simulator.executions == len(unique_keys)
        for first, second in zip(outcomes[:4], outcomes[4:]):
            assert second.cached
            assert first.performance == second.performance

    def test_workers_1_never_spawns_processes(self, setup):
        simulator, space = setup
        rng = RngStream(12)
        batch = [
            space.random_mapping(rng.fork(str(i)), valid=True)
            for i in range(6)
        ]
        oracle = SimulationOracle(simulator, OracleConfig(), workers=1)
        outcomes = oracle.evaluate_many(batch)
        assert len(outcomes) == len(batch)
        assert oracle.batch_size == 1
        assert not oracle.pool_started
        assert oracle.prefetch(batch) == 0
        assert not oracle.pool_started
        oracle.close()

    def test_evaluate_many_stops_at_budget(
        self, diamond_graph, mini_machine, diamond_space
    ):
        simulator = Simulator(
            diamond_graph, mini_machine, SimConfig(noise_sigma=0.03, seed=7)
        )
        oracle = SimulationOracle(
            simulator, OracleConfig(max_suggestions=3), workers=2
        )
        rng = RngStream(13)
        batch = [
            diamond_space.random_mapping(rng.fork(str(i)), valid=True)
            for i in range(6)
        ]
        with closing(oracle):
            outcomes = oracle.evaluate_many(batch)
        assert len(outcomes) == 3
        assert oracle.suggested == 3

    def test_prefetch_trims_to_budget(self, diamond_graph, mini_machine, diamond_space):
        simulator = Simulator(
            diamond_graph, mini_machine, SimConfig(noise_sigma=0.03, seed=7)
        )
        oracle = SimulationOracle(
            simulator, OracleConfig(max_suggestions=2), workers=2
        )
        rng = RngStream(14)
        batch = [
            diamond_space.random_mapping(rng.fork(str(i)), valid=True)
            for i in range(8)
        ]
        with closing(oracle):
            submitted = oracle.prefetch(batch)
        assert submitted <= 2

    def test_peek_matches_evaluate(self, setup):
        simulator, space = setup
        oracle = SimulationOracle(simulator, OracleConfig(), workers=1)
        mapping = space.default_mapping()
        # Unknown candidates peek as None (an execution would be needed).
        assert oracle.peek(mapping) is None
        outcome = oracle.evaluate(mapping)
        # Known candidates peek exactly what a re-evaluation would report.
        assert oracle.peek(mapping) == outcome.performance
        assert oracle.evaluate(mapping).performance == outcome.performance
        oracle.close()

    def test_invalid_candidates_never_reach_workers(self, setup):
        simulator, space = setup
        invalid = space.random_mapping(RngStream(15), valid=False)
        from repro.mapping.validate import explain_invalid

        if explain_invalid(simulator.graph, simulator.machine, invalid) is None:
            pytest.skip("random unconstrained draw happened to be valid")
        oracle = SimulationOracle(simulator, OracleConfig(), workers=2)
        with closing(oracle):
            outcomes = oracle.evaluate_many([invalid])
            # Nothing needed simulating, so the pool was never started
            # (checked before close(), which would stop it anyway).
            assert not oracle.pool_started
        assert outcomes[0].invalid
        assert simulator.executions == 0


class TestSimulatorSpec:
    def test_spec_rebuilds_identical_simulator(self, diamond_graph, mini_machine):
        simulator = Simulator(
            diamond_graph, mini_machine, SimConfig(noise_sigma=0.03, seed=7)
        )
        rebuilt = SimulatorSpec.of(simulator).build()
        mapping = None
        from repro.mapping import SearchSpace

        mapping = SearchSpace(diamond_graph, mini_machine).default_mapping()
        a = simulator.run(mapping, runs=5)
        b = rebuilt.run(mapping, runs=5)
        assert a.makespan == b.makespan
        assert a.samples == b.samples

    def test_preload_short_circuits_execution(self, diamond_graph, mini_machine):
        config = SimConfig(noise_sigma=0.03, seed=7)
        source = Simulator(diamond_graph, mini_machine, config)
        target = Simulator(diamond_graph, mini_machine, config)
        from repro.mapping import SearchSpace

        mapping = SearchSpace(diamond_graph, mini_machine).default_mapping()
        result = source.run(mapping)
        assert target.cached(mapping) is None
        assert target.preload(mapping, result)
        assert target.executions == 1
        replay = target.run(mapping, runs=3)
        assert target.executions == 1  # pure cache hit
        assert replay.makespan == result.makespan
        # Double preload is a no-op.
        assert not target.preload(mapping, result)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="wall-clock speedup needs >= 4 cores",
)
def test_ccd_circuit_wall_clock_speedup():
    """Acceptance: CCD on a circuit instance whose simulations are
    expensive enough to dominate (≈30 ms each) must get measurably
    faster with 4 workers."""

    def timed(workers):
        start = time.perf_counter()
        report = tune(
            "circuit", "ccd", workers, max_suggestions=400, iterations=30
        )
        return report, time.perf_counter() - start

    serial_report, serial_wall = timed(1)
    parallel_report, parallel_wall = timed(4)
    assert_reports_identical(serial_report, parallel_report)
    # Lenient threshold: CI machines are noisy; the point is that the
    # pool pays for itself, not the exact scaling factor.
    assert parallel_wall < serial_wall * 0.85, (
        f"no speedup: serial {serial_wall:.2f}s vs "
        f"parallel {parallel_wall:.2f}s"
    )
