"""Unit tests for the evaluation oracle (dedup, rejection, budgets)."""

import pytest

from repro.analysis.bounds import FLOAT_SAFETY
from repro.core import OracleConfig, SimulationOracle
from repro.machine.kinds import ProcKind
from repro.mapping import SearchSpace
from repro.runtime import SimConfig, Simulator
from repro.search.base import INFEASIBLE
from repro.machine import single_node
from repro.taskgraph import GraphBuilder, Privilege
from repro.util.units import MIB


@pytest.fixture
def oracle(diamond_graph, mini_machine):
    sim = Simulator(
        diamond_graph, mini_machine, SimConfig(noise_sigma=0.02, seed=5)
    )
    return SimulationOracle(sim, OracleConfig(runs_per_eval=7))


class TestEvaluate:
    def test_valid_mapping_measured(self, oracle, diamond_space):
        outcome = oracle.evaluate(diamond_space.default_mapping())
        assert outcome.ok
        assert 0 < outcome.performance < INFEASIBLE
        assert oracle.evaluated == 1 and oracle.suggested == 1

    def test_averages_runs(self, oracle, diamond_space):
        oracle.evaluate(diamond_space.default_mapping())
        record = oracle.profiles.lookup(diamond_space.default_mapping())
        assert record is not None and record.count == 7

    def test_dedup_returns_cached(self, oracle, diamond_space):
        mapping = diamond_space.default_mapping()
        first = oracle.evaluate(mapping)
        second = oracle.evaluate(mapping)
        assert second.cached
        assert second.performance == first.performance
        assert oracle.suggested == 2 and oracle.evaluated == 1

    def test_invalid_rejected_without_execution(self, oracle, diamond_space):
        bad = diamond_space.default_mapping().with_proc(
            "source", ProcKind.CPU
        )
        outcome = oracle.evaluate(bad)
        assert outcome.invalid
        assert outcome.performance == INFEASIBLE
        assert oracle.evaluated == 0
        assert oracle.invalid_suggestions == 1

    def test_trace_monotone_best(self, oracle, diamond_space, rng):
        for i in range(10):
            oracle.evaluate(diamond_space.random_mapping(rng.fork(str(i))))
        bests = [p.best_performance for p in oracle.trace]
        assert bests == sorted(bests, reverse=True)

    def test_sim_clock_advances(self, oracle, diamond_space):
        oracle.evaluate(diamond_space.default_mapping())
        assert oracle.sim_elapsed > 0
        assert 0 < oracle.evaluation_fraction <= 1.0


class TestOOMHandling:
    def test_oom_reported_failed(self):
        machine = single_node(
            cpus=2, gpus=1, framebuffer_capacity=MIB,
            sysmem_capacity=256 * MIB, zero_copy_capacity=256 * MIB,
        )
        b = GraphBuilder("big")
        c = b.collection("c", nbytes=64 * MIB)
        k = b.task_kind("k", slots=[("c", Privilege.READ_WRITE)])
        b.launch(k, [c], size=2, flops=1e6)
        graph = b.build()
        sim = Simulator(graph, machine, SimConfig(noise_sigma=0, spill=False))
        oracle = SimulationOracle(sim, OracleConfig())
        space = SearchSpace(graph, machine)
        outcome = oracle.evaluate(space.default_mapping())
        assert outcome.failed
        assert oracle.failed_evaluations == 1
        # Re-suggesting the failed mapping hits the failure cache.
        again = oracle.evaluate(space.default_mapping())
        assert again.failed and again.cached


class TestBudgets:
    def test_max_evaluations(self, diamond_graph, mini_machine, diamond_space, rng):
        sim = Simulator(diamond_graph, mini_machine, SimConfig(seed=1))
        oracle = SimulationOracle(
            sim, OracleConfig(max_evaluations=3)
        )
        i = 0
        while not oracle.exhausted:
            oracle.evaluate(diamond_space.random_mapping(rng.fork(str(i))))
            i += 1
        assert oracle.evaluated == 3

    def test_max_suggestions(self, diamond_graph, mini_machine, diamond_space):
        sim = Simulator(diamond_graph, mini_machine, SimConfig(seed=1))
        oracle = SimulationOracle(sim, OracleConfig(max_suggestions=5))
        mapping = diamond_space.default_mapping()
        while not oracle.exhausted:
            oracle.evaluate(mapping)
        assert oracle.suggested == 5

    def test_max_sim_seconds(self, diamond_graph, mini_machine, diamond_space, rng):
        sim = Simulator(diamond_graph, mini_machine, SimConfig(seed=1))
        oracle = SimulationOracle(
            sim, OracleConfig(max_sim_seconds=1e-9)
        )
        oracle.evaluate(diamond_space.default_mapping())
        assert oracle.exhausted


class TestMetric:
    def test_custom_metric_used(self, diamond_graph, mini_machine, diamond_space):
        sim = Simulator(diamond_graph, mini_machine, SimConfig(seed=1))

        def metric(report):
            return report.kind_finish["source"]

        oracle = SimulationOracle(
            sim, OracleConfig(metric=metric, runs_per_eval=1)
        )
        outcome = oracle.evaluate(diamond_space.default_mapping())
        full = sim.run(diamond_space.default_mapping())
        assert outcome.performance < full.makespan

    def test_kind_runtimes_orders_by_busy(self, oracle, diamond_space):
        runtimes = oracle.kind_runtimes(diamond_space.default_mapping())
        assert set(runtimes) == {"source", "left", "right", "sink"}
        assert all(v >= 0 for v in runtimes.values())


class TestMeasureMore:
    def test_extends_record(self, oracle, diamond_space):
        mapping = diamond_space.default_mapping()
        oracle.evaluate(mapping)
        oracle.measure_more(mapping, 24)
        record = oracle.profiles.lookup(mapping)
        assert record is not None and record.count == 31

    def test_fresh_draws(self, oracle, diamond_space):
        mapping = diamond_space.default_mapping()
        oracle.evaluate(mapping)
        oracle.measure_more(mapping, 10)
        record = oracle.profiles.lookup(mapping)
        assert len(set(record.samples)) == record.count  # all distinct


class _StubBounds:
    """A bound analyzer with fixed tier values that counts full walks."""

    def __init__(self, quick: float, full: float) -> None:
        self.quick = quick
        self.full = full
        self.full_calls = 0

    def quick_bound(self, mapping):
        return self.quick

    def lower_bound(self, mapping):
        self.full_calls += 1
        return self.full


class TestTieredBoundPrune:
    """The quick bound decides first; the full bound is walked only
    while the prune decision is still open."""

    INCUMBENT = 1.0

    def _oracle(self, diamond_graph, mini_machine, quick, full):
        # Noise-free, so the mean factor is exactly 1.
        sim = Simulator(diamond_graph, mini_machine, SimConfig(noise_sigma=0))
        bounds = _StubBounds(quick, full)
        oracle = SimulationOracle(sim, OracleConfig(), bounds=bounds)
        oracle.best_performance = self.INCUMBENT
        return oracle, bounds

    def test_quick_bound_decides_without_full_walk(
        self, diamond_graph, mini_machine, diamond_space
    ):
        oracle, bounds = self._oracle(diamond_graph, mini_machine, 2.0, 3.0)
        mapping = diamond_space.default_mapping()
        assert oracle.would_bound_prune(mapping)
        outcome = oracle.evaluate(mapping)
        assert bounds.full_calls == 0
        # The pruned outcome carries the bound that decided.
        assert outcome.performance == 2.0 * FLOAT_SAFETY
        assert oracle.bound_pruned == 1

    def test_full_bound_walked_when_quick_is_open(
        self, diamond_graph, mini_machine, diamond_space
    ):
        oracle, bounds = self._oracle(diamond_graph, mini_machine, 0.5, 2.0)
        mapping = diamond_space.default_mapping()
        assert oracle.would_bound_prune(mapping)
        assert bounds.full_calls == 1
        outcome = oracle.evaluate(mapping)
        assert bounds.full_calls == 1  # priced once per candidate
        assert outcome.performance == 2.0 * FLOAT_SAFETY

    def test_no_prune_when_full_bound_is_below_incumbent(
        self, diamond_graph, mini_machine, diamond_space
    ):
        oracle, bounds = self._oracle(diamond_graph, mini_machine, 0.5, 0.8)
        mapping = diamond_space.default_mapping()
        assert not oracle.would_bound_prune(mapping)
        assert bounds.full_calls == 1
        outcome = oracle.evaluate(mapping)
        assert oracle.bound_pruned == 0
        assert oracle.evaluated == 1
        assert outcome.performance < INFEASIBLE
