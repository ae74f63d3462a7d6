"""Unit tests for the metrics registry and wall-clock timing.

The Stopwatch/WallBudget cases are the former ``tests/test_timer.py``,
migrated when ``repro.util.timer`` was folded into ``repro.obs.metrics``.
"""

import json
import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Stopwatch,
    WallBudget,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestStopwatch:
    def test_accumulates(self):
        clock = FakeClock()
        watch = Stopwatch(clock).start()
        clock.advance(2.0)
        assert watch.elapsed == pytest.approx(2.0)
        watch.stop()
        clock.advance(5.0)
        assert watch.elapsed == pytest.approx(2.0)
        watch.start()
        clock.advance(1.0)
        assert watch.elapsed == pytest.approx(3.0)

    def test_reset(self):
        clock = FakeClock()
        watch = Stopwatch(clock).start()
        clock.advance(1.0)
        watch.reset()
        assert watch.elapsed == 0.0
        assert not watch.running

    def test_double_start_is_noop(self):
        clock = FakeClock()
        watch = Stopwatch(clock).start().start()
        clock.advance(1.0)
        assert watch.elapsed == pytest.approx(1.0)


class TestWallBudget:
    def test_time_limit(self):
        clock = FakeClock()
        budget = WallBudget(max_seconds=10.0, clock=clock)
        assert not budget.exhausted
        clock.advance(10.1)
        assert budget.exhausted
        assert budget.elapsed == pytest.approx(10.1)

    def test_unlimited(self):
        clock = FakeClock()
        budget = WallBudget(clock=clock)
        clock.advance(1e9)
        assert not budget.exhausted

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            WallBudget(max_seconds=-1)


class TestCounter:
    def test_increments(self):
        counter = Counter("test.hits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_float_amounts(self):
        counter = Counter("test.seconds")
        counter.inc(0.5)
        counter.inc(0.25)
        assert counter.value == pytest.approx(0.75)

    def test_rejects_negative(self):
        counter = Counter("test.hits")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_starts_unset(self):
        assert Gauge("test.level").value is None

    def test_moves_both_ways(self):
        gauge = Gauge("test.level")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_summary(self):
        hist = Histogram("test.sizes")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["total"] == pytest.approx(6.0)
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_empty(self):
        summary = Histogram("test.sizes").summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["min"] is None
        assert summary["max"] is None


class TestMetricsRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_as_dict_is_json_encodable(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc()
        registry.counter("a.count").inc(2)
        registry.gauge("best").set(math.inf)  # non-finite → null
        registry.histogram("sizes").observe(4.0)
        doc = registry.as_dict()
        encoded = json.loads(json.dumps(doc))
        assert encoded == doc
        assert list(doc["counters"]) == ["a.count", "z.count"]
        assert doc["gauges"]["best"] is None
        assert doc["histograms"]["sizes"]["count"] == 1


class TestPrometheusExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("oracle.suggested").inc(53)
        registry.counter("oracle.bound_pruned").inc(25)
        registry.gauge("oracle.best_performance").set(0.0015)
        registry.gauge("never.set")
        hist = registry.histogram("oracle.makespans")
        hist.observe(1.0)
        hist.observe(3.0)
        return registry

    def test_counters_gauges_histograms(self):
        from repro.obs.metrics import to_prometheus_text

        text = to_prometheus_text(self._registry())
        assert "# TYPE automap_oracle_suggested counter" in text
        assert "automap_oracle_suggested 53.0" in text
        assert "automap_oracle_bound_pruned 25.0" in text
        assert "# TYPE automap_oracle_best_performance gauge" in text
        assert "automap_oracle_best_performance 0.0015" in text
        assert "# TYPE automap_oracle_makespans summary" in text
        assert "automap_oracle_makespans_count 2.0" in text
        assert "automap_oracle_makespans_sum 4.0" in text
        assert "automap_oracle_makespans_min 1.0" in text
        assert "automap_oracle_makespans_max 3.0" in text
        # Unset gauges have no Prometheus encoding.
        assert "never_set" not in text
        assert text.endswith("\n")

    def test_accepts_snapshot_dict(self):
        from repro.obs.metrics import to_prometheus_text

        registry = self._registry()
        assert to_prometheus_text(registry.as_dict()) == (
            to_prometheus_text(registry)
        )

    def test_names_are_prometheus_safe(self):
        from repro.obs.metrics import to_prometheus_text

        registry = MetricsRegistry()
        registry.counter("4weird name-with/chars").inc()
        text = to_prometheus_text(registry)
        for line in text.splitlines():
            metric = line.split()[2 if line.startswith("#") else 0]
            assert metric.replace("_", "a").isalnum(), line
