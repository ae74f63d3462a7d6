"""The benchmark's own tests: tracer arithmetic and restoration, the
percentile helper, the seeded service scripts, and the metric table.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import LayerProbe  # noqa: E402
from stats import percentile  # noqa: E402
from tracer import Span, Tracer, covered  # noqa: E402
from workloads import (  # noqa: E402
    CLIENTS,
    EQUIV,
    EXACT,
    MISS,
    PER_MODE,
    CORE_SEEDS,
    SEED_POOL,
    TUNE_WORKLOADS,
    service_scripts,
    tune_seeds,
)

MEMORIES = {"n0.fb0": 16 << 30, "n0.sys0": 68 << 30, "n0.zc": 60 << 30}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _traced_module(clock):
    """A module whose functions advance a fake clock by fixed steps."""
    mod = types.ModuleType("fake_layer")

    def leaf(step):
        clock.now += step

    def outer():
        clock.now += 1.0
        mod.leaf(2.0)
        clock.now += 0.5
        mod.leaf(3.0)

    mod.leaf = leaf
    mod.outer = outer
    return mod


class TestTracer:
    def test_self_time_excludes_children(self):
        clock = FakeClock()
        mod = _traced_module(clock)
        tracer = Tracer(clock=clock)
        tracer.wrap(mod, "outer", "outer")
        tracer.wrap(mod, "leaf", "leaf")
        tracer.set_tag("t1")
        mod.outer()
        totals = tracer.totals()
        assert totals["outer"] == {"calls": 1, "self_s": 1.5, "total_s": 6.5}
        assert totals["leaf"] == {"calls": 2, "self_s": 5.0, "total_s": 5.0}
        outer, first, second = tracer.spans
        assert first.parent is outer and second.parent is outer
        assert outer.parent is None
        assert {span.tag for span in tracer.spans} == {"t1"}

    def test_tag_hook_scopes_to_the_call(self):
        clock = FakeClock()
        mod = _traced_module(clock)
        tracer = Tracer(clock=clock)
        tracer.wrap(mod, "outer", "outer", tag=lambda: "job-1")
        tracer.wrap(mod, "leaf", "leaf")
        mod.outer()
        mod.leaf(1.0)
        assert [s.tag for s in tracer.spans] == ["job-1", "job-1", "job-1", None]

    def test_restore_puts_back_originals(self):
        clock = FakeClock()
        mod = _traced_module(clock)
        originals = (mod.outer, mod.leaf)

        class Owner:
            def method(self):
                return 7

        method = Owner.__dict__["method"]
        tracer = Tracer(clock=clock)
        tracer.wrap(mod, "outer", "outer")
        tracer.wrap(mod, "leaf", "leaf")
        tracer.wrap(Owner, "method", "method")
        tracer.tag_calls(Owner, "method", lambda self: "x")
        assert mod.outer is not originals[0]
        assert Owner().method() == 7
        tracer.restore()
        assert (mod.outer, mod.leaf) == originals
        assert Owner.__dict__["method"] is method

    def test_spans_survive_exceptions(self):
        clock = FakeClock()
        mod = types.ModuleType("m")

        def boom():
            clock.now += 1.0
            raise KeyError("x")

        mod.boom = boom
        tracer = Tracer(clock=clock)
        tracer.wrap(mod, "boom", "boom")
        with pytest.raises(KeyError):
            mod.boom()
        tracer.restore()
        assert tracer.totals()["boom"]["self_s"] == 1.0
        assert tracer._stack() == []

    def test_covered_counts_overlaps_once(self):
        def span(start, end):
            s = Span("x", start, None, None, 0)
            s.end = end
            return s

        spans = [span(5.0, 6.0), span(0.0, 2.0), span(1.0, 3.0), span(2.5, 2.8)]
        assert covered(spans) == 4.0
        assert covered([]) == 0.0

    def test_wrapping_an_inherited_attribute_is_refused(self):
        class Base:
            def method(self):
                return 1

        class Child(Base):
            pass

        with pytest.raises(AttributeError):
            Tracer().wrap(Child, "method", "method")


class TestPercentile:
    def test_refuses_thin_tails(self):
        with pytest.raises(ValueError):
            percentile(list(range(99)), 90)
        assert percentile([float(i) for i in range(1, 101)], 90) == 90.0
        assert percentile([float(i) for i in range(1, 111)], 90) == 99.0

    def test_median_needs_no_tail(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        with pytest.raises(ValueError):
            percentile([], 50)


class TestScripts:
    def test_same_seed_same_script(self):
        first = service_scripts(5, MEMORIES)
        second = service_scripts(5, MEMORIES)
        assert [
            [(r.mode, r.base, r.doc, r.machine_name) for r in s.requests]
            for s in first
        ] == [
            [(r.mode, r.base, r.doc, r.machine_name) for r in s.requests]
            for s in second
        ]
        # Key order is part of an exact resubmission's input.
        assert [list(r.doc) for r in first[0].requests] == [
            list(r.doc) for r in second[0].requests
        ]
        assert [r.doc for r in service_scripts(6, MEMORIES)[0].requests] != [
            r.doc for r in first[0].requests
        ]

    def test_clients_have_disjoint_bases(self):
        scripts = service_scripts(11, MEMORIES)
        assert len(scripts) == CLIENTS
        seen = [
            {json.dumps(r.doc, sort_keys=True) for r in s.requests if r.mode == MISS}
            for s in scripts
        ]
        assert not seen[0] & seen[1]
        for s in seen:
            assert len(s) == PER_MODE

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cache_mode_follows_from_the_script(self, seed):
        """A miss is a workload never submitted before; an exact
        resubmission is a completed base with only key order and
        execution knobs changed; an equivalence resubmission changes
        only a fresh machine perturbation of a completed base."""
        semantic = lambda doc: json.dumps(  # noqa: E731
            {
                k: v
                for k, v in doc.items()
                if k not in ("checkpoint_every", "incremental", "workers")
            },
            sort_keys=True,
        )
        everything = []
        for script in service_scripts(seed, MEMORIES):
            counts = {MISS: 0, EXACT: 0, EQUIV: 0}
            assert script.requests[0].mode == MISS
            for request in script.requests:
                counts[request.mode] += 1
                if request.mode == MISS:
                    assert request.base is None
                    assert "machine_params" not in request.doc
                    continue
                base = script.requests[request.base]
                assert base.mode == MISS and base.index < request.index
                if request.mode == EXACT:
                    assert semantic(request.doc) == semantic(base.doc)
                    assert request.doc.get("workers", 1) == 1
                else:
                    rest = dict(request.doc)
                    params = rest.pop("machine_params")
                    assert rest == base.doc
                    assert set(params) in ({"name"}, {"memory_capacity"})
                    if "name" in params:
                        assert request.machine_name == params["name"]
                    else:
                        caps = params["memory_capacity"]
                        assert set(caps) == set(MEMORIES)
                        assert all(caps[u] > MEMORIES[u] for u in caps)
            assert counts == {MISS: PER_MODE, EXACT: PER_MODE, EQUIV: PER_MODE}
            everything += [r for r in script.requests if r.mode != EXACT]
        # Misses and equivalence resubmissions are pairwise distinct
        # workloads across both clients, so none can be an exact hit.
        keys = [semantic(r.doc) for r in everything]
        assert len(keys) == len(set(keys))


class TestTuneSeeds:
    def test_seeds_derive_from_the_workload_seed(self):
        for workload, configs in TUNE_WORKLOADS.items():
            for config in configs:
                seeds = tune_seeds(workload, 3, config.name)
                assert seeds == tune_seeds(workload, 3, config.name)
                drawn = {tune_seeds(workload, s, config.name)[0] for s in range(20)}
                assert len(drawn) > 1 and drawn <= set(SEED_POOL)
                assert len(set(seeds)) == len(seeds)
                assert all(s in CORE_SEEDS for s in seeds[1:])

    def test_every_tune_seed_has_a_committed_reference(self):
        digests = json.loads((HERE / "digests.json").read_text())
        for workload, configs in TUNE_WORKLOADS.items():
            for config in configs:
                for seed in range(50):
                    for tune_seed in tune_seeds(workload, seed, config.name):
                        assert f"{config.name}/{tune_seed}" in digests


def test_layer_metrics_leave_out_what_has_no_base():
    """With nothing traced, counts and self times read 0 and every ratio,
    mean and median is left out (reported as not produced)."""
    out = LayerProbe(Tracer()).metrics()
    assert out["bounds.lower_bound.calls"] == 0
    assert out["spec.build.self_s"] == 0.0
    for name in (
        "bounds.lower_bound.mean_ms",
        "bounds.prune_yield",
        "bounds.cost_ratio",
        "simulator.run.mean_ms",
        "incremental.replay_fraction",
        "incremental.cost_hit_rate",
        "equivalence.proof_yield",
        "store.queue_wait_s",
    ):
        assert name not in out


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
