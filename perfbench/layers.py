"""Which functions of which layer the traced run wraps, and the
per-layer metrics computed from the spans.

Each entry patches the attribute where callers look it up: methods on
their class, and module-level functions in every module that bound them
by name at import time (``workload_class_key`` in
``repro.service.worker``) as well as in their home module, which the
lazy ``from ... import`` statements inside the service read at call time.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from stats import median
from tracer import Tracer

#: (module, attribute path, span name).  The layer is the module.
WRAPPED = (
    ("repro.core.engine", "TuningEngine.prepare", "engine.prepare"),
    ("repro.core.engine", "TuningEngine.run", "search"),
    ("repro.core.oracle", "SimulationOracle.evaluate", "oracle.evaluate"),
    ("repro.core.oracle", "SimulationOracle.settle_pruned", "oracle.settle_pruned"),
    ("repro.core.oracle", "SimulationOracle.measure_more", "oracle.measure_more"),
    ("repro.analysis.bounds", "StaticBoundAnalyzer.lower_bound", "bounds.lower_bound"),
    ("repro.analysis.bounds", "StaticBoundAnalyzer.quick_bound", "bounds.quick_bound"),
    ("repro.analysis.canonical", "Canonicalizer.canonical", "canonical"),
    (
        "repro.analysis.memfeas",
        "StaticMemoryFeasibility.oom_reason",
        "memfeas.oom_reason",
    ),
    ("repro.runtime.simulator", "Simulator.run", "simulator.run"),
    ("repro.runtime.simulator", "Simulator.spill_plan", "simulator.spill_plan"),
    ("repro.runtime.simulator", "Simulator.trace", "simulator.trace"),
    ("repro.resilience.checkpoint", "CheckpointManager.flush", "checkpoint.flush"),
    ("repro.service.http", "MappingService.submit", "http.submit"),
    ("repro.service.http", "MappingService.job_record", "http.status"),
    ("repro.service.http", "MappingService.artifact", "http.artifact"),
    ("repro.service.spec", "JobSpec.build", "spec.build"),
    ("repro.service.fingerprint", "workload_fingerprint", "fingerprint.workload"),
    ("repro.service.fingerprint", "workload_class_key", "fingerprint.class_key"),
    ("repro.service.worker", "workload_class_key", "fingerprint.class_key"),
    ("repro.service.cache", "ResultCache.lookup", "cache.lookup"),
    ("repro.service.cache", "ResultCache.read", "cache.read"),
    ("repro.service.cache", "ResultCache.put", "cache.put"),
    ("repro.service.cache", "ResultCache.lookup_equivalent", "cache.lookup_equivalent"),
    ("repro.analysis.equivalence", "prove_equivalent", "equivalence.prove"),
    ("repro.analysis.equivalence", "pullback_result_doc", "equivalence.pullback"),
    ("repro.service.store", "JobStore.create", "store.create"),
    ("repro.service.store", "JobStore.claim_next", "store.claim_next"),
    ("repro.service.worker", "JobWorker.execute", "worker.execute"),
)

#: Request-id header the benchmark's HTTP clients send; the handler
#: wrappers tag server-side spans with it.
REQUEST_HEADER = "X-Perfbench-Request"


class LayerProbe:
    """Installs the wrappers on a tracer and keeps the counts that are
    read from call results rather than from span timing."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.reports: List = []
        self.incremental: Dict[int, object] = {}
        self.executing_runs: List = []
        self.proofs = 0
        self.proofs_served = 0
        self.created: Dict[str, float] = {}
        self.queue_waits: List[float] = []

    # -- hooks ---------------------------------------------------------
    def _run_before(self, simulator, *args, **kwargs):
        return simulator.executions

    def _run_after(self, executions, span, result, args, kwargs):
        simulator = args[0]
        stats = simulator.incremental_stats
        self.incremental[id(stats)] = stats
        if simulator.executions > executions:
            self.executing_runs.append(span)

    def _report(self, state, span, report, args, kwargs):
        self.reports.append(report)

    def _proof(self, state, span, proof, args, kwargs):
        self.proofs += 1
        self.proofs_served += bool(proof.equivalent)

    def _created(self, state, span, record, args, kwargs):
        if not record.state.terminal:
            self.created[record.job_id] = span.end

    def _claimed(self, state, span, record, args, kwargs):
        if record is not None and record.job_id in self.created:
            self.queue_waits.append(span.end - self.created.pop(record.job_id))

    def install(self) -> None:
        hooks = {
            "simulator.run": dict(before=self._run_before, after=self._run_after),
            "search": dict(after=self._report),
            "equivalence.prove": dict(after=self._proof),
            "store.create": dict(after=self._created),
            "store.claim_next": dict(after=self._claimed),
            "worker.execute": dict(tag=lambda worker, record: record.job_id),
        }
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.tracer.wrap(owner, attr, name, **hooks.get(name, {}))
        handler = importlib.import_module("repro.service.http")._Handler
        for method in ("do_POST", "do_GET"):
            self.tracer.tag_calls(
                handler,
                method,
                lambda self_, *a, **k: self_.headers.get(REQUEST_HEADER),
            )

    # -- metrics -------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics over everything traced so far.  A ratio,
        mean or median with nothing to divide by or take it over is left
        out, so that it shows as not produced rather than as 0."""
        totals = self.tracer.totals()

        def calls(name: str) -> int:
            return totals.get(name, {}).get("calls", 0)

        def self_s(name: str) -> float:
            return totals.get(name, {}).get("self_s", 0.0)

        self_times = self.tracer.self_times()
        run_exec_s = sum(self_times[span] for span in self.executing_runs)
        lb_calls = calls("bounds.lower_bound")
        bound_pruned = sum(r.bound_pruned for r in self.reports)
        replayed = executed = hits = misses = 0
        for stats in self.incremental.values():
            replayed += stats.launches_replayed
            executed += stats.launches_executed
            hits += stats.cost_hits
            misses += stats.cost_misses
        out = {
            "bounds.lower_bound.calls": lb_calls,
            "bounds.lower_bound.self_s": self_s("bounds.lower_bound"),
            "bounds.quick_bound.calls": calls("bounds.quick_bound"),
            "bounds.quick_bound.self_s": self_s("bounds.quick_bound"),
            "simulator.run.calls": calls("simulator.run"),
            "simulator.run.executions": len(self.executing_runs),
            "simulator.run.self_s": self_s("simulator.run"),
            "simulator.spill_plan.self_s": self_s("simulator.spill_plan"),
            "simulator.trace.self_s": self_s("simulator.trace"),
            "engine.prepare.self_s": self_s("engine.prepare"),
            "search.self_s": self_s("search"),
            "oracle.evaluate.calls": calls("oracle.evaluate"),
            "oracle.evaluate.self_s": self_s("oracle.evaluate"),
            "oracle.settle_pruned.self_s": self_s("oracle.settle_pruned"),
            "oracle.measure_more.self_s": self_s("oracle.measure_more"),
            "oracle.simulations": sum(r.simulations for r in self.reports),
            "oracle.bound_pruned": bound_pruned,
            "canonical.self_s": self_s("canonical"),
            "canonical.folds": sum(r.canonical_folds for r in self.reports),
            "memfeas.oom_reason.self_s": self_s("memfeas.oom_reason"),
            "memfeas.oom_pruned": sum(r.static_oom_pruned for r in self.reports),
            "spec.build.self_s": self_s("spec.build"),
            "fingerprint.workload.self_s": self_s("fingerprint.workload"),
            "cache.lookup.self_s": self_s("cache.lookup"),
            "cache.read.self_s": self_s("cache.read"),
            "fingerprint.class_key.self_s": self_s("fingerprint.class_key"),
            "cache.lookup_equivalent.self_s": self_s("cache.lookup_equivalent"),
            "equivalence.prove.calls": self.proofs,
            "equivalence.prove.self_s": self_s("equivalence.prove"),
            "equivalence.pullback.self_s": self_s("equivalence.pullback"),
            "cache.put.self_s": self_s("cache.put"),
            "worker.execute.self_s": self_s("worker.execute"),
            "checkpoint.flush.calls": calls("checkpoint.flush"),
            "checkpoint.flush.self_s": self_s("checkpoint.flush"),
        }
        if self.executing_runs:
            out["simulator.run.mean_ms"] = 1e3 * run_exec_s / len(self.executing_runs)
        if lb_calls:
            out["bounds.lower_bound.mean_ms"] = 1e3 * self_s("bounds.lower_bound") / lb_calls
            out["bounds.prune_yield"] = bound_pruned / lb_calls
            if self.executing_runs:
                out["bounds.cost_ratio"] = (
                    out["bounds.lower_bound.mean_ms"] / out["simulator.run.mean_ms"]
                )
        if replayed + executed:
            out["incremental.replay_fraction"] = replayed / (replayed + executed)
        if hits + misses:
            out["incremental.cost_hit_rate"] = hits / (hits + misses)
        if self.proofs:
            out["equivalence.proof_yield"] = self.proofs_served / self.proofs
        if self.queue_waits:
            out["store.queue_wait_s"] = median(self.queue_waits)
        out["trace.spans"] = len(self.tracer.spans)
        out["trace.attributed_s"] = sum(entry["self_s"] for entry in totals.values())
        return out
