"""The simulator facade: validate → capacity-check → execute → (noise).

:class:`Simulator` is the runtime stand-in the rest of the system talks
to.  It combines mapping validation (constraint 1), the memory planner
(OOM / spill), the deterministic executor, and the noise model, and it
memoises deterministic results per mapping so that AutoMap's repeated
measurements of one mapping (7 during search, 31 for final reporting)
cost one execution plus cheap noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.validity import explain_problems
from repro.machine.model import Machine
from repro.mapping.mapping import Mapping
from repro.mapping.validate import MappingError
from repro.runtime.executor import ExecutionReport, Executor
from repro.runtime.incremental import IncrementalEngine, IncrementalStats
from repro.runtime.memory import MemoryPlanner, OOMError
from repro.runtime.noise import NoiseModel
from repro.taskgraph.graph import TaskGraph

__all__ = ["SimConfig", "SimResult", "Simulator", "OOMError"]


@dataclass(frozen=True)
class SimConfig:
    """Simulator configuration.

    Attributes
    ----------
    noise_sigma:
        Log-space σ of run-to-run noise (0 disables noise).
    seed:
        Root seed of the noise stream.
    spill:
        When True, mappings whose instances overflow a memory are
        demoted along the priority list (§3.1) instead of failing —
        the behaviour of the default mapper's "collections that fit".
        When False, overflow raises :class:`OOMError` — the behaviour
        AutoMap's search relies on in the memory-constrained
        experiments (§5.2).
    incremental:
        When True (the default), untraced executions run through the
        incremental engine (per-launch cost memoisation, see
        :mod:`repro.runtime.incremental`), spill plans and noise
        factors are memoised, and the memory planner rules a mapping in
        from decision-free per-slot byte totals before any footprint
        union.  Results are byte-identical to the full path;
        ``--no-incremental`` turns the whole bundle off (an unfiltered
        planner and an uncached noise model), which is what the CI
        identity gate measures against.  The validity verdict of a
        mapping key is memoised in both modes.
    """

    noise_sigma: float = 0.04
    seed: int = 0
    spill: bool = False
    incremental: bool = True


@dataclass
class SimResult:
    """Result of simulating one mapping."""

    #: Deterministic makespan in seconds (no noise).
    makespan: float
    #: The mapping actually executed (differs from the requested one when
    #: spill demotions were applied).
    executed_mapping: Mapping
    report: ExecutionReport
    #: Noisy measurement samples, when requested.
    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        if not self.samples:
            return self.makespan
        return sum(self.samples) / len(self.samples)


class Simulator:
    """Runs mappings of one task graph on one machine."""

    def __init__(
        self,
        graph: TaskGraph,
        machine: Machine,
        config: Optional[SimConfig] = None,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self.config = config or SimConfig()
        incremental = self.config.incremental
        self.noise = NoiseModel(
            self.config.noise_sigma, self.config.seed, cache=incremental
        )
        self._executor = Executor(graph, machine)
        #: The memory planner behind OOM and spill.  A tune's static
        #: feasibility pass proves OOMs with this same planner.
        self.planner = MemoryPlanner(graph, machine, memoize=incremental)
        #: The incremental engine untraced runs go through (``None``
        #: when ``incremental`` is off).  A tune's bound analyzer reads
        #: its placer and launch-cost table but never runs it.
        self.engine: Optional[IncrementalEngine] = (
            IncrementalEngine(graph, machine) if incremental else None
        )
        #: Incremental-effectiveness counters (all-zero when the engine
        #: is disabled).  Kept out of the oracle's metrics registry so
        #: checkpoints stay byte-identical across the two modes.
        self.incremental_stats: IncrementalStats = (
            self.engine.stats if self.engine else IncrementalStats()
        )
        self._cache: Dict[tuple, SimResult] = {}
        #: Memoised spill resolutions (successful plans only, so the
        #: OOM-raising paths keep their counter semantics); ``None``
        #: when incremental caching is off.
        self._spill_cache: Optional[Dict[tuple, Mapping]] = (
            {} if incremental else None
        )
        #: Validity verdict per mapping key: the joined violation
        #: messages, or ``None`` for a valid key (validation is pure per
        #: key, so each key is checked once).
        self._verdicts: Dict[tuple, Optional[str]] = {}
        #: Deterministic executions performed (cache misses) — used by
        #: search-efficiency statistics.
        self.executions = 0
        #: Cache-miss runs that died in the memory planner (spill
        #: disabled).  ``executions + oom_attempts`` is the number of
        #: novel mappings the runtime machinery had to process — the
        #: quantity the static feasibility pass exists to reduce.
        self.oom_attempts = 0

    # ------------------------------------------------------------------
    def run(self, mapping: Mapping, runs: int = 0) -> SimResult:
        """Simulate ``mapping``; optionally draw ``runs`` noisy samples.

        Raises
        ------
        MappingError
            If the mapping violates addressability/variant constraints.
        OOMError
            If instances overflow a memory and spill is disabled.
        """
        self._validate(mapping)
        key = mapping.key()
        cached = self._cache.get(key)
        if cached is None:
            try:
                executed = self._resolve_spill(mapping, key)
            except OOMError:
                if not self.config.spill:
                    self.oom_attempts += 1
                raise
            if self.engine is not None:
                report = self.engine.run(executed)
            else:
                report = self._executor.run(executed)
            cached = SimResult(
                makespan=report.makespan,
                executed_mapping=executed,
                report=report,
            )
            self._cache[key] = cached
            self.executions += 1
        if runs > 0:
            samples = self.noise.samples(cached.makespan, key, runs)
        else:
            samples = []
        return SimResult(
            makespan=cached.makespan,
            executed_mapping=cached.executed_mapping,
            report=cached.report,
            samples=samples,
        )

    # ------------------------------------------------------------------
    def invalid_reason(self, mapping: Mapping) -> Optional[str]:
        """Why ``mapping`` violates a kind-level validity constraint
        (:func:`repro.analysis.validity.explain_problems`), or ``None``
        when it is valid; checked once per mapping key."""
        key = mapping.key()
        try:
            return self._verdicts[key]
        except KeyError:
            reason = explain_problems(self.graph, self.machine, mapping)
            self._verdicts[key] = reason
            return reason

    def _validate(self, mapping: Mapping) -> None:
        """Raise :class:`MappingError` if ``mapping`` is invalid."""
        reason = self.invalid_reason(mapping)
        if reason is not None:
            raise MappingError(reason)

    def _resolve_spill(self, mapping: Mapping, key: tuple) -> Mapping:
        """The mapping execution would actually run, memoised per key.

        Only successful resolutions are cached: OOM outcomes re-raise on
        every call, preserving the counter semantics of the callers.
        """
        if self._spill_cache is not None:
            cached = self._spill_cache.get(key)
            if cached is not None:
                return cached
        if self.config.spill:
            executed = self.planner.apply_spill(mapping)
        else:
            self.planner.ensure_fits(mapping)
            executed = mapping
        if self._spill_cache is not None:
            self._spill_cache[key] = executed
        return executed

    # ------------------------------------------------------------------
    def spill_plan(self, mapping: Mapping) -> Mapping:
        """The mapping that :meth:`run` would actually execute.

        With spill enabled this applies the planner's demotions (no
        execution); otherwise it checks capacity (raising
        :class:`OOMError` like :meth:`run` would, but without touching
        the ``oom_attempts`` counter — this is a static query, not an
        attempted execution) and returns the mapping unchanged.  The
        bound-pruning layer prices *this* mapping, since the simulated
        makespan belongs to it.
        """
        key = mapping.key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached.executed_mapping
        return self._resolve_spill(mapping, key)

    # ------------------------------------------------------------------
    def trace(self, mapping: Mapping, label: str = ""):
        """Re-execute ``mapping`` with a span recorder attached.

        Returns ``(recorder, result)`` where the recorder holds the
        task / copy / launch-overhead spans of one deterministic
        execution (see :mod:`repro.obs.trace`) and ``result`` is a fresh
        :class:`SimResult` (no noise samples).

        Tracing is deliberately kept *off* the hot path: the memoised
        :meth:`run` never records, so searches pay zero overhead, and
        this method never reads or writes the memo cache or the
        ``executions`` counter, so a traced session's accounting — and
        therefore its report — is byte-identical to an untraced one.
        The executor is deterministic, so the traced makespan equals the
        cached one exactly.
        """
        from repro.obs.trace import TraceRecorder

        self._validate(mapping)
        executed = self._resolve_spill(mapping, mapping.key())
        recorder = TraceRecorder(label=label)
        report = self._executor.run(executed, recorder=recorder)
        result = SimResult(
            makespan=report.makespan,
            executed_mapping=executed,
            report=report,
        )
        return recorder, result

    # ------------------------------------------------------------------
    def memory_demand(self, mapping: Mapping):
        """Static footprint report for ``mapping`` (no execution)."""
        self._validate(mapping)
        return self.planner.check(mapping)

    def clear_cache(self) -> None:
        self._cache.clear()
        if self._spill_cache is not None:
            self._spill_cache.clear()
        self._verdicts.clear()
