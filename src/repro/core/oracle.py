"""The evaluation oracle: measure candidate mappings like the real system.

One ``evaluate`` call corresponds to AutoMap asking the runtime to execute
the application under a candidate mapping.  The oracle reproduces the
measurement protocol of §5 and the accounting of §5.3:

* every candidate is *suggested*; invalid candidates (addressability /
  variant violations) are rejected with a high value without execution;
* previously-measured candidates return their recorded profile (dedup);
* new valid candidates are executed ``runs_per_eval`` times (default 7)
  and the average is the reported performance; out-of-memory failures
  are recorded and reported as failed;
* a simulated search clock advances by the measured sample times plus a
  per-suggestion overhead, giving Figure 9's x-axis (search time) and
  §5.3's evaluating-time fraction without needing hours of wall clock.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TypeVar,
)

from repro.analysis.bounds import FLOAT_SAFETY
from repro.obs.metrics import MetricsRegistry, WallBudget
from repro.resilience.checkpoint import ReplayEntry
from repro.runtime.executor import ExecutionReport

from repro.core.profiles import ProfileDatabase
from repro.mapping.mapping import Mapping
from repro.mapping.validate import explain_invalid
from repro.runtime.memory import OOMError
from repro.runtime.simulator import Simulator
from repro.search.base import INFEASIBLE, EvalOutcome, TracePoint
from repro.util.logging import get_logger, kv

__all__ = ["OracleConfig", "SimulationOracle"]

_LOG = get_logger("core.oracle")

T = TypeVar("T")


class _CandidateBound:
    """One candidate's lower bound on its measured mean, priced in two
    tiers on the spill-planned mapping ``executed``: ``quick`` (critical
    path and load) when the entry is created, ``full`` (adds the traffic
    walk and schedule replay) only when a decision needs it.  Both are
    scaled by the same noise ``factor`` and ``FLOAT_SAFETY``, and the
    analyzer's quick bound is the max over a subset of the full bound's
    floats, so ``quick <= full`` exactly."""

    __slots__ = ("executed", "factor", "quick", "full")

    def __init__(self, executed: Mapping, factor: float, quick: float):
        self.executed = executed
        self.factor = factor
        self.quick = quick
        self.full: Optional[float] = None


def best_bound_first(
    items: Iterable[T],
    quick: Callable[[T], Optional[float]],
    full: Callable[[T], float],
    cutoff: Callable[[], float],
) -> Iterator[T]:
    """Yield ``items`` in ascending ``full`` order, computing ``full``
    only for items that reach the front.

    The order is exactly a stable sort by full bound: equal bounds keep
    input order, and items without a bound (``quick`` is ``None``) come
    first.  Each item enters a heap keyed ``(quick, index)`` and is
    re-keyed ``(full, index)`` when it first reaches the front; since
    ``quick <= full``, an item popped with its full key is below every
    remaining item's full key.  Iteration stops as soon as the front key
    exceeds ``cutoff()`` (read before every item, so it may tighten as
    the caller consumes items): every remaining full bound is at least
    that key.
    """
    heap = []
    for index, item in enumerate(items):
        value = quick(item)
        if value is None:
            heap.append((-math.inf, index, True, item))
        else:
            heap.append((value, index, False, item))
    heapq.heapify(heap)
    while heap:
        value, index, refined, item = heap[0]
        if value > cutoff():
            return
        if refined:
            heapq.heappop(heap)
            yield item
        else:
            heapq.heapreplace(heap, (full(item), index, True, item))


@dataclass(frozen=True)
class OracleConfig:
    """Measurement protocol and budget for one search.

    Attributes
    ----------
    runs_per_eval:
        Noisy executions averaged per candidate (paper: 7).
    suggestion_overhead:
        Simulated seconds of driver/tuner overhead charged per suggestion.
        Generic tuners pay this ~157 000 times on Pennant while CCD pays
        it ~2 000 times — the mechanism behind §5.3's "OpenTuner spends
        as little as 13 % of the search time evaluating candidates".
    max_evaluations:
        Stop after this many *executed* candidates (None = unlimited).
    max_suggestions:
        Stop after this many suggestions, executed or not (None =
        unlimited) — bounds tuners whose duplicate/invalid proposals
        never count as evaluations.
    max_sim_seconds:
        Stop once the simulated search clock passes this (None =
        unlimited) — the paper's time-limited search mode (§3.3).
    max_wall_seconds:
        Real wall-clock safety limit (None = unlimited).
    metric:
        Optional objective extracting a scalar (lower = better) from the
        execution report.  Defaults to total makespan; §5.1's Maestro
        experiment minimises the finish time of the high-fidelity kinds
        only ("AutoMap is suitable for minimizing other metrics", §3.3).
    """

    runs_per_eval: int = 7
    suggestion_overhead: float = 1e-3
    max_evaluations: Optional[int] = None
    max_suggestions: Optional[int] = None
    max_sim_seconds: Optional[float] = None
    max_wall_seconds: Optional[float] = None
    metric: Optional[Callable[[ExecutionReport], float]] = None


class SimulationOracle:
    """Concrete :class:`repro.search.base.Oracle` over the simulator."""

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[OracleConfig] = None,
        profiles: Optional[ProfileDatabase] = None,
        canonicalizer=None,
        feasibility=None,
        bounds=None,
    ) -> None:
        self.simulator = simulator
        self.config = config or OracleConfig()
        self.profiles = profiles if profiles is not None else ProfileDatabase()
        #: optional :class:`repro.analysis.canonical.Canonicalizer`:
        #: valid candidates are folded onto their canonical equivalence
        #: representative before lookup/execution, so equivalent
        #: suggestions share one profile record.
        self.canonicalizer = canonicalizer
        #: optional :class:`repro.analysis.memfeas.StaticMemoryFeasibility`:
        #: candidates statically proven to overflow memory short-circuit
        #: to the same failed outcome the runtime OOM would produce,
        #: without paying for a simulation.  Only sound when the
        #: simulator fails (rather than spills) on overflow, so the
        #: driver gates it on ``spill=False``.
        self.feasibility = feasibility
        #: optional :class:`repro.analysis.bounds.StaticBoundAnalyzer`:
        #: once an incumbent exists, candidates whose sound makespan
        #: lower bound already meets or exceeds it are rejected without
        #: simulation.  Because the bound provably under-estimates the
        #: measured mean and every search accepts only strict
        #: improvements, the pruned search takes the exact same
        #: trajectory as the unpruned one.  The driver gates this on
        #: algorithms that only *compare* outcomes (CD/CCD/random) and
        #: on the default makespan metric.
        self.bounds = bounds
        #: All evaluation accounting lives in one metrics registry
        #: (:mod:`repro.obs.metrics`); the attribute-style reads the
        #: rest of the system does (``oracle.suggested``, ...) are
        #: registry-backed properties below.  Metrics are derived state:
        #: checkpoints serialize them for inspection but resume never
        #: restores them — the deterministic replay re-derives every
        #: value, which is what keeps resume bit-identical.
        self.metrics = MetricsRegistry()
        self._suggested = self.metrics.counter("oracle.suggested")
        self._evaluated = self.metrics.counter("oracle.evaluated")
        self._invalid = self.metrics.counter("oracle.invalid_suggestions")
        self._failed = self.metrics.counter("oracle.failed_evaluations")
        #: suggestions folded onto a different canonical mapping.
        self._folds = self.metrics.counter("oracle.canonical_folds")
        #: failed evaluations proven statically (no simulation paid).
        self._pruned = self.metrics.counter("oracle.static_oom_pruned")
        #: candidates rejected because their static lower bound proved
        #: they cannot beat the incumbent (no simulation paid).
        self._bound_pruned = self.metrics.counter("oracle.bound_pruned")
        #: pruned candidates evaluated after the search because they
        #: could have reached the final-candidate stage.
        self._bound_settled = self.metrics.counter("oracle.bound_settled")
        #: simulated search clock (seconds).
        self._sim_elapsed = self.metrics.counter("oracle.sim_elapsed")
        #: simulated seconds spent executing candidates (vs suggesting).
        self._sim_evaluating = self.metrics.counter("oracle.sim_evaluating")
        #: Evaluations served from the replay ledger (reporting only).
        self._replayed = self.metrics.counter("oracle.replayed")
        #: Deterministic makespans of executed candidates.
        self._makespans = self.metrics.histogram("oracle.eval_makespan")
        self._best_gauge = self.metrics.gauge("oracle.best_performance")
        self.best_performance = math.inf
        self.best_mapping: Optional[Mapping] = None
        self.trace: List[TracePoint] = []
        self._wall = WallBudget(max_seconds=self.config.max_wall_seconds)
        #: Post-evaluation hooks (checkpoint managers, test probes);
        #: each is called with the oracle after every ``evaluate``.
        self.observers: List[Callable[["SimulationOracle"], None]] = []
        #: Resume support: evaluations reconstructed from a checkpoint,
        #: consumed the first time the replayed search re-suggests them.
        self._replay: Dict[tuple, ReplayEntry] = {}
        #: Bound-pruned candidates in pruning order (canonical key →
        #: mapping), revisited by :meth:`settle_pruned`.
        self._bound_ledger: Dict[tuple, Mapping] = {}
        #: Per-candidate tiered bound on measured mean (None = no sound
        #: bound).
        self._bound_cache: Dict[tuple, Optional[_CandidateBound]] = {}
        #: Keys whose profile records exist only because of settling —
        #: excluded from checkpoint replay ledgers, since an
        #: uninterrupted run never *evaluated* them.
        self._settled_keys: set = set()

    # ------------------------------------------------------------------
    # Registry-backed accounting (attribute API preserved)
    # ------------------------------------------------------------------
    @property
    def suggested(self) -> int:
        return self._suggested.value

    @property
    def evaluated(self) -> int:
        return self._evaluated.value

    @property
    def invalid_suggestions(self) -> int:
        return self._invalid.value

    @property
    def failed_evaluations(self) -> int:
        return self._failed.value

    @property
    def canonical_folds(self) -> int:
        return self._folds.value

    @property
    def static_oom_pruned(self) -> int:
        return self._pruned.value

    @property
    def sim_elapsed(self) -> float:
        return self._sim_elapsed.value

    @property
    def sim_evaluating(self) -> float:
        return self._sim_evaluating.value

    @property
    def replayed(self) -> int:
        return self._replayed.value

    @property
    def bound_pruned(self) -> int:
        return self._bound_pruned.value

    @property
    def bound_settled(self) -> int:
        return self._bound_settled.value

    @property
    def symmetry_folds(self) -> int:
        """Canonicalizations the machine-symmetry orbit fold changed
        (a subset of :attr:`canonical_folds`; 0 without a
        canonicalizer).  Deterministic across resume: the fold runs
        before the replay ledger is consulted."""
        if self.canonicalizer is None:
            return 0
        return getattr(self.canonicalizer, "symmetry_folds", 0)

    @property
    def settled_keys(self) -> frozenset:
        """Canonical keys of profile records created by settling."""
        return frozenset(self._settled_keys)

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        cfg = self.config
        if (
            cfg.max_evaluations is not None
            and self.evaluated >= cfg.max_evaluations
        ):
            return True
        if (
            cfg.max_suggestions is not None
            and self.suggested >= cfg.max_suggestions
        ):
            return True
        if (
            cfg.max_sim_seconds is not None
            and self.sim_elapsed >= cfg.max_sim_seconds
        ):
            return True
        return self._wall.exhausted

    @property
    def evaluation_fraction(self) -> float:
        """Fraction of the simulated search time spent evaluating
        candidate mappings (§5.3)."""
        if self.sim_elapsed <= 0:
            return 0.0
        return self.sim_evaluating / self.sim_elapsed

    def canonical(self, mapping: Mapping) -> Mapping:
        """The representative actually measured for ``mapping`` (the
        mapping itself without a canonicalizer)."""
        if self.canonicalizer is None:
            return mapping
        return self.canonicalizer.canonical(mapping)

    # ------------------------------------------------------------------
    # Resume: the replay ledger (see repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    def install_replay(self, entries: Dict[tuple, ReplayEntry]) -> None:
        """Install checkpointed evaluations for deterministic replay.

        When the resumed search first re-suggests a ledgered mapping,
        the oracle reproduces the original execution from the entry —
        identical samples, clock advance, counters, and trace point —
        without running the simulator.  Because every search algorithm
        is a deterministic function of the oracle's answers, the
        replayed run retraces the original trajectory exactly and then
        seamlessly continues past the checkpoint.
        """
        self._replay = dict(entries)

    def replay_pending(self, mapping: Mapping) -> bool:
        """Whether ``mapping`` has a not-yet-consumed ledger entry (the
        batch layer skips prefetching those — replay is free)."""
        return bool(self._replay) and mapping.key() in self._replay

    def pending_replay_entries(self) -> List[ReplayEntry]:
        """Ledger entries the replayed search has not reached yet
        (carried forward when a resumed run is checkpointed again)."""
        return list(self._replay.values())

    def _replay_execution(
        self, mapping: Mapping, entry: ReplayEntry
    ) -> EvalOutcome:
        """Reproduce one checkpointed execution, advancing every piece
        of accounting exactly as the original execution did."""
        self._replayed.inc()
        if entry.failed:
            self._failed.inc()
            if entry.static_oom:
                self._pruned.inc()
            self.profiles.record(
                mapping,
                [],
                failed=True,
                reason=entry.reason,
                static_oom=entry.static_oom,
            )
            return EvalOutcome(
                performance=INFEASIBLE, failed=True, reason=entry.reason
            )
        samples = list(entry.samples)
        eval_seconds = entry.makespan * self.config.runs_per_eval
        self._sim_elapsed.inc(eval_seconds)
        self._sim_evaluating.inc(eval_seconds)
        self._evaluated.inc()
        self._makespans.observe(entry.makespan)
        performance = sum(samples) / len(samples)
        self.profiles.record(mapping, samples, makespan=entry.makespan)
        if performance < self.best_performance:
            self.best_performance = performance
            self.best_mapping = mapping
            self._best_gauge.set(performance)
        self.trace.append(
            TracePoint(
                elapsed=self.sim_elapsed,
                evaluations=self.evaluated,
                suggested=self.suggested,
                best_performance=self.best_performance,
            )
        )
        return EvalOutcome(performance=performance)

    def _notify(self) -> None:
        for observer in self.observers:
            observer(self)

    # ------------------------------------------------------------------
    def evaluate(self, mapping: Mapping) -> EvalOutcome:
        """Measure one candidate per the protocol described above."""
        outcome = self._evaluate(mapping)
        self._notify()
        return outcome

    def _evaluate(self, mapping: Mapping) -> EvalOutcome:
        self._suggested.inc()
        self._sim_elapsed.inc(self.config.suggestion_overhead)

        reason = explain_invalid(
            self.simulator.graph, self.simulator.machine, mapping
        )
        if reason is not None:
            self._invalid.inc()
            return EvalOutcome(
                performance=INFEASIBLE, invalid=True, reason=reason
            )

        canonical = self.canonical(mapping)
        if canonical.key() != mapping.key():
            self._folds.inc()
        mapping = canonical

        record = self.profiles.lookup(mapping)
        if record is not None:
            if record.failed:
                return EvalOutcome(
                    performance=INFEASIBLE,
                    failed=True,
                    cached=True,
                    reason=record.reason,
                )
            return EvalOutcome(performance=record.mean, cached=True)

        if self._replay:
            entry = self._replay.pop(mapping.key(), None)
            if entry is not None:
                return self._replay_execution(mapping, entry)

        if self.feasibility is not None:
            oom = self.feasibility.oom_reason(mapping)
            if oom is not None:
                # Same accounting and (byte-identical) reason as the
                # runtime OOM below — just without the simulation.
                self._failed.inc()
                self._pruned.inc()
                self.profiles.record(
                    mapping, [], failed=True, reason=oom, static_oom=True
                )
                return EvalOutcome(
                    performance=INFEASIBLE, failed=True, reason=oom
                )

        lb_perf = self._pruning_bound(mapping)
        if lb_perf is not None:
            self._bound_pruned.inc()
            self._bound_ledger.setdefault(mapping.key(), mapping)
            # Not recorded in profiles: the measured mean is unknown.
            # The pessimistic-but-sound performance makes every
            # strict-improvement search reject the candidate exactly as
            # a real measurement would have.
            return EvalOutcome(
                performance=lb_perf,
                reason=(
                    f"bound-pruned: static lower bound {lb_perf:.6g}s >= "
                    f"incumbent best {self.best_performance:.6g}s"
                ),
            )

        try:
            result = self.simulator.run(mapping)
        except OOMError as exc:
            self._failed.inc()
            self.profiles.record(mapping, [], failed=True, reason=str(exc))
            return EvalOutcome(
                performance=INFEASIBLE, failed=True, reason=str(exc)
            )

        samples = self._measure(mapping, result.report, result.makespan, 0)
        # The search clock pays for whole-application runs regardless of
        # which component the objective metric extracts.
        eval_seconds = result.makespan * self.config.runs_per_eval
        self._sim_elapsed.inc(eval_seconds)
        self._sim_evaluating.inc(eval_seconds)
        self._evaluated.inc()
        self._makespans.observe(result.makespan)
        performance = sum(samples) / len(samples)
        self.profiles.record(mapping, samples, makespan=result.makespan)
        if performance < self.best_performance:
            self.best_performance = performance
            self.best_mapping = mapping
            self._best_gauge.set(performance)
            _LOG.debug(
                kv("new-best", perf=performance, evaluated=self.evaluated)
            )
        self.trace.append(
            TracePoint(
                elapsed=self.sim_elapsed,
                evaluations=self.evaluated,
                suggested=self.suggested,
                best_performance=self.best_performance,
            )
        )
        return EvalOutcome(performance=performance)

    # ------------------------------------------------------------------
    # Bound-based pruning (see repro.analysis.bounds)
    # ------------------------------------------------------------------
    def _candidate_bound(
        self, mapping: Mapping
    ) -> Optional[_CandidateBound]:
        """The tiered lower bound on the mean performance
        :meth:`_evaluate` would report for ``mapping`` (already
        canonical), or ``None`` when no sound bound exists.

        The makespan bound is priced on the mapping the simulator would
        actually execute (spill demotions applied) and scaled by the
        candidate's exact mean noise factor; the extra ``FLOAT_SAFETY``
        deflation dwarfs the rounding of the sample-mean sum.  Only the
        quick tier is priced here; :meth:`_full_bound` adds the rest.
        """
        key = mapping.key()
        if key in self._bound_cache:
            return self._bound_cache[key]
        try:
            executed = self.simulator.spill_plan(mapping)
        except OOMError:
            # Let the normal path record the runtime OOM failure.
            bound: Optional[_CandidateBound] = None
        else:
            factor = self.simulator.noise.mean_factor(
                key, self.config.runs_per_eval
            )
            quick = self.bounds.quick_bound(executed) * factor * FLOAT_SAFETY
            bound = _CandidateBound(executed, factor, quick)
        self._bound_cache[key] = bound
        return bound

    def _full_bound(self, bound: _CandidateBound) -> float:
        """The full-tier value of ``bound``, walking traffic once."""
        if bound.full is None:
            lower = self.bounds.lower_bound(bound.executed)
            bound.full = lower * bound.factor * FLOAT_SAFETY
        return bound.full

    def _pruning_bound(self, mapping: Mapping) -> Optional[float]:
        """The bound that proves ``mapping`` (canonical) cannot beat the
        incumbent right now, or ``None`` when it might.

        The quick tier decides whenever it already reaches the
        incumbent; the full tier is priced only when the decision is
        still open.  Since ``quick <= full``, the decision is the one
        the full bound alone would make."""
        if self.bounds is None or self.config.metric is not None:
            return None
        best = self.best_performance
        if not math.isfinite(best):
            return None
        bound = self._candidate_bound(mapping)
        if bound is None:
            return None
        if bound.quick >= best:
            return bound.quick
        full = self._full_bound(bound)
        return full if full >= best else None

    def would_bound_prune(self, mapping: Mapping) -> bool:
        """Whether :meth:`evaluate` would reject ``mapping`` (canonical)
        on its static bound right now.  Used by the batch layer to skip
        prefetching doomed candidates; monotone over a search, since the
        incumbent only improves."""
        return self._pruning_bound(mapping) is not None

    def settle_pruned(self, top_n: int) -> int:
        """Measure the pruned candidates that could reach the top-``n``
        final-candidate stage, so the profiles database ranks finalists
        exactly as an unpruned run would.

        A pruned candidate is skipped only when its bound already
        exceeds the ``top_n``-th best recorded mean: its true mean is
        then provably worse, so it could not be a finalist in the
        unpruned run either.  Candidates settle best-bound-first (see
        :func:`best_bound_first`: ascending full bound, ties in pruning
        order) and the cut-off is recomputed before every candidate —
        each settled mean can only tighten (never relax) the
        ``top_n``-th best, so a skip against an intermediate threshold
        implies a skip against the final one, and the surviving top-``n``
        is exactly the unpruned run's.  Settled candidates get the exact
        offset-0 samples :meth:`_evaluate` would have drawn; search
        accounting (evaluated/failed counters, clocks, trace, best) is
        deliberately untouched — settling happens after the search.
        """
        settled = 0
        if not self._bound_ledger:
            return settled

        def threshold() -> float:
            ranked = self.profiles.best(top_n)
            return ranked[-1].mean if len(ranked) >= top_n else math.inf

        def quick(mapping: Mapping) -> Optional[float]:
            bound = self._candidate_bound(mapping)
            return None if bound is None else bound.quick

        def full(mapping: Mapping) -> float:
            return self._full_bound(self._candidate_bound(mapping))

        for mapping in best_bound_first(
            self._bound_ledger.values(), quick, full, threshold
        ):
            if self.profiles.lookup(mapping) is not None:
                continue
            key = mapping.key()
            if self.feasibility is not None:
                oom = self.feasibility.oom_reason(mapping)
                if oom is not None:
                    self.profiles.record(
                        mapping, [], failed=True, reason=oom, static_oom=True
                    )
                    self._settled_keys.add(key)
                    self._bound_settled.inc()
                    settled += 1
                    continue
            try:
                result = self.simulator.run(mapping)
            except OOMError as exc:
                self.profiles.record(
                    mapping, [], failed=True, reason=str(exc)
                )
            else:
                samples = self._measure(
                    mapping, result.report, result.makespan, 0
                )
                self.profiles.record(
                    mapping, samples, makespan=result.makespan
                )
            self._settled_keys.add(key)
            self._bound_settled.inc()
            settled += 1
        return settled

    # ------------------------------------------------------------------
    def kind_runtimes(self, mapping: Mapping) -> Dict[str, float]:
        """Per-kind busy seconds under ``mapping`` — the profiling signal
        used to order tasks by runtime (Alg. 1 line 6).  Falls back to
        total FLOPs when the mapping cannot execute."""
        mapping = self.canonical(mapping)
        try:
            result = self.simulator.run(mapping)
        except OOMError:
            return self.simulator.graph.kind_flops()
        return dict(result.report.kind_busy)

    def measure_more(self, mapping: Mapping, runs: int) -> List[float]:
        """Additional measurement runs for final reporting (§5: the top
        5 mappings are re-run 30+ times)."""
        mapping = self.canonical(mapping)
        result = self.simulator.run(mapping)
        record = self.profiles.lookup(mapping)
        offset = record.count if record is not None else 0
        samples = self._measure(
            mapping, result.report, result.makespan, offset, runs=runs
        )
        self.profiles.record(mapping, samples)
        self._sim_elapsed.inc(result.makespan * runs)
        self._sim_evaluating.inc(result.makespan * runs)
        return samples

    def _measure(
        self,
        mapping: Mapping,
        report,
        makespan: float,
        offset: int,
        runs: Optional[int] = None,
    ) -> List[float]:
        """Fresh noisy samples of the objective metric; ``offset`` keeps
        draws non-overlapping with earlier measurements of the same
        mapping."""
        base = (
            self.config.metric(report)
            if self.config.metric is not None
            else makespan
        )
        count = self.config.runs_per_eval if runs is None else runs
        return [
            self.simulator.noise.sample(base, mapping.key(), offset + i)
            for i in range(count)
        ]
