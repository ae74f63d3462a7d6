"""The stateless tuning engine (paper Figure 4, right box).

The engine owns the search *logic* but none of the search *state*: a
single :class:`TuningEngine` instance serves any number of concurrent
tuning requests, each described by an immutable :class:`TuneRequest`
and materialised into a private :class:`PreparedTune` working set.  The
split exists for mapping-as-a-service (:mod:`repro.service`): a service
process keeps one engine and streams jobs through it.

A run builds the search space, instantiates the evaluation oracle with
the configured measurement protocol and budget, invokes the pluggable
search algorithm, and finishes with the final re-evaluation protocol of
§5: "as a final step of the search, the applications were executed with
each of the top 5 mappings 30 times; we report results for the mapping
with the fastest average runtime."
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.core.oracle import OracleConfig, SimulationOracle
from repro.core.profiles import ProfileDatabase
from repro.obs.telemetry import SearchTelemetry
from repro.obs.trace import TraceRecorder
from repro.machine.model import Machine
from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.resilience.checkpoint import CheckpointManager, TuningCheckpoint
from repro.runtime.simulator import SimConfig, Simulator
from repro.search.base import SearchAlgorithm, SearchResult
from repro.search.ccd import ConstrainedCoordinateDescent
from repro.search.cd import CoordinateDescent
from repro.search.ensemble import EnsembleTuner
from repro.search.random_search import RandomSearch
from repro.taskgraph.graph import TaskGraph
from repro.util.logging import get_logger, kv
from repro.util.rng import RngStream

__all__ = [
    "ALGORITHMS",
    "FINAL_CANDIDATES",
    "FINAL_RUNS",
    "TuningReport",
    "TuneRequest",
    "PreparedTune",
    "TuningEngine",
    "make_algorithm",
]

_LOG = get_logger("core.engine")

#: §5 protocol constants.
FINAL_CANDIDATES = 5
FINAL_RUNS = 31

_FACTORIES = {
    "ccd": ConstrainedCoordinateDescent,
    "cd": CoordinateDescent,
    "opentuner": EnsembleTuner,
    "random": RandomSearch,
}

#: The short names :func:`make_algorithm` accepts, sorted.
ALGORITHMS: Tuple[str, ...] = tuple(sorted(_FACTORIES))


def make_algorithm(name: str) -> SearchAlgorithm:
    """Construct a search algorithm by its short name."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown search algorithm {name!r}; "
            f"choose from {list(ALGORITHMS)}"
        ) from None


@dataclass
class TuningReport:
    """Everything one tuning run produced."""

    application: str
    machine_name: str
    algorithm: str
    best_mapping: Optional[Mapping]
    #: Mean over the final re-evaluation runs of the winning mapping.
    best_mean: float
    best_stddev: float
    search: SearchResult
    #: The final top candidates: (mapping, mean, stddev, sample count).
    finalists: List[Tuple[Mapping, float, float, int]] = field(
        default_factory=list
    )
    suggested: int = 0
    evaluated: int = 0
    invalid_suggestions: int = 0
    failed_evaluations: int = 0
    #: Simulated search-clock seconds and the fraction spent evaluating.
    search_seconds: float = 0.0
    evaluation_fraction: float = 0.0
    #: Static-analysis pruning statistics (0 with --no-static-prune).
    static_oom_pruned: int = 0
    canonical_folds: int = 0
    #: Bound-based pruning statistics (0 with --no-bound-prune or an
    #: algorithm that does not support pruning): candidates skipped
    #: because their static lower bound already exceeded the best-so-far,
    #: and how many of those were simulated after the search to rule
    #: them out of the finalist re-evaluation.
    bound_pruned: int = 0
    bound_settled: int = 0
    #: Canonicalizations the machine-symmetry orbit fold changed (0 on
    #: machines without interchangeable kinds).
    symmetry_folds: int = 0
    #: Novel mappings the runtime machinery processed (deterministic
    #: executions plus in-planner OOM discoveries).  Bounds run no
    #: engine, so an untraced tune's count equals its engine runs.
    #: After a resume this counts only the work done since the restart
    #: — checkpointed evaluations replay without touching the runtime
    #: machinery.
    simulations: int = 0
    #: Fault-tolerance accounting (repro.resilience).
    resumed: bool = False
    #: Evaluations reconstructed from the checkpoint's replay ledger.
    replayed: int = 0
    #: Checkpoints written during this run.
    checkpoints_written: int = 0
    #: Observability (repro.obs).  ``metrics`` is the full registry
    #: snapshot; ``telemetry`` the per-round summary (None when no
    #: telemetry sink was attached); ``trace``/``breakdown`` the best
    #: mapping's simulated execution trace and its time decomposition
    #: (None unless the engine ran with ``trace=True``).
    metrics: Optional[dict] = None
    telemetry: Optional[dict] = None
    trace: Optional[TraceRecorder] = None
    breakdown: Optional[dict] = None

    def describe(self) -> str:
        lines = [
            f"AutoMap tuning report — {self.application} on "
            f"{self.machine_name} via {self.algorithm}",
            f"  best mean time: {self.best_mean:.6f} s "
            f"(± {self.best_stddev:.6f})",
            f"  suggested {self.suggested}, evaluated {self.evaluated} "
            f"({self.invalid_suggestions} invalid, "
            f"{self.failed_evaluations} failed)",
            f"  search time {self.search_seconds:.1f} s simulated, "
            f"{self.evaluation_fraction:.0%} evaluating",
            f"  static analysis: {self.simulations} simulations run, "
            f"{self.static_oom_pruned} OOM proven statically, "
            f"{self.canonical_folds} suggestions folded",
        ]
        if self.bound_pruned or self.bound_settled:
            lines.append(
                f"  bound pruning: {self.bound_pruned} candidates pruned "
                f"by static lower bounds, {self.bound_settled} settled "
                f"after the search"
            )
        if self.symmetry_folds:
            lines.append(
                f"  machine symmetry: {self.symmetry_folds} suggestions "
                f"folded onto relabeled twins"
            )
        if self.resumed or self.replayed:
            lines.append(
                f"  resume: {self.replayed} evaluations replayed from "
                f"checkpoint"
            )
        if self.checkpoints_written:
            lines.append(
                f"  checkpoints: {self.checkpoints_written} written"
            )
        if self.telemetry is not None:
            lines.append(
                f"  telemetry: {self.telemetry['rounds']} rounds, "
                f"{self.telemetry['wall_seconds']:.1f} s wall"
            )
        if self.breakdown is not None:
            lines.append(
                f"  best-mapping time: "
                f"{self.breakdown['compute_fraction']:.0%} compute, "
                f"{self.breakdown['copy_fraction']:.0%} copy, "
                f"{self.breakdown['overhead_fraction']:.0%} overhead, "
                f"{self.breakdown['idle_fraction']:.0%} idle "
                f"({self.breakdown['active_processors']} processors)"
            )
        if self.best_mapping is not None:
            lines.append("  best mapping:")
            for line in self.best_mapping.describe().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TuneRequest:
    """Everything one tuning run consumes, as one immutable value.

    A request is pure input: constructing one performs no work and
    allocates no run state, so requests can be built ahead of time,
    queued, and handed to a shared :class:`TuningEngine` (possibly from
    several jobs in flight at once — each :meth:`TuningEngine.prepare`
    call materialises its own private working set).
    """

    graph: TaskGraph
    machine: Machine
    algorithm: Union[str, SearchAlgorithm] = "ccd"
    oracle_config: Optional[OracleConfig] = None
    sim_config: Optional[SimConfig] = None
    seed: int = 0
    #: A caller-provided space may restrict the searched kinds (fixed
    #: decisions, §3.3) — e.g. Maestro tunes only the LF ensemble.
    space: Optional[SearchSpace] = None
    static_prune: bool = True
    bound_prune: bool = True
    bound_order: bool = True
    checkpoint_path: Optional[Union[str, Path]] = None
    checkpoint_every: int = 0
    resume_checkpoint: Optional[TuningCheckpoint] = None
    observers: Optional[
        Tuple[Callable[[SimulationOracle], None], ...]
    ] = None
    telemetry: Optional[SearchTelemetry] = None
    trace: bool = False

    def with_(self, **changes) -> "TuneRequest":
        return replace(self, **changes)


class PreparedTune:
    """One request's materialised working set: the pruned search space,
    the simulator, and the static analyzers.  All per-run state lives
    here (or deeper, in the oracle built per :meth:`TuningEngine.run`
    call) — never on the engine."""

    def __init__(self, request: TuneRequest) -> None:
        self.request = request
        self.graph = request.graph
        self.machine = request.machine
        self.algorithm = (
            make_algorithm(request.algorithm)
            if isinstance(request.algorithm, str)
            else request.algorithm
        )
        self.oracle_config = request.oracle_config or OracleConfig()
        self.sim_config = request.sim_config or SimConfig()
        self.space = request.space or SearchSpace(
            request.graph, request.machine
        )
        self.simulator = Simulator(
            request.graph, request.machine, self.sim_config
        )

        self.checkpoint_path = (
            None
            if request.checkpoint_path is None
            else Path(request.checkpoint_path)
        )
        if request.resume_checkpoint is not None:
            request.resume_checkpoint.verify_matches(
                request.graph.name,
                request.machine.name,
                self.algorithm.name,
                request.seed,
            )

        # Static pre-simulation pruning (repro.analysis).  The
        # canonicalizer is placement-exact and always safe; the memory
        # feasibility pass proves the *failure* the oracle would report,
        # which only exists when overflow fails instead of spilling, so
        # it is gated on ``spill=False``.
        self.canonicalizer = None
        self.feasibility = None
        if request.static_prune:
            from repro.analysis.canonical import Canonicalizer
            from repro.analysis.memfeas import StaticMemoryFeasibility

            self.canonicalizer = Canonicalizer(request.graph, request.machine)
            if not self.sim_config.spill:
                self.feasibility = StaticMemoryFeasibility(
                    request.graph,
                    request.machine,
                    planner=self.simulator.planner,
                )
            self.space = self.space.prune_infeasible(
                feasibility=self.feasibility,
                canonicalizer=self.canonicalizer,
            )

        # Bound-based pruning (repro.analysis.bounds): skip candidates
        # whose makespan lower bound already exceeds the best-so-far.  Only sound when (a) the algorithm compares
        # outcomes against an incumbent rather than consuming the
        # numbers, (b) performance is the default makespan mean (a lower
        # bound on makespan says nothing about a custom metric), and
        # (c) no evaluation-count or simulated-clock budget is set —
        # pruned candidates skip the evaluation counter and the
        # simulated evaluation time, so such budgets would exhaust at a
        # different point and change the trajectory.  A wall-clock
        # budget (inherently timing-dependent) is not gated.
        self.bounds = None
        if (
            request.bound_prune
            and getattr(self.algorithm, "supports_bound_pruning", False)
            and self.oracle_config.metric is None
            and self.oracle_config.max_evaluations is None
            and self.oracle_config.max_sim_seconds is None
        ):
            from repro.analysis.bounds import StaticBoundAnalyzer

            self.bounds = StaticBoundAnalyzer(
                request.graph, request.machine, engine=self.simulator.engine
            )

        # Best-bound-first ordering: CD-family algorithms visit each
        # coordinate's move-set in ascending static-lower-bound order
        # and start from a bound-guided seed, so the incumbent tightens
        # early and (when pruning is also on) more of the tail is
        # skipped.  The strict-improvement accept rule is untouched, but
        # the start and the visit order decide which local optimum the
        # descent reaches, so ordering can change the result: on Fig 6c
        # Pennant 320x5760 on one node, CCD reaches 0.62x the default
        # mapper from the bound-guided start against 1.19x from the
        # default start (DESIGN.md; ROADMAP, start policy).  It is gated
        # only on the algorithm family.
        self.order_bounds = None
        if request.bound_order and isinstance(
            self.algorithm, CoordinateDescent
        ):
            if self.bounds is not None:
                self.order_bounds = self.bounds
            else:
                from repro.analysis.bounds import StaticBoundAnalyzer

                self.order_bounds = StaticBoundAnalyzer(
                    request.graph,
                    request.machine,
                    engine=self.simulator.engine,
                )


class TuningEngine:
    """A stateless tuning engine.

    The engine holds no per-run attributes: :meth:`prepare` materialises
    a request into its own :class:`PreparedTune`, :meth:`run` threads
    every piece of run state through locals, and :meth:`tune` composes
    the two.  One engine instance can therefore serve many requests —
    sequentially or from several worker threads — without any
    cross-contamination, which is the property the mapping service
    (:mod:`repro.service`) builds on.
    """

    # ------------------------------------------------------------------
    def prepare(self, request: TuneRequest) -> PreparedTune:
        """Materialise ``request``'s working set (space pruning, static
        analyzers, simulator) without starting the search."""
        return PreparedTune(request)

    # ------------------------------------------------------------------
    def tune(self, request: TuneRequest) -> TuningReport:
        """Run the full search + final re-evaluation protocol."""
        return self.run(self.prepare(request))

    # ------------------------------------------------------------------
    def run(
        self,
        prepared: PreparedTune,
        start: Optional[Mapping] = None,
    ) -> TuningReport:
        """Run the search + final re-evaluation over a prepared request,
        from ``start`` when given (otherwise from the bound-guided seed
        or the algorithm's default).

        When a checkpoint path is configured, the search state is
        snapshotted atomically every ``checkpoint_every`` evaluations
        and on :class:`KeyboardInterrupt` (which is then re-raised), so
        a killed run can be continued with ``resume_checkpoint`` — to a
        bit-identical result (see :mod:`repro.resilience.checkpoint`).
        """
        request = prepared.request
        algorithm = prepared.algorithm
        telemetry = request.telemetry

        profiles = ProfileDatabase()
        oracle = SimulationOracle(
            prepared.simulator,
            prepared.oracle_config,
            profiles,
            canonicalizer=prepared.canonicalizer,
            feasibility=prepared.feasibility,
            bounds=prepared.bounds,
        )
        rng = RngStream(request.seed).fork("search", algorithm.name)

        if request.resume_checkpoint is not None:
            oracle.install_replay(
                request.resume_checkpoint.replay_ledger()
            )
            _LOG.info(
                kv(
                    "resume",
                    records=len(request.resume_checkpoint.entries),
                    evaluated=request.resume_checkpoint.evaluated,
                    cursor=str(request.resume_checkpoint.cursor),
                )
            )

        manager: Optional[CheckpointManager] = None
        if prepared.checkpoint_path is not None:
            manager = CheckpointManager(
                prepared.checkpoint_path,
                oracle,
                application=request.graph.name,
                machine_name=request.machine.name,
                algorithm_name=algorithm.name,
                seed=request.seed,
                every=request.checkpoint_every,
                rng=rng,
                algorithm=algorithm,
            )
            oracle.observers.append(manager.on_evaluation)
        oracle.observers.extend(request.observers or ())

        _LOG.info(
            kv(
                "tune-start",
                app=request.graph.name,
                machine=request.machine.name,
                algorithm=algorithm.name,
                space_log2=round(prepared.space.log2_size(), 1),
                resume=request.resume_checkpoint is not None,
            )
        )
        if prepared.order_bounds is not None and start is None:
            from repro.analysis.bounds import bound_guided_mapping

            start = bound_guided_mapping(
                prepared.space, prepared.order_bounds
            )
        try:
            algorithm.telemetry = telemetry
            if prepared.order_bounds is not None:
                algorithm.bound_analyzer = prepared.order_bounds
            result = algorithm.search(
                prepared.space, oracle, rng, start=start
            )

            # Bound-pruned candidates have no profile record; any that
            # could plausibly rank among the finalists is simulated (and
            # charged to the search clock) now so the finalist selection
            # below sees exactly the records an unpruned run would have
            # ranked.
            oracle.settle_pruned(FINAL_CANDIDATES)

            # Final step (§5): re-measure the top candidates with more
            # runs and report the fastest average.
            finalists: List[Tuple[Mapping, float, float, int]] = []
            for record in profiles.best(FINAL_CANDIDATES):
                extra = max(0, FINAL_RUNS - record.count)
                if extra:
                    oracle.measure_more(record.mapping, extra)
                finalists.append(
                    (record.mapping, record.mean, record.stddev, record.count)
                )
            finalists.sort(key=lambda item: item[1])
        except KeyboardInterrupt:
            # Ctrl-C / SIGINT mid-tune: flush a final checkpoint so the
            # interrupted session is resumable, then let the interrupt
            # propagate (the CLI turns it into exit status 130).
            if manager is not None:
                manager.flush()
                _LOG.info(
                    kv("interrupt-checkpoint", path=str(manager.path))
                )
            raise
        finally:
            algorithm.telemetry = None
            if prepared.order_bounds is not None:
                algorithm.bound_analyzer = None
            if telemetry is not None:
                telemetry.close()
        if manager is not None:
            manager.flush()

        if finalists:
            best_mapping, best_mean, best_stddev, _ = finalists[0]
        else:
            best_mapping = result.best_mapping
            best_mean = result.best_performance
            best_stddev = math.nan

        # Deterministic trace of the winner: a fresh re-execution with
        # the recorder on.  Off the search path entirely (the memo cache
        # and execution counters are untouched), so a traced run's
        # report is byte-identical to an untraced one.
        trace_recorder: Optional[TraceRecorder] = None
        breakdown: Optional[dict] = None
        if request.trace and best_mapping is not None:
            trace_recorder, _ = prepared.simulator.trace(
                oracle.canonical(best_mapping),
                label=(
                    f"{request.graph.name} on {request.machine.name} "
                    f"({algorithm.name} best)"
                ),
            )
            breakdown = trace_recorder.breakdown()

        # The analysis gauge rides along in the metrics snapshot.  It is
        # deterministic across checkpoint/resume: the orbit fold runs
        # before the replay ledger is consulted, so a resumed run
        # re-derives the same fold count.
        metrics = oracle.metrics.as_dict()
        gauges = metrics.setdefault("gauges", {})
        gauges["analysis.symmetry_folds"] = float(oracle.symmetry_folds)

        report = TuningReport(
            application=request.graph.name,
            machine_name=request.machine.name,
            algorithm=algorithm.name,
            best_mapping=best_mapping,
            best_mean=best_mean,
            best_stddev=best_stddev,
            search=result,
            finalists=finalists,
            suggested=oracle.suggested,
            evaluated=oracle.evaluated,
            invalid_suggestions=oracle.invalid_suggestions,
            failed_evaluations=oracle.failed_evaluations,
            search_seconds=oracle.sim_elapsed,
            evaluation_fraction=oracle.evaluation_fraction,
            static_oom_pruned=oracle.static_oom_pruned,
            canonical_folds=oracle.canonical_folds,
            bound_pruned=oracle.bound_pruned,
            bound_settled=oracle.bound_settled,
            symmetry_folds=oracle.symmetry_folds,
            simulations=(
                prepared.simulator.executions
                + prepared.simulator.oom_attempts
            ),
            resumed=request.resume_checkpoint is not None,
            replayed=oracle.replayed,
            checkpoints_written=0 if manager is None else manager.saves,
            metrics=metrics,
            telemetry=(
                None if telemetry is None else telemetry.summary()
            ),
            trace=trace_recorder,
            breakdown=breakdown,
        )
        _LOG.info(
            kv(
                "tune-done",
                app=request.graph.name,
                best=best_mean,
                evaluated=oracle.evaluated,
            )
        )
        return report

    # ------------------------------------------------------------------
    def measure(
        self,
        prepared: PreparedTune,
        mapping: Mapping,
        runs: int = FINAL_RUNS,
    ) -> float:
        """Mean of ``runs`` noisy measurements of one mapping (used to
        score baseline mappings outside the search)."""
        result = prepared.simulator.run(mapping, runs=runs)
        return result.mean
