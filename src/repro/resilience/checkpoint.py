"""Checkpointed, resumable tuning sessions.

A tuning run is hours of oracle queries; a crash or preemption must not
lose it.  The checkpoint subsystem periodically serializes the full
search state to an atomically-replaced ``checkpoint.json``:

* every profile record with its **round-trippable mapping**, raw
  samples, deterministic makespan, and failure provenance (runtime OOM
  vs. statically proven);
* the oracle's accounting — suggested/evaluated/invalid/failed counters,
  canonicalization folds, static prunes, and the simulated search
  clock;
* the best-so-far mapping and performance;
* the search :class:`~repro.util.rng.RngStream` state and the
  algorithm's cursor (both informational — see below).

**The recovery-determinism contract.**  Resume does not teleport the
search algorithm to its interrupted program counter.  Instead, the saved
records are installed into the fresh oracle as a *replay ledger*: the
search re-runs from the beginning, and the first time it re-suggests a
mapping the ledger knows, the oracle reproduces the original execution —
same samples, same clock advance, same counter updates, same trace
point — without touching the simulator.  Every algorithm in this
repository is deterministic given the oracle's answers, so the replayed
search takes exactly the original trajectory (cheaply: ledger hits cost
a dictionary lookup), reaches the interruption point in the same state,
and continues.  A run killed at any checkpoint boundary and resumed is
therefore **bit-identical** to an uninterrupted run with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.mapping.io import mapping_from_doc, mapping_to_doc
from repro.mapping.mapping import Mapping
from repro.util.logging import get_logger, kv
from repro.util.serialization import dump_json, load_json

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.core
    from repro.core.oracle import SimulationOracle
    from repro.search.base import SearchAlgorithm
    from repro.util.rng import RngStream

__all__ = [
    "CHECKPOINT_FILENAME",
    "CheckpointManager",
    "CheckpointMismatch",
    "ReplayEntry",
    "TuningCheckpoint",
    "load_checkpoint",
    "try_load_checkpoint",
]

_LOG = get_logger("resilience.checkpoint")

_FORMAT = "automap-checkpoint-v1"

#: Default artifact name inside a working directory.
CHECKPOINT_FILENAME = "checkpoint.json"


class CheckpointMismatch(ValueError):
    """The checkpoint was produced by a different tuning problem."""


@dataclass(frozen=True)
class ReplayEntry:
    """One completed evaluation, ready to be replayed on resume."""

    mapping: Mapping
    samples: List[float]
    failed: bool = False
    reason: Optional[str] = None
    makespan: Optional[float] = None
    static_oom: bool = False

    def to_doc(self) -> dict:
        return {
            "kinds": mapping_to_doc(self.mapping),
            "samples": list(self.samples),
            "failed": self.failed,
            "reason": self.reason,
            "makespan": self.makespan,
            "static_oom": self.static_oom,
        }

    @staticmethod
    def from_doc(doc: dict) -> "ReplayEntry":
        return ReplayEntry(
            mapping=mapping_from_doc(doc["kinds"]),
            samples=list(doc["samples"]),
            failed=doc["failed"],
            reason=doc["reason"],
            makespan=doc["makespan"],
            static_oom=doc.get("static_oom", False),
        )


@dataclass
class TuningCheckpoint:
    """Full serialized state of one tuning run at a safe boundary."""

    application: str
    machine_name: str
    algorithm: str
    seed: int
    #: Oracle accounting at checkpoint time.  Informational: resume
    #: re-derives every counter by replaying the ledger, which is what
    #: guarantees bit-identity; these values let tools (and tests)
    #: inspect how far the run had progressed.
    suggested: int = 0
    evaluated: int = 0
    invalid_suggestions: int = 0
    failed_evaluations: int = 0
    canonical_folds: int = 0
    static_oom_pruned: int = 0
    bound_pruned: int = 0
    sim_elapsed: float = 0.0
    sim_evaluating: float = 0.0
    best_performance: Optional[float] = None
    best_mapping: Optional[Mapping] = None
    #: Full metrics-registry snapshot
    #: (:meth:`repro.obs.metrics.MetricsRegistry.as_dict`) at save time.
    #: Like the counters above this is *derived* state: resume never
    #: restores it — the replay re-derives every metric — so embedding
    #: it cannot perturb bit-identity.
    metrics: Optional[dict] = None
    #: Search-stream RNG snapshot and the algorithm's position at save
    #: time.  Diagnostic only — replay regenerates both exactly.
    rng_state: Optional[dict] = None
    cursor: dict = field(default_factory=dict)
    entries: List[ReplayEntry] = field(default_factory=list)

    # ------------------------------------------------------------------
    def replay_ledger(self) -> Dict[tuple, ReplayEntry]:
        """The saved evaluations keyed by canonical mapping identity,
        as consumed by
        :meth:`repro.core.oracle.SimulationOracle.install_replay`."""
        return {entry.mapping.key(): entry for entry in self.entries}

    def verify_matches(
        self,
        application: str,
        machine_name: str,
        algorithm: str,
        seed: int,
    ) -> None:
        """Refuse to resume into a different tuning problem — replaying
        foreign profiles would silently corrupt the search."""
        expected = (application, machine_name, algorithm, seed)
        actual = (
            self.application,
            self.machine_name,
            self.algorithm,
            self.seed,
        )
        if expected != actual:
            raise CheckpointMismatch(
                f"checkpoint is for app={self.application!r} "
                f"machine={self.machine_name!r} "
                f"algorithm={self.algorithm!r} seed={self.seed}; "
                f"the session requested app={application!r} "
                f"machine={machine_name!r} algorithm={algorithm!r} "
                f"seed={seed}"
            )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the checkpoint atomically (temp file + ``os.replace``):
        a crash mid-save leaves the previous checkpoint intact."""
        doc = {
            "format": _FORMAT,
            "application": self.application,
            "machine": self.machine_name,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "counters": {
                "suggested": self.suggested,
                "evaluated": self.evaluated,
                "invalid_suggestions": self.invalid_suggestions,
                "failed_evaluations": self.failed_evaluations,
                "canonical_folds": self.canonical_folds,
                "static_oom_pruned": self.static_oom_pruned,
                "bound_pruned": self.bound_pruned,
                "sim_elapsed": self.sim_elapsed,
                "sim_evaluating": self.sim_evaluating,
            },
            "best": {
                "performance": self.best_performance,
                "mapping": (
                    None
                    if self.best_mapping is None
                    else mapping_to_doc(self.best_mapping)
                ),
            },
            "metrics": self.metrics,
            "rng_state": self.rng_state,
            "cursor": self.cursor,
            "records": [entry.to_doc() for entry in self.entries],
        }
        dump_json(doc, path)

    @staticmethod
    def from_doc(doc: dict) -> "TuningCheckpoint":
        if doc.get("format") != _FORMAT:
            raise ValueError(
                f"not an AutoMap checkpoint (format "
                f"{doc.get('format')!r}, expected {_FORMAT!r})"
            )
        counters = doc["counters"]
        best = doc["best"]
        return TuningCheckpoint(
            application=doc["application"],
            machine_name=doc["machine"],
            algorithm=doc["algorithm"],
            seed=doc["seed"],
            suggested=counters["suggested"],
            evaluated=counters["evaluated"],
            invalid_suggestions=counters["invalid_suggestions"],
            failed_evaluations=counters["failed_evaluations"],
            canonical_folds=counters["canonical_folds"],
            static_oom_pruned=counters["static_oom_pruned"],
            # Absent in pre-bound-pruning checkpoints.
            bound_pruned=counters.get("bound_pruned", 0),
            sim_elapsed=counters["sim_elapsed"],
            sim_evaluating=counters["sim_evaluating"],
            best_performance=best["performance"],
            best_mapping=(
                None
                if best["mapping"] is None
                else mapping_from_doc(best["mapping"])
            ),
            metrics=doc.get("metrics"),
            rng_state=doc.get("rng_state"),
            cursor=doc.get("cursor") or {},
            entries=[ReplayEntry.from_doc(d) for d in doc["records"]],
        )


def load_checkpoint(path: Union[str, Path]) -> TuningCheckpoint:
    """Read a checkpoint written by :meth:`TuningCheckpoint.save`."""
    return TuningCheckpoint.from_doc(load_json(Path(path)))


def try_load_checkpoint(
    path: Union[str, Path],
) -> Optional[TuningCheckpoint]:
    """:func:`load_checkpoint`, but ``None`` when no checkpoint exists.

    The resume-if-possible idiom crash recovery needs: a job killed
    before its first periodic snapshot has no checkpoint and simply
    restarts from scratch — which is just as deterministic."""
    path = Path(path)
    if not path.exists():
        return None
    return load_checkpoint(path)


class CheckpointManager:
    """Periodically snapshots a live tuning run.

    Registered as an oracle observer; saves after every ``every``
    executed evaluations (0 disables periodic saves), and on demand via
    :meth:`flush` — which the driver calls at the end of the search and
    on :class:`KeyboardInterrupt`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        oracle: "SimulationOracle",
        application: str,
        machine_name: str,
        algorithm_name: str,
        seed: int,
        every: int = 0,
        rng: Optional["RngStream"] = None,
        algorithm: Optional["SearchAlgorithm"] = None,
    ) -> None:
        if every < 0:
            raise ValueError("checkpoint interval must be >= 0")
        self.path = Path(path)
        self.every = every
        self.saves = 0
        self._oracle = oracle
        self._rng = rng
        self._algorithm = algorithm
        self._meta = (application, machine_name, algorithm_name, seed)
        self._last_saved_evaluated = -1

    # ------------------------------------------------------------------
    def on_evaluation(self, oracle: "SimulationOracle") -> None:
        """Oracle observer hook: save at every ``every``-th execution.

        Keyed on *executed* evaluations (not suggestions), so the
        checkpoint cadence tracks the expensive work.  Suggestion-only
        progress (cache hits, invalid candidates) never triggers a save.
        """
        if self.every <= 0:
            return
        if (
            oracle.evaluated != self._last_saved_evaluated
            and oracle.evaluated > 0
            and oracle.evaluated % self.every == 0
        ):
            self.flush()

    def flush(self) -> None:
        """Snapshot the current state to disk (atomic replace)."""
        oracle = self._oracle
        app, machine_name, algorithm_name, seed = self._meta
        runs = oracle.config.runs_per_eval
        entries: List[ReplayEntry] = []
        settled = getattr(oracle, "settled_keys", frozenset())
        for record in oracle.profiles.all_records():
            # Records that exist only because post-search settling
            # measured a bound-pruned candidate must not enter the
            # ledger: the uninterrupted search never *evaluated* them,
            # so a resumed search must re-prune them, not replay them.
            if record.mapping.key() in settled:
                continue
            # Trim to the as-executed sample count: finalist
            # re-measurement appends extra samples that resume must
            # re-derive through the normal final-report path.
            entries.append(
                ReplayEntry(
                    mapping=record.mapping,
                    samples=list(record.samples[:runs]),
                    failed=record.failed,
                    reason=record.reason,
                    makespan=record.makespan,
                    static_oom=record.static_oom,
                )
            )
        # A resumed run that is checkpointed again may still hold
        # not-yet-replayed evaluations from the previous checkpoint;
        # carry them forward so nothing is lost.
        entries.extend(oracle.pending_replay_entries())
        checkpoint = TuningCheckpoint(
            application=app,
            machine_name=machine_name,
            algorithm=algorithm_name,
            seed=seed,
            suggested=oracle.suggested,
            evaluated=oracle.evaluated,
            invalid_suggestions=oracle.invalid_suggestions,
            failed_evaluations=oracle.failed_evaluations,
            canonical_folds=oracle.canonical_folds,
            static_oom_pruned=oracle.static_oom_pruned,
            bound_pruned=getattr(oracle, "bound_pruned", 0),
            sim_elapsed=oracle.sim_elapsed,
            sim_evaluating=oracle.sim_evaluating,
            best_performance=oracle.best_performance,
            best_mapping=oracle.best_mapping,
            metrics=oracle.metrics.as_dict(),
            rng_state=(
                None if self._rng is None else self._rng.state_dict()
            ),
            cursor=(
                {} if self._algorithm is None else self._algorithm.cursor
            ),
            entries=entries,
        )
        checkpoint.save(self.path)
        self.saves += 1
        self._last_saved_evaluated = oracle.evaluated
        _LOG.info(
            kv(
                "checkpoint",
                path=str(self.path),
                evaluated=oracle.evaluated,
                records=len(entries),
                saves=self.saves,
            )
        )
