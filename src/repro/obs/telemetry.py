"""Per-round search telemetry (§5.3's search statistics, per round).

A *round* is one natural unit of a search algorithm's outer loop — a
coordinate (task kind) within a CD/CCD rotation, one draw of random
search, one bandit suggestion of the ensemble tuner.  At each
round boundary the algorithm snapshots the oracle's counters; the delta
between boundaries says what the round cost (oracle calls, executed
evaluations, invalid / folded / statically-pruned candidates) and what
it bought (best-so-far).

Records stream to a machine-readable ``telemetry.jsonl`` artifact (one
JSON object per line, written incrementally so a killed run keeps every
completed round) and are surfaced in the
:class:`~repro.core.engine.TuningReport`.  Telemetry is observational:
it reads counters the search already maintains and never feeds back into
any decision, so enabling it cannot change results.  Wall-clock seconds
appear *only* here — never in simulator traces, which must stay
deterministic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, IO, List, Optional, Union

__all__ = [
    "TELEMETRY_FILENAME",
    "RoundRecord",
    "SearchTelemetry",
    "load_telemetry",
]

#: Default artifact name inside a working directory.
TELEMETRY_FILENAME = "telemetry.jsonl"

#: Oracle counters snapshotted at round boundaries (cumulative values).
_ORACLE_COUNTERS = (
    "suggested",
    "evaluated",
    "invalid_suggestions",
    "failed_evaluations",
    "canonical_folds",
    "static_oom_pruned",
    "bound_pruned",
    "symmetry_folds",
)


@dataclass(frozen=True)
class RoundRecord:
    """One completed search round."""

    round: int
    algorithm: str
    #: The algorithm's position, e.g. ``"rotation=2 of=5 kind=stencil"``.
    label: str
    #: Oracle calls made this round (suggestions, incl. cached/invalid).
    proposed: int
    #: Candidates executed this round (novel valid mappings).
    evaluated: int
    #: Candidates rejected without execution this round.
    invalid: int
    #: Candidates that ran (or were proven) out of memory this round.
    failed: int
    #: Suggestions folded onto canonical representatives this round.
    folded: int
    #: Failures proven statically (no simulation paid) this round.
    pruned: int
    #: Cumulative oracle totals at the end of the round.
    total_suggested: int
    total_evaluated: int
    #: Best performance at round end (None until a mapping succeeded).
    best_performance: Optional[float]
    #: Simulated search-clock seconds at round end.
    sim_elapsed: float
    #: Real seconds this round took (observational only — never part of
    #: any simulated quantity).
    wall_seconds: float
    #: Candidates rejected this round by the static cost-bound pruner
    #: (defaulted last so pre-bound-pruning artifacts stay loadable).
    bound_pruned: int = 0
    #: Suggestions folded onto a relabeled twin by machine symmetry
    #: (defaulted so pre-symmetry artifacts stay loadable).
    symmetry_folds: int = 0

    def to_doc(self) -> dict:
        return {
            "round": self.round,
            "algorithm": self.algorithm,
            "label": self.label,
            "proposed": self.proposed,
            "evaluated": self.evaluated,
            "invalid": self.invalid,
            "failed": self.failed,
            "folded": self.folded,
            "pruned": self.pruned,
            "total_suggested": self.total_suggested,
            "total_evaluated": self.total_evaluated,
            "best_performance": self.best_performance,
            "sim_elapsed": self.sim_elapsed,
            "wall_seconds": self.wall_seconds,
            "bound_pruned": self.bound_pruned,
            "symmetry_folds": self.symmetry_folds,
        }

    @staticmethod
    def from_doc(doc: dict) -> "RoundRecord":
        return RoundRecord(
            round=doc["round"],
            algorithm=doc["algorithm"],
            label=doc["label"],
            proposed=doc["proposed"],
            evaluated=doc["evaluated"],
            invalid=doc["invalid"],
            failed=doc["failed"],
            folded=doc["folded"],
            pruned=doc["pruned"],
            total_suggested=doc["total_suggested"],
            total_evaluated=doc["total_evaluated"],
            best_performance=doc["best_performance"],
            sim_elapsed=doc["sim_elapsed"],
            wall_seconds=doc["wall_seconds"],
            bound_pruned=doc.get("bound_pruned", 0),
            symmetry_folds=doc.get("symmetry_folds", 0),
        )


@dataclass
class _Snapshot:
    counters: dict = field(default_factory=dict)
    wall: float = 0.0


class SearchTelemetry:
    """Round-boundary recorder attached to a search algorithm.

    With ``path`` set, every completed round is appended to the JSONL
    file immediately (line-buffered), so telemetry survives crashes the
    same way checkpoints do.  Without a path, records accumulate
    in-memory only.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = None if path is None else Path(path)
        self.rounds: List[RoundRecord] = []
        self._clock = clock
        self._open: Optional[_Snapshot] = None
        self._stream: Optional[IO[str]] = None

    # ------------------------------------------------------------------
    def begin_round(self, oracle) -> None:
        """Snapshot the oracle's counters at a round boundary.

        Calling begin twice without an ``end_round`` restarts the open
        round (the abandoned snapshot is dropped) — algorithms that bail
        out mid-round on budget exhaustion need no special casing.
        """
        self._open = _Snapshot(
            counters={
                name: getattr(oracle, name, 0) for name in _ORACLE_COUNTERS
            },
            wall=self._clock(),
        )

    def end_round(self, oracle, algorithm: str, label: str) -> None:
        """Close the open round and emit its record."""
        if self._open is None:
            return
        before = self._open
        self._open = None
        now = {
            name: getattr(oracle, name, 0) for name in _ORACLE_COUNTERS
        }
        best = getattr(oracle, "best_performance", math.inf)
        record = RoundRecord(
            round=len(self.rounds),
            algorithm=algorithm,
            label=label,
            proposed=now["suggested"] - before.counters["suggested"],
            evaluated=now["evaluated"] - before.counters["evaluated"],
            invalid=(
                now["invalid_suggestions"]
                - before.counters["invalid_suggestions"]
            ),
            failed=(
                now["failed_evaluations"]
                - before.counters["failed_evaluations"]
            ),
            folded=(
                now["canonical_folds"] - before.counters["canonical_folds"]
            ),
            pruned=(
                now["static_oom_pruned"]
                - before.counters["static_oom_pruned"]
            ),
            total_suggested=now["suggested"],
            total_evaluated=now["evaluated"],
            best_performance=(
                float(best) if math.isfinite(best) else None
            ),
            sim_elapsed=getattr(oracle, "sim_elapsed", 0.0),
            wall_seconds=max(0.0, self._clock() - before.wall),
            bound_pruned=(
                now["bound_pruned"] - before.counters["bound_pruned"]
            ),
            symmetry_folds=(
                now["symmetry_folds"] - before.counters["symmetry_folds"]
            ),
        )
        self.rounds.append(record)
        self._write(record)

    # ------------------------------------------------------------------
    def _write(self, record: RoundRecord) -> None:
        if self.path is None:
            return
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Truncate: a (re)started search re-emits its rounds from
            # the beginning (resume replays the original trajectory).
            self._stream = self.path.open("w", encoding="utf-8")
        self._stream.write(
            json.dumps(record.to_doc(), sort_keys=True) + "\n"
        )
        self._stream.flush()

    def close(self) -> None:
        """Flush and close the JSONL stream (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "SearchTelemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate view for the tuning report."""
        return {
            "rounds": len(self.rounds),
            "proposed": sum(r.proposed for r in self.rounds),
            "evaluated": sum(r.evaluated for r in self.rounds),
            "wall_seconds": sum(r.wall_seconds for r in self.rounds),
        }


def load_telemetry(path: Union[str, Path]) -> List[RoundRecord]:
    """Read a ``telemetry.jsonl`` artifact back into records."""
    records: List[RoundRecord] = []
    with Path(path).open("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(RoundRecord.from_doc(json.loads(line)))
    return records
