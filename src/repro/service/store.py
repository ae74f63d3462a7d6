"""The on-disk job store.

One directory per job under ``<root>/jobs/``, with the job's metadata in
``job.json`` and the tuning run's working directory (checkpoint,
profiles, trace) in ``work/``.  Every metadata write is atomic
(:func:`repro.util.serialization.dump_json` — temp file + ``os.replace``)
so a SIGKILL at any instant leaves either the old record or the new one,
never a torn file; crash recovery is therefore a pure read
(:meth:`JobStore.recover_running`) plus the checkpoint machinery the
engine already has.

States move ``submitted -> running -> done | failed``; a cache hit jumps
straight to ``done`` (with ``cache_hit`` set and zero simulations).  The
store is shared between the HTTP threads and the workers, so every
mutating method holds one lock; the artifacts themselves are written by
exactly one owner (the worker for fresh runs, the cache populater for
hits) and never rewritten.

``job.json`` is the source of truth; the ready queue is an in-memory
index over it.  The store keeps the numbers of ``submitted`` jobs in a
min-heap (FIFO by job number) under the same lock, seeded by the one
pass over ``jobs/`` at start-up and fed by :meth:`JobStore.create`,
:meth:`JobStore.update` and :meth:`JobStore.recover_running`.
:meth:`JobStore.claim_next` pops the head and re-reads only that job's
record, and idle workers sleep on a condition over the lock
(:meth:`JobStore.wait_for_job`) until a job is queued — nothing polls.

A ``job.json`` that does not parse is moved aside to
``job.json.corrupt`` (never deleted), logged and counted as
``service.jobs.quarantined``; the rest of the store keeps working, and
:meth:`JobStore.get` raises :class:`CorruptJobRecord` for that job.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.util.logging import get_logger
from repro.util.serialization import dump_json, load_json

__all__ = [
    "JOB_FILENAME",
    "QUARANTINE_SUFFIX",
    "UNREADABLE",
    "CorruptJobRecord",
    "JobRecord",
    "JobState",
    "JobStore",
    "quarantine",
]

_LOG = get_logger("service.store")

JOB_FILENAME = "job.json"
#: Suffix of a ``job.json`` or ``checkpoint.json`` moved aside because
#: it did not parse.
QUARANTINE_SUFFIX = ".corrupt"
_RECORD_FORMAT = "automap-jobrecord-v1"
#: What a damaged ``job.json`` or ``checkpoint.json`` raises from the
#: parse or the record constructor (bad JSON or UTF-8, missing fields,
#: mistyped values).
UNREADABLE = (ValueError, KeyError, TypeError)


class JobState(str, Enum):
    SUBMITTED = "submitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


@dataclass(frozen=True)
class JobRecord:
    """One job's metadata (the ``GET /jobs/<id>`` document)."""

    job_id: str
    spec_doc: dict
    fingerprint: str
    state: JobState = JobState.SUBMITTED
    #: True when the result was served from the content-addressed cache
    #: (and ``simulations`` is therefore zero).
    cache_hit: bool = False
    #: How the cache served it: ``"none"`` (fresh run), ``"exact"``
    #: (fingerprint hit), or ``"equiv"`` (AM6xx near-equivalence proof).
    cache_mode: str = "none"
    #: Simulator executions this job actually paid for.
    simulations: int = 0
    error: Optional[str] = None
    #: How many times the service (re)started this job — 1 for a clean
    #: run, more after crash recovery.
    attempts: int = 0
    #: The workload class key computed at submit
    #: (:func:`repro.service.fingerprint.workload_class_key`); the
    #: worker publishes the cache entry under it.  ``None`` when it was
    #: not computed, and the worker computes it after the tune.
    class_key: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)

    def with_(self, **changes) -> "JobRecord":
        changes.setdefault("updated_at", time.time())
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        return {
            "format": _RECORD_FORMAT,
            "job_id": self.job_id,
            "spec": self.spec_doc,
            "fingerprint": self.fingerprint,
            "state": self.state.value,
            "cache_hit": self.cache_hit,
            "cache_mode": self.cache_mode,
            "simulations": self.simulations,
            "error": self.error,
            "attempts": self.attempts,
            "class_key": self.class_key,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @staticmethod
    def from_doc(doc: dict) -> "JobRecord":
        if not isinstance(doc, dict):
            raise ValueError("job record must be a JSON object")
        if doc.get("format") != _RECORD_FORMAT:
            raise ValueError(
                f"unsupported job record format {doc.get('format')!r}"
            )
        return JobRecord(
            job_id=doc["job_id"],
            spec_doc=doc["spec"],
            fingerprint=doc["fingerprint"],
            state=JobState(doc["state"]),
            cache_hit=bool(doc.get("cache_hit", False)),
            cache_mode=str(
                doc.get("cache_mode")
                or ("exact" if doc.get("cache_hit") else "none")
            ),
            simulations=int(doc.get("simulations", 0)),
            error=doc.get("error"),
            attempts=int(doc.get("attempts", 0)),
            class_key=doc.get("class_key"),
            created_at=float(doc.get("created_at", 0.0)),
            updated_at=float(doc.get("updated_at", 0.0)),
        )


class CorruptJobRecord(Exception):
    """A job whose ``job.json`` did not parse; its bytes were moved
    aside to a ``job.json.corrupt`` file beside it."""

    def __init__(self, job_id: str) -> None:
        super().__init__(
            f"job {job_id}'s record is corrupt and was quarantined "
            f"as {JOB_FILENAME}{QUARANTINE_SUFFIX}"
        )


def _job_id(number: int) -> str:
    return f"job-{number:06d}"


def _job_number(name: str) -> Optional[int]:
    if not name.startswith("job-"):
        return None
    try:
        return int(name[4:])
    except ValueError:
        return None


def quarantine(path: Path) -> Path:
    """Move ``path`` aside to the first free ``<name>.corrupt[.N]``
    beside it — a rename, so the bytes survive for inspection."""
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    n = 0
    while target.exists():
        n += 1
        target = path.with_name(f"{path.name}{QUARANTINE_SUFFIX}.{n}")
    os.replace(path, target)
    return target


class JobStore:
    """Directory-backed job records with atomic persistence and an
    in-memory FIFO of the ``submitted`` ones."""

    def __init__(
        self,
        root: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        #: Idle workers wait on this; create/update/recover notify it.
        self._ready = threading.Condition(self._lock)
        #: Min-heap of queued job numbers (FIFO by job number).
        self._queue: List[int] = []
        #: Jobs found ``running`` at start-up, for recover_running.
        self._orphans: List[int] = []
        with self._lock:
            self._next_id = self._scan()

    # ------------------------------------------------------------------
    def _scan(self) -> int:
        """One pass over ``jobs/`` at start-up: seed the queue with the
        ``submitted`` jobs, note the ``running`` ones, and return the
        next job number (max existing + 1 — crash-safe without a
        separate counter file)."""
        highest = 0
        for entry in self.jobs_dir.iterdir():
            number = _job_number(entry.name)
            if number is None or not entry.is_dir():
                continue
            highest = max(highest, number)
            record = self._readable(entry.name)
            if record is None:
                continue
            if record.state is JobState.SUBMITTED:
                self._queue.append(number)
            elif record.state is JobState.RUNNING:
                self._orphans.append(number)
        heapq.heapify(self._queue)
        return highest + 1

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def work_dir(self, job_id: str) -> Path:
        """The tuning run's working directory (checkpoint, trace, ...)."""
        return self.job_dir(job_id) / "work"

    # ------------------------------------------------------------------
    def create(
        self,
        spec_doc: dict,
        fingerprint: str,
        state: JobState = JobState.SUBMITTED,
        cache_hit: bool = False,
        cache_mode: Optional[str] = None,
        class_key: Optional[str] = None,
    ) -> JobRecord:
        with self._lock:
            number = self._next_id
            self._next_id += 1
            record = JobRecord(
                job_id=_job_id(number),
                spec_doc=spec_doc,
                fingerprint=fingerprint,
                state=state,
                cache_hit=cache_hit,
                cache_mode=cache_mode
                or ("exact" if cache_hit else "none"),
                class_key=class_key,
            )
            self.job_dir(record.job_id).mkdir(parents=True)
            self._write(record)
        return record

    def _write(self, record: JobRecord) -> None:
        """Persist ``record`` and, if it is ``submitted``, queue it and
        wake one idle worker.  The lock is held."""
        dump_json(record.to_doc(), self.job_dir(record.job_id) / JOB_FILENAME)
        if record.state is JobState.SUBMITTED:
            heapq.heappush(self._queue, _job_number(record.job_id))
            self._ready.notify()

    def update(self, record: JobRecord) -> JobRecord:
        with self._lock:
            self._write(record)
        return record

    # ------------------------------------------------------------------
    def _parse(self, job_id: str) -> Optional[JobRecord]:
        """``job_id``'s record as on disk, or ``None`` if it has none.
        Raises :class:`CorruptJobRecord` for a record already moved
        aside, and one of ``UNREADABLE`` for a damaged one."""
        job_dir = self.job_dir(job_id)
        try:
            doc = load_json(job_dir / JOB_FILENAME)
        except FileNotFoundError:
            if any(job_dir.glob(JOB_FILENAME + QUARANTINE_SUFFIX + "*")):
                raise CorruptJobRecord(job_id) from None
            return None
        return JobRecord.from_doc(doc)

    def _read(self, job_id: str) -> Optional[JobRecord]:
        """:meth:`_parse` with the lock held, moving a damaged record
        aside.  Every write replaces ``job.json`` atomically under the
        lock, so a parse that fails here is damage, not a torn write."""
        try:
            return self._parse(job_id)
        except UNREADABLE as exc:
            path = self.job_dir(job_id) / JOB_FILENAME
            target = quarantine(path)
            _LOG.warning(
                "job %s: unreadable %s (%s: %s); moved aside to %s",
                job_id,
                path,
                type(exc).__name__,
                exc,
                target,
            )
            self.metrics.counter("service.jobs.quarantined").inc()
            raise CorruptJobRecord(job_id) from exc

    def _readable(self, job_id: str) -> Optional[JobRecord]:
        """:meth:`_read`, with a corrupt record read as no record."""
        try:
            return self._read(job_id)
        except CorruptJobRecord:
            return None

    def get(self, job_id: str) -> Optional[JobRecord]:
        """``job_id``'s record, or ``None`` for an unknown job.  Raises
        :class:`CorruptJobRecord` when its ``job.json`` does not parse
        (after moving it aside)."""
        try:
            return self._parse(job_id)  # lock-free: writes are atomic
        except UNREADABLE:
            with self._lock:
                return self._read(job_id)

    def list_ids(self) -> List[str]:
        return sorted(
            entry.name
            for entry in self.jobs_dir.iterdir()
            if entry.is_dir() and (entry / JOB_FILENAME).exists()
        )

    def list_records(self) -> List[JobRecord]:
        """Every readable record; corrupt ones are moved aside and
        left out."""
        records = []
        for job_id in self.list_ids():
            try:
                record = self.get(job_id)
            except CorruptJobRecord:
                continue
            if record is not None:
                records.append(record)
        return records

    # ------------------------------------------------------------------
    def wait_for_job(self, stopped: Callable[[], bool]) -> None:
        """Block until a job is queued or ``stopped()`` is true.  A
        worker calls this between jobs; :meth:`wake_all` re-checks
        ``stopped`` in every waiter."""
        with self._ready:
            self._ready.wait_for(lambda: self._queue or stopped())

    def wake_all(self) -> None:
        with self._ready:
            self._ready.notify_all()

    def claim_next(self) -> Optional[JobRecord]:
        """Atomically claim the oldest queued job (FIFO by job number)
        and mark it ``running``; ``None`` when the queue is empty.
        Never blocks, and reads no record but the claimed one's (a
        queued entry whose record is gone, corrupt or no longer
        ``submitted`` is dropped)."""
        with self._lock:
            while self._queue:
                record = self._readable(_job_id(heapq.heappop(self._queue)))
                if record is None or record.state is not JobState.SUBMITTED:
                    continue
                claimed = record.with_(
                    state=JobState.RUNNING,
                    attempts=record.attempts + 1,
                )
                self._write(claimed)
                return claimed
        return None

    def recover_running(self) -> List[JobRecord]:
        """Jobs the previous process died while executing: those found
        ``running`` when the store was opened.  Called once at startup
        (before the workers start) — each is re-queued as ``submitted``
        so a worker re-claims it and resumes from its on-disk
        checkpoint."""
        recovered = []
        with self._lock:
            orphans, self._orphans = sorted(self._orphans), []
            for number in orphans:
                record = self._readable(_job_id(number))
                if record is not None and record.state is JobState.RUNNING:
                    requeued = record.with_(state=JobState.SUBMITTED)
                    self._write(requeued)
                    recovered.append(requeued)
        return recovered

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Job-state histogram (for ``GET /metrics``)."""
        totals = {state.value: 0 for state in JobState}
        for record in self.list_records():
            totals[record.state.value] += 1
        return totals
