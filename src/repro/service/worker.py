"""The background worker loop.

One or more daemon threads drain the job store FIFO: claim the oldest
``submitted`` job (an atomic claim-and-mark, so concurrent workers never
double-claim), run it through :class:`repro.core.AutoMapSession`
(which drives the stateless engine with the full checkpoint/observability
stack), publish the deterministic artifacts into the result cache, and
mark the job ``done`` — or ``failed`` with the error message.  The cache
entry is indexed under the class key the job carries from submit; only a
job without one (written before keys were carried, or whose key failed
at submit) computes it here.

An idle worker sleeps on the store's ready condition
(:meth:`repro.service.store.JobStore.wait_for_job`): queueing a job
wakes one worker at once, and :meth:`JobWorker.stop` wakes it to exit.
Nothing polls.

Crash recovery is the whole point of the layering: the job's working
directory lives inside the job directory, the engine checkpoints into it
periodically, and :meth:`JobWorker.execute` resumes from that checkpoint
whenever one exists.  A service killed mid-job and restarted therefore
finishes the job with a **bit-identical** result document — the PR-3
replay contract, promoted to job level — which the CI service-smoke gate
asserts by SIGKILLing a live server.  A checkpoint that does not load is
quarantined like a damaged ``job.json`` and the job tunes from the
start, to the same bytes.

Jobs run with telemetry off (wall-clock lines would make reruns differ
on disk) and tracing on (the ``/jobs/<id>/trace`` endpoint is
unconditional; tracing is observational and cannot change the result).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional

from repro.core.oracle import OracleConfig
from repro.core.session import AutoMapSession
from repro.obs.metrics import MetricsRegistry, to_prometheus_text
from repro.obs.trace import TRACE_FILENAME
from repro.resilience.checkpoint import CHECKPOINT_FILENAME, load_checkpoint
from repro.runtime.simulator import SimConfig
from repro.service.cache import ResultCache
from repro.service.fingerprint import (
    canonical_start_doc,
    spec_config,
    workload_class_key,
)
from repro.service.result import RESULT_FILENAME, result_doc, result_json_bytes
from repro.service.spec import JobSpec, spec_json_bytes
from repro.service.store import UNREADABLE, JobRecord, JobState, JobStore, quarantine
from repro.util.logging import get_logger

__all__ = ["JobWorker"]

_LOG = get_logger("service.worker")


class JobWorker(threading.Thread):
    """Daemon thread executing queued jobs one at a time.

    A service may run several workers (``repro serve --workers N``):
    each claims jobs through :meth:`JobStore.claim_next`, which is a
    single atomic claim-and-mark under the store lock, so no job is ever
    executed twice.  Crash recovery stays trivial — a recovered
    ``running`` job simply re-queues and resumes from its checkpoint,
    whichever worker claims it.
    """

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        metrics: Optional[MetricsRegistry] = None,
        index: int = 0,
    ) -> None:
        super().__init__(name=f"automap-job-worker-{index}", daemon=True)
        self.index = index
        self.store = store
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # (named to dodge threading.Thread's private ``_stop`` method)
        self._stop_requested = threading.Event()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the worker to exit after its current job (at once when
        idle)."""
        self._stop_requested.set()
        self.store.wake_all()

    def run(self) -> None:  # pragma: no cover - exercised via service
        stopped = self._stop_requested.is_set
        while True:
            self.store.wait_for_job(stopped)
            if stopped():
                return
            record = self.store.claim_next()
            if record is not None:
                self.execute(record)

    # ------------------------------------------------------------------
    def execute(self, record: JobRecord) -> JobRecord:
        """Run one claimed job to completion (resuming if a checkpoint
        exists) and persist the outcome."""
        try:
            finished = self._run_job(record)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            _LOG.warning("job %s failed: %s", record.job_id, exc)
            self.metrics.counter("service.jobs.failed").inc()
            finished = record.with_(
                state=JobState.FAILED,
                error=f"{type(exc).__name__}: {exc}",
            )
        return self.store.update(finished)

    def _run_job(self, record: JobRecord) -> JobRecord:
        spec = JobSpec.from_doc(record.spec_doc)
        _, graph, machine, space = spec.build()
        workdir = self.store.work_dir(record.job_id)
        resume = self._resumable(record, workdir / CHECKPOINT_FILENAME)
        session = AutoMapSession(
            graph,
            machine,
            algorithm=spec.algorithm,
            workdir=workdir,
            oracle_config=OracleConfig(max_suggestions=spec.max_suggestions),
            sim_config=SimConfig(
                noise_sigma=spec.noise_sigma,
                seed=spec.seed,
                spill=spec.spill,
                incremental=spec.incremental,
            ),
            seed=spec.seed,
            space=space,
            static_prune=spec.static_prune,
            bound_prune=spec.bound_prune,
            checkpoint_every=spec.checkpoint_every,
            resume=resume,
            trace=True,
            telemetry=False,
        )
        start = None
        if spec.start_mapping is not None:
            from repro.mapping.io import mapping_from_doc

            # Tune from the canonical representative, so the cached
            # result is valid for the whole equivalence class the
            # fingerprint collapses (see repro.service.fingerprint).
            start = mapping_from_doc(
                canonical_start_doc(graph, machine, spec.start_mapping)
            )
        report = session.tune(start=start)

        files = {
            RESULT_FILENAME: result_json_bytes(
                result_doc(report, fingerprint=record.fingerprint)
            )
        }
        trace_path = workdir / TRACE_FILENAME
        if trace_path.exists():
            files[TRACE_FILENAME] = trace_path.read_bytes()
        if report.metrics is not None:
            files["metrics.txt"] = to_prometheus_text(report.metrics).encode(
                "utf-8"
            )
        # The spec rides along so the near-equivalence prover can rebuild
        # this entry's workload as a candidate; the class key indexes it.
        files["spec.json"] = spec_json_bytes(spec)
        class_key = record.class_key
        if class_key is None:
            class_key = self._class_key(record, spec, graph, machine, space)
        self.cache.put(record.fingerprint, files, class_key=class_key)

        self.metrics.counter("service.jobs.completed").inc()
        self.metrics.counter("service.simulations").inc(report.simulations)
        _LOG.info(
            "job %s done: best %.6g over %d simulations",
            record.job_id,
            report.best_mean,
            report.simulations,
        )
        return record.with_(
            state=JobState.DONE, simulations=report.simulations
        )

    def _resumable(self, record: JobRecord, path: Path) -> bool:
        """Whether the job resumes from the checkpoint at ``path``.

        A checkpoint that does not load is moved aside to
        ``checkpoint.json.corrupt`` (the naming of ``job.json``
        quarantine), logged and counted as
        ``service.checkpoints.quarantined``, and the job tunes from the
        start, which is just as deterministic as a resume.
        """
        if not path.exists():
            return False
        try:
            load_checkpoint(path)
        except UNREADABLE as exc:
            target = quarantine(path)
            _LOG.warning(
                "job %s: unreadable %s (%s: %s); moved aside to %s, "
                "tuning from the start",
                record.job_id,
                path,
                type(exc).__name__,
                exc,
                target,
            )
            self.metrics.counter("service.checkpoints.quarantined").inc()
            return False
        _LOG.info(
            "job %s: resuming from checkpoint (attempt %d)",
            record.job_id,
            record.attempts,
        )
        self.metrics.counter("service.jobs.resumed").inc()
        return True

    def _class_key(self, record, spec, graph, machine, space) -> Optional[str]:
        """The class key of a job that did not carry one from submit, or
        ``None`` when it fails: the entry is then published without an
        equivalence index, so only exact resubmissions find it."""
        try:
            return workload_class_key(
                graph,
                machine,
                spec_config(spec),
                spec.start_mapping,
                space=space,
            )
        except Exception as exc:  # noqa: BLE001 - the index is best-effort
            _LOG.warning(
                "job %s: class key failed (%s: %s); cached without an "
                "equivalence index",
                record.job_id,
                type(exc).__name__,
                exc,
                exc_info=True,
            )
            self.metrics.counter("service.equiv.index_errors").inc()
            return None
