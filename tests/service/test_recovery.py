"""Kill-and-restart recovery: a service killed mid-job finishes the job
after restart with a result byte-identical to an uninterrupted run."""

from __future__ import annotations

from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.resilience.checkpoint import (
    CHECKPOINT_FILENAME,
    try_load_checkpoint,
)
from repro.runtime import SimConfig
from repro.service import JobState, MappingService
from repro.service.result import RESULT_FILENAME
from repro.service.spec import JobSpec

SPEC = {"app": "stencil", "max_suggestions": 60, "checkpoint_every": 1}


class _KillAfter:
    """Oracle observer standing in for SIGKILL mid-tune."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __call__(self, oracle) -> None:
        if oracle.evaluated >= self.limit:
            raise KeyboardInterrupt


def _run_to_completion(service: MappingService) -> None:
    """Drain the queue synchronously (no worker thread, no sleeps)."""
    while True:
        record = service.store.claim_next()
        if record is None:
            return
        finished = service.worker.execute(record)
        assert finished.state is JobState.DONE, finished.error


def _crash_mid_job(service: MappingService, job_id: str) -> None:
    """Run the claimed job the way the worker would, but die after a
    few evaluations — leaving ``job.json`` saying ``running`` and a
    mid-run checkpoint on disk, exactly the post-SIGKILL state."""
    spec = JobSpec.from_doc(service.store.get(job_id).spec_doc)
    _, graph, machine, space = spec.build()
    workdir = service.store.work_dir(job_id)
    workdir.mkdir(parents=True, exist_ok=True)
    request = TuneRequest(
        graph,
        machine,
        algorithm=spec.algorithm,
        oracle_config=OracleConfig(max_suggestions=spec.max_suggestions),
        sim_config=SimConfig(
            noise_sigma=spec.noise_sigma,
            seed=spec.seed,
            spill=spec.spill,
            incremental=spec.incremental,
        ),
        space=space,
        seed=spec.seed,
        checkpoint_path=workdir / CHECKPOINT_FILENAME,
        checkpoint_every=spec.checkpoint_every,
        observers=(_KillAfter(3),),
    )
    try:
        TuningEngine().tune(request)
    except KeyboardInterrupt:
        pass
    assert (workdir / CHECKPOINT_FILENAME).exists()


class TestKillRestart:
    def test_restarted_service_resumes_bit_identically(self, tmp_path):
        # Reference: the same workload, uninterrupted, in its own root
        # (so nothing can come from a shared cache).
        reference = MappingService(tmp_path / "ref")
        ref_record = reference.submit(dict(SPEC))
        _run_to_completion(reference)
        ref_report = reference.artifact(ref_record.job_id, "report")[0]

        # Crash run: claim the job, die mid-tune, restart the service.
        crashed = MappingService(tmp_path / "crash")
        record = crashed.submit(dict(SPEC))
        assert crashed.store.claim_next().job_id == record.job_id
        _crash_mid_job(crashed, record.job_id)

        restarted = MappingService(tmp_path / "crash")
        requeued = restarted.store.get(record.job_id)
        assert requeued.state is JobState.SUBMITTED  # recovered
        _run_to_completion(restarted)

        finished = restarted.store.get(record.job_id)
        assert finished.state is JobState.DONE
        assert finished.attempts == 2
        assert not finished.cache_hit  # computed, not served from cache
        assert (
            restarted.artifact(record.job_id, "report")[0] == ref_report
        )
        # Both roots cached the same fingerprint with identical bytes.
        assert restarted.cache.read(
            finished.fingerprint, RESULT_FILENAME
        ) == reference.cache.read(ref_record.fingerprint, RESULT_FILENAME)

    def test_worker_resumes_via_checkpoint(self, tmp_path):
        """The resumed run replays the ledger instead of restarting:
        visible as a loadable mid-run checkpoint before the rerun and
        the ``service.jobs.resumed`` counter after."""
        service = MappingService(tmp_path / "state")
        record = service.submit(dict(SPEC))
        service.store.claim_next()
        _crash_mid_job(service, record.job_id)

        checkpoint = try_load_checkpoint(
            service.store.work_dir(record.job_id) / CHECKPOINT_FILENAME
        )
        assert checkpoint is not None
        assert checkpoint.entries  # there is real progress to replay

        restarted = MappingService(tmp_path / "state")
        _run_to_completion(restarted)
        counters = restarted.metrics.as_dict()["counters"]
        assert counters["service.jobs.resumed"] == 1
        assert restarted.store.get(record.job_id).state is JobState.DONE

    def test_unreadable_checkpoint_is_quarantined_and_restarted(
        self, tmp_path
    ):
        """A truncated checkpoint is moved aside and counted, and the
        job tunes from the start to an uninterrupted run's bytes."""
        reference = MappingService(tmp_path / "ref")
        ref_record = reference.submit(dict(SPEC))
        _run_to_completion(reference)

        service = MappingService(tmp_path / "state")
        record = service.submit(dict(SPEC))
        service.store.claim_next()
        _crash_mid_job(service, record.job_id)
        path = service.store.work_dir(record.job_id) / CHECKPOINT_FILENAME
        truncated = path.read_bytes()[:100]
        path.write_bytes(truncated)

        restarted = MappingService(tmp_path / "state")
        _run_to_completion(restarted)
        finished = restarted.store.get(record.job_id)
        assert finished.state is JobState.DONE
        assert restarted.cache.read(
            finished.fingerprint, RESULT_FILENAME
        ) == reference.cache.read(ref_record.fingerprint, RESULT_FILENAME)
        quarantined = path.with_name(CHECKPOINT_FILENAME + ".corrupt")
        assert quarantined.read_bytes() == truncated
        counters = restarted.metrics.as_dict()["counters"]
        assert counters["service.checkpoints.quarantined"] == 1
        assert "service.jobs.resumed" not in counters

    def test_crash_before_any_checkpoint_restarts_clean(self, tmp_path):
        """A job killed before its first snapshot simply restarts —
        try_load_checkpoint reports nothing to resume."""
        service = MappingService(tmp_path / "state")
        record = service.submit(dict(SPEC))
        service.store.claim_next()  # claimed, then "killed" immediately

        assert (
            try_load_checkpoint(
                service.store.work_dir(record.job_id) / CHECKPOINT_FILENAME
            )
            is None
        )
        restarted = MappingService(tmp_path / "state")
        _run_to_completion(restarted)
        finished = restarted.store.get(record.job_id)
        assert finished.state is JobState.DONE
        assert finished.attempts == 2
