"""The job store: atomic persistence, FIFO claiming, crash recovery."""

from __future__ import annotations

from repro.service.store import JOB_FILENAME, JobRecord, JobState, JobStore

SPEC = {"app": "stencil"}


class TestRecords:
    def test_create_assigns_sequential_ids(self, tmp_path):
        store = JobStore(tmp_path)
        ids = [store.create(SPEC, f"fp{i}").job_id for i in range(3)]
        assert ids == ["job-000001", "job-000002", "job-000003"]

    def test_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "fp", cache_hit=True)
        loaded = store.get(record.job_id)
        assert loaded == record
        assert loaded.cache_hit

    def test_get_unknown_returns_none(self, tmp_path):
        assert JobStore(tmp_path).get("job-999999") is None

    def test_update_persists(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "fp")
        store.update(record.with_(state=JobState.FAILED, error="boom"))
        loaded = store.get(record.job_id)
        assert loaded.state is JobState.FAILED
        assert loaded.error == "boom"

    def test_numbering_survives_restart(self, tmp_path):
        JobStore(tmp_path).create(SPEC, "fp")
        record = JobStore(tmp_path).create(SPEC, "fp2")
        assert record.job_id == "job-000002"

    def test_doc_format_guard(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="job record format"):
            JobRecord.from_doc({"format": "nope"})


class TestClaiming:
    def test_claim_is_fifo(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create(SPEC, "a")
        store.create(SPEC, "b")
        claimed = store.claim_next()
        assert claimed.job_id == first.job_id
        assert claimed.state is JobState.RUNNING
        assert claimed.attempts == 1

    def test_claim_skips_terminal_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        done = store.create(SPEC, "a", state=JobState.DONE)
        queued = store.create(SPEC, "b")
        assert store.claim_next().job_id == queued.job_id
        assert store.get(done.job_id).state is JobState.DONE

    def test_claim_empty_returns_none(self, tmp_path):
        assert JobStore(tmp_path).claim_next() is None


class TestRecovery:
    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "a")
        store.claim_next()

        fresh = JobStore(tmp_path)  # simulated process restart
        recovered = fresh.recover_running()
        assert [r.job_id for r in recovered] == [record.job_id]
        assert fresh.get(record.job_id).state is JobState.SUBMITTED
        # The attempt counter survives, so the resumed claim counts up.
        assert fresh.claim_next().attempts == 2

    def test_recover_ignores_settled_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(SPEC, "a", state=JobState.DONE)
        store.create(SPEC, "b")
        assert JobStore(tmp_path).recover_running() == []

    def test_counts(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(SPEC, "a", state=JobState.DONE)
        store.create(SPEC, "b")
        store.create(SPEC, "c")
        store.claim_next()
        assert store.counts() == {
            "submitted": 1,
            "running": 1,
            "done": 1,
            "failed": 0,
        }

    def test_job_json_always_parseable(self, tmp_path):
        """The atomic write contract: job.json is valid JSON after any
        sequence of updates."""
        import json

        store = JobStore(tmp_path)
        record = store.create(SPEC, "a")
        for state in (JobState.RUNNING, JobState.DONE):
            record = store.update(record.with_(state=state))
            path = store.job_dir(record.job_id) / JOB_FILENAME
            json.loads(path.read_text())


def _truncate(store, job_id):
    """Cut a record's ``job.json`` mid-document; returns the bad bytes."""
    path = store.job_dir(job_id) / JOB_FILENAME
    bad = path.read_bytes()[:20]
    path.write_bytes(bad)
    return bad


class TestQueue:
    def test_claim_reads_only_the_queued_record(self, tmp_path):
        store = JobStore(tmp_path)
        done = [
            store.create(SPEC, f"d{i}", state=JobState.DONE)
            for i in range(5)
        ]
        queued = store.create(SPEC, "q")
        for record in done:
            _truncate(store, record.job_id)
        assert store.claim_next().job_id == queued.job_id
        assert store.claim_next() is None

    def test_fifo_across_restart(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create(SPEC, "a")
        second = store.create(SPEC, "b")
        # Claim job 2 out of order, standing in for a worker that was
        # running it when the process died.
        store.update(second.with_(state=JobState.RUNNING))
        third = store.create(SPEC, "c")

        fresh = JobStore(tmp_path)
        assert [r.job_id for r in fresh.recover_running()] == [second.job_id]
        claimed = [fresh.claim_next().job_id for _ in range(3)]
        assert claimed == [first.job_id, second.job_id, third.job_id]
        assert fresh.claim_next() is None

    def test_requeue_through_update(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "a")
        claimed = store.claim_next()
        assert claimed.job_id == record.job_id
        store.update(claimed.with_(state=JobState.SUBMITTED))
        again = store.claim_next()
        assert again.job_id == record.job_id
        assert again.attempts == 2

    def test_stale_queue_entry_is_dropped(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "a")
        store.update(record.with_(state=JobState.FAILED, error="cancelled"))
        assert store.claim_next() is None
        assert store.get(record.job_id).state is JobState.FAILED

    def test_create_wakes_a_waiting_worker(self, tmp_path):
        import threading

        store = JobStore(tmp_path)
        woke = threading.Event()

        def waiter():
            store.wait_for_job(lambda: False)
            woke.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        store.create(SPEC, "a")
        thread.join(5)
        assert woke.is_set()

    def test_wake_all_releases_a_stopped_waiter(self, tmp_path):
        import threading

        store = JobStore(tmp_path)
        stop = threading.Event()
        thread = threading.Thread(
            target=store.wait_for_job, args=(stop.is_set,), daemon=True
        )
        thread.start()
        stop.set()
        store.wake_all()
        thread.join(5)
        assert not thread.is_alive()


class TestQuarantine:
    def test_corrupt_record_is_moved_aside_at_startup(self, tmp_path):
        from repro.service.store import QUARANTINE_SUFFIX

        store = JobStore(tmp_path)
        broken = store.create(SPEC, "a", state=JobState.DONE)
        queued = store.create(SPEC, "b")
        bad = _truncate(store, broken.job_id)

        fresh = JobStore(tmp_path)
        job_dir = fresh.job_dir(broken.job_id)
        assert not (job_dir / JOB_FILENAME).exists()
        quarantined = job_dir / (JOB_FILENAME + QUARANTINE_SUFFIX)
        assert quarantined.read_bytes() == bad
        counters = fresh.metrics.as_dict()["counters"]
        assert counters["service.jobs.quarantined"] == 1
        assert fresh.claim_next().job_id == queued.job_id
        assert [r.job_id for r in fresh.list_records()] == [queued.job_id]
        # Numbering never reuses the quarantined job's number.
        assert fresh.create(SPEC, "c").job_id == "job-000003"

    def test_get_raises_typed_error(self, tmp_path):
        import pytest

        from repro.service.store import CorruptJobRecord

        store = JobStore(tmp_path)
        record = store.create(SPEC, "a", state=JobState.DONE)
        _truncate(store, record.job_id)
        for _ in range(2):  # on discovery, and once moved aside
            with pytest.raises(CorruptJobRecord, match=record.job_id):
                store.get(record.job_id)
        counters = store.metrics.as_dict()["counters"]
        assert counters["service.jobs.quarantined"] == 1

    def test_counts_skip_corrupt_records(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "a", state=JobState.DONE)
        store.create(SPEC, "b")
        (store.job_dir(record.job_id) / JOB_FILENAME).write_text("[]")
        assert store.counts() == {
            "submitted": 1,
            "running": 0,
            "done": 0,
            "failed": 0,
        }

    def test_second_quarantine_keeps_the_first(self, tmp_path):
        from repro.service.store import QUARANTINE_SUFFIX

        store = JobStore(tmp_path)
        record = store.create(SPEC, "a", state=JobState.DONE)
        first = _truncate(store, record.job_id)
        JobStore(tmp_path)
        store.update(record)  # a fresh record, damaged again
        path = store.job_dir(record.job_id) / JOB_FILENAME
        path.write_bytes(b"{")
        JobStore(tmp_path)
        job_dir = store.job_dir(record.job_id)
        name = JOB_FILENAME + QUARANTINE_SUFFIX
        assert (job_dir / name).read_bytes() == first
        assert (job_dir / f"{name}.1").read_bytes() == b"{"


class TestConcurrentQueue:
    def test_waiting_workers_claim_every_job_once(self, tmp_path):
        """More waiting workers than cores, jobs created while they
        sleep, and a short switch interval: every job is claimed exactly
        once and every worker exits when stopped."""
        import sys
        import threading

        store = JobStore(tmp_path)
        stop = threading.Event()
        claims = []
        claimed = threading.Semaphore(0)

        def worker():
            while True:
                store.wait_for_job(stop.is_set)
                if stop.is_set():
                    return
                record = store.claim_next()
                if record is not None:
                    claims.append(record.job_id)
                    claimed.release()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=worker) for _ in range(6)]
        try:
            for thread in workers:
                thread.start()
            created = [store.create(SPEC, f"fp{i}").job_id for i in range(60)]
            all_claimed = all(claimed.acquire(timeout=30) for _ in created)
        finally:
            stop.set()
            store.wake_all()
            for thread in workers:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert all_claimed
        assert not any(thread.is_alive() for thread in workers)
        assert sorted(claims) == created
        assert store.claim_next() is None
