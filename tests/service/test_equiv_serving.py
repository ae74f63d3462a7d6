"""Near-equivalent cache serving and multi-worker job execution.

The service drives the AM6xx prover on exact-fingerprint misses: a
submission that differs from a cached workload only in provable slack
(capacity above the footprint bound, a machine rename) is served with
zero simulations, ``cache_mode == "equiv"``, and a result document
byte-identical to what a fresh run would write (modulo nothing — the
pullback is checked against an actual fresh run)."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.machine import MACHINE_ZOO
from repro.service import JobState, JobStore, MappingService
from repro.service.http import ServiceError
from repro.service.result import RESULT_FILENAME, result_json_bytes
from repro.util.units import GIB

BASE = {
    "app": "forkjoin",
    "gen_params": {"width": 2, "iterations": 2, "elems": 65536},
    "machine": "shepard",
    "max_suggestions": 8,
    "noise_sigma": 0.0,
    "seed": 3,
}


def _await(service, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.store.get(job_id)
        if record.state.terminal:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


def _inflated_caps(extra=GIB):
    machine = MACHINE_ZOO["shepard"](1)
    return {
        "memory_capacity": {
            m.uid: m.capacity + extra for m in machine.memories
        }
    }


class TestEquivalentServing:
    def test_slack_submission_served_with_zero_simulations(self, tmp_path):
        service = MappingService(tmp_path / "a")
        service.start()
        try:
            first = service.submit(dict(BASE))
            done = _await(service, first.job_id)
            assert done.state is JobState.DONE
            assert done.simulations > 0

            spec = dict(BASE, machine_params=_inflated_caps())
            equiv = service.submit(spec)
            assert equiv.state is JobState.DONE
            assert equiv.cache_hit
            assert equiv.cache_mode == "equiv"
            assert equiv.simulations == 0
            served, _ = service.artifact(equiv.job_id, "report")
        finally:
            service.stop()

        # Byte-identity against a genuinely fresh run of the inflated
        # workload in a clean service root.
        fresh_service = MappingService(tmp_path / "b")
        fresh_service.start()
        try:
            fresh = service_record = fresh_service.submit(spec)
            service_record = _await(fresh_service, fresh.job_id)
            assert service_record.simulations > 0
            fresh_bytes, _ = fresh_service.artifact(fresh.job_id, "report")
        finally:
            fresh_service.stop()
        assert served == fresh_bytes

    def test_rename_served_with_pullback(self, tmp_path):
        service = MappingService(tmp_path / "s")
        service.start()
        try:
            first = service.submit(dict(BASE))
            _await(service, first.job_id)

            spec = dict(
                BASE, machine_params={"name": "shepard-renamed"}
            )
            equiv = service.submit(spec)
            assert equiv.cache_mode == "equiv"
            assert equiv.simulations == 0
            served, _ = service.artifact(equiv.job_id, "report")
            doc = json.loads(served)
            assert doc["machine"] == "shepard-renamed"
            assert doc["fingerprint"] == equiv.fingerprint
            # The proof log is published beside the served result.
            proof = json.loads(
                service.cache.read(equiv.fingerprint, "proof.json")
            )
            assert proof["equivalent"] is True
            assert proof["relabel"] == {"machine": "shepard-renamed"}
            assert proof["source"] == first.fingerprint
            assert (
                service.metrics.counter("service.cache.equiv_hits").value
                == 1
            )
        finally:
            service.stop()

    def test_inequivalent_submission_queues_normally(self, tmp_path):
        service = MappingService(tmp_path / "s")
        service.start()
        try:
            first = service.submit(dict(BASE))
            _await(service, first.job_id)
            # A different seed is a different workload: no proof, no
            # cache hit, a real run.
            other = service.submit(dict(BASE, seed=4))
            assert other.state is JobState.SUBMITTED
            assert not other.cache_hit
            done = _await(service, other.job_id)
            assert done.simulations > 0
        finally:
            service.stop()

    def test_cache_doc_lists_equiv_entries(self, tmp_path):
        service = MappingService(tmp_path / "s")
        service.start()
        try:
            first = service.submit(dict(BASE))
            _await(service, first.job_id)
            service.submit(dict(BASE, machine_params=_inflated_caps()))
            doc = service.cache_doc()
        finally:
            service.stop()
        assert len(doc["entries"]) == 2
        assert doc["total_bytes"] > 0
        assert doc["max_bytes"] is None
        by_fp = {e["fingerprint"]: e for e in doc["entries"]}
        assert by_fp[first.fingerprint]["equivalent"] is False
        assert sum(e["equivalent"] for e in doc["entries"]) == 1


def _drain(service):
    """Run every queued job synchronously (no worker thread)."""
    while True:
        record = service.store.claim_next()
        if record is None:
            return
        service.worker.execute(record)


class TestCorruptResult:
    """A cached ``result.json`` that does not parse, or that names
    another fingerprint, is never served: the entry is quarantined and
    counted, and the submission tunes afresh to the bytes an intact
    cache would have served."""

    def _done_entry(self, service):
        """A finished BASE job and its cached result file's path."""
        record = service.submit(dict(BASE))
        _drain(service)
        entry = service.cache.entry_dir(record.fingerprint)
        return record, entry / RESULT_FILENAME

    def test_report_of_a_truncated_entry_is_quarantined(self, tmp_path):
        service = MappingService(tmp_path / "s")
        first, result = self._done_entry(service)
        intact = result.read_bytes()
        result.write_bytes(intact[:100])

        with pytest.raises(ServiceError, match="quarantined") as raised:
            service.artifact(first.job_id, "report")
        assert raised.value.status == 404
        moved = service.cache.quarantine_dir / first.fingerprint
        assert (moved / RESULT_FILENAME).read_bytes() == intact[:100]
        counters = service.metrics.as_dict()["counters"]
        assert counters["service.cache.quarantined"] == 1

        again = service.submit(dict(BASE))
        assert not again.cache_hit
        _drain(service)
        served, _ = service.artifact(again.job_id, "report")
        assert served == intact

    def test_entry_of_another_fingerprint_is_not_served(self, tmp_path):
        service = MappingService(tmp_path / "s")
        first, result = self._done_entry(service)
        intact = result.read_bytes()
        doc = json.loads(intact)
        doc["fingerprint"] = "0" * 64
        result.write_bytes(result_json_bytes(doc))

        again = service.submit(dict(BASE))
        assert again.state is JobState.SUBMITTED
        assert not again.cache_hit
        _drain(service)
        served, _ = service.artifact(again.job_id, "report")
        assert served == intact
        counters = service.metrics.as_dict()["counters"]
        assert counters["service.cache.quarantined"] == 1

    def test_exact_resubmission_retunes(self, tmp_path):
        service = MappingService(tmp_path / "s")
        first = service.submit(dict(BASE))
        _drain(service)
        result = service.cache.entry_dir(first.fingerprint) / RESULT_FILENAME
        intact = result.read_bytes()
        result.write_bytes(intact[:100])

        again = service.submit(dict(BASE))
        assert again.state is JobState.SUBMITTED
        assert not again.cache_hit
        _drain(service)
        done = service.store.get(again.job_id)
        assert done.state is JobState.DONE
        assert done.simulations > 0
        served, _ = service.artifact(again.job_id, "report")
        assert served == intact
        moved = service.cache.quarantine_dir / first.fingerprint
        assert (moved / RESULT_FILENAME).read_bytes() == intact[:100]
        counters = service.metrics.as_dict()["counters"]
        assert counters["service.cache.quarantined"] == 1

    def test_equivalent_resubmission_retunes(self, tmp_path):
        spec = dict(BASE, machine_params=_inflated_caps())
        reference = MappingService(tmp_path / "ref")
        ref_record = reference.submit(dict(spec))
        _drain(reference)
        intact, _ = reference.artifact(ref_record.job_id, "report")

        service = MappingService(tmp_path / "s")
        first = service.submit(dict(BASE))
        _drain(service)
        result = service.cache.entry_dir(first.fingerprint) / RESULT_FILENAME
        result.write_bytes(result.read_bytes()[:100])

        equiv = service.submit(dict(spec))
        assert equiv.state is JobState.SUBMITTED
        assert not equiv.cache_hit
        _drain(service)
        done = service.store.get(equiv.job_id)
        assert done.state is JobState.DONE
        assert done.simulations > 0
        served, _ = service.artifact(equiv.job_id, "report")
        assert served == intact
        counters = service.metrics.as_dict()["counters"]
        assert counters["service.cache.quarantined"] == 1
        assert "service.cache.equiv_hits" not in counters


class TestMultiWorker:
    def test_workers_never_double_claim(self, tmp_path):
        """Two claimer threads racing over a full queue partition it:
        every job claimed exactly once."""
        store = JobStore(tmp_path)
        for i in range(40):
            store.create({"i": i}, f"fp-{i}")
        claims = {0: [], 1: []}
        barrier = threading.Barrier(2)

        def claimer(slot):
            barrier.wait()
            while True:
                record = store.claim_next()
                if record is None:
                    return
                claims[slot].append(record.job_id)

        threads = [
            threading.Thread(target=claimer, args=(slot,))
            for slot in claims
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        claimed = claims[0] + claims[1]
        assert len(claimed) == 40
        assert len(set(claimed)) == 40  # no job claimed twice
        assert all(
            store.get(job_id).attempts == 1 for job_id in claimed
        )

    def test_two_worker_service_completes_distinct_jobs(self, tmp_path):
        service = MappingService(tmp_path / "s", workers=2)
        assert len(service.workers) == 2
        assert service.worker is service.workers[0]
        assert service.workers[0].name != service.workers[1].name
        service.start()
        try:
            records = [
                service.submit(dict(BASE, seed=seed))
                for seed in (10, 11, 12)
            ]
            finished = [_await(service, r.job_id) for r in records]
        finally:
            service.stop()
        for record in finished:
            assert record.state is JobState.DONE
            assert record.attempts == 1
            assert record.simulations > 0


def _recomputed_class_key(record):
    from repro.service.fingerprint import spec_config, workload_class_key
    from repro.service.spec import JobSpec

    spec = JobSpec.from_doc(record.spec_doc)
    _, graph, machine, space = spec.build()
    return workload_class_key(
        graph, machine, spec_config(spec), spec.start_mapping, space=space
    )


class TestClassKeyHandoff:
    def test_worker_publishes_under_submit_key(self, tmp_path, monkeypatch):
        import repro.service.worker

        def fail(*args, **kwargs):
            raise AssertionError("the worker recomputed the class key")

        monkeypatch.setattr(repro.service.worker, "workload_class_key", fail)
        service = MappingService(tmp_path / "s")
        record = service.submit(dict(BASE))
        assert record.class_key == _recomputed_class_key(record)
        # Persisted, so a restarted service still has it.
        restarted = MappingService(tmp_path / "s")
        assert restarted.store.get(record.job_id).class_key == record.class_key

        finished = restarted.worker.execute(restarted.store.claim_next())
        assert finished.state is JobState.DONE
        assert finished.class_key == record.class_key
        published = restarted.cache.entry_class(record.fingerprint)
        assert published == record.class_key
        counters = restarted.metrics.as_dict()["counters"]
        assert "service.equiv.index_errors" not in counters

    def test_record_without_a_key_is_keyed_by_the_worker(self, tmp_path):
        service = MappingService(tmp_path / "s")
        record = service.submit(dict(BASE))
        # A record written before class keys were carried.
        service.store.update(record.with_(class_key=None))
        claimed = service.store.claim_next()
        assert claimed.class_key is None
        assert service.worker.execute(claimed).state is JobState.DONE
        expected = _recomputed_class_key(record)
        assert service.cache.entry_class(record.fingerprint) == expected
