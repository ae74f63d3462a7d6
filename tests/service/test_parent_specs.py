"""State written before ``workers`` left the job spec.

Every tune runs in one process, so a job-spec document carrying the
former ``workers`` knob is refused by the unknown-field rule.  Service
state on disk from before the change holds the old normalized spec
(``"workers": 1``) in queued ``job.json`` records and in cache entries'
``spec.json``.  A queued job fails with the refusal and the service
moves on; a cache entry keeps serving exact hits, since the fingerprint
never included ``workers``, and is skipped as an equivalence source
like any other spec that no longer parses."""

from __future__ import annotations

import json

from repro.service import JobState, JobStore, MappingService
from repro.service.fingerprint import spec_fingerprint
from repro.service.spec import JobSpec

from tests.service.test_equiv_serving import BASE, _await, _inflated_caps

REFUSAL = "ValueError: unknown job-spec field(s): ['workers']"


def parent_doc(doc: dict) -> dict:
    """``doc``'s normalized spec as the service wrote it before the
    change: every field explicit, ``workers`` at its default of 1."""
    return dict(JobSpec.from_doc(doc).to_doc(), workers=1)


def test_queued_parent_job_fails_and_the_next_job_runs(tmp_path):
    root = tmp_path / "s"
    store = JobStore(root)
    old = store.create(parent_doc(BASE), spec_fingerprint(JobSpec.from_doc(BASE)))
    spec = JobSpec.from_doc(dict(BASE, seed=4))
    new = store.create(spec.to_doc(), spec_fingerprint(spec))

    service = MappingService(root)
    service.start()
    try:
        failed = _await(service, old.job_id)
        done = _await(service, new.job_id)
    finally:
        service.stop()
    assert failed.state is JobState.FAILED
    assert failed.error == REFUSAL
    assert done.state is JobState.DONE
    assert done.simulations > 0


def test_parent_cache_entry_serves_exact_hits_only(tmp_path):
    service = MappingService(tmp_path / "s")
    service.start()
    try:
        first = _await(service, service.submit(dict(BASE)).job_id)
        assert first.state is JobState.DONE
        report, _ = service.artifact(first.job_id, "report")
        spec_path = service.cache.entry_dir(first.fingerprint) / "spec.json"
        spec_path.write_text(
            json.dumps(parent_doc(BASE), sort_keys=True, indent=2) + "\n"
        )

        exact = service.submit(dict(BASE))
        assert exact.state is JobState.DONE
        assert exact.cache_mode == "exact"
        assert exact.simulations == 0
        assert exact.fingerprint == first.fingerprint
        assert service.artifact(exact.job_id, "report")[0] == report

        # Provable capacity slack over the cached workload: served
        # through the prover from a current-form entry, but this one no
        # longer parses, so it is skipped, counted, and the job tunes.
        slack = service.submit(dict(BASE, machine_params=_inflated_caps()))
        assert slack.state is JobState.SUBMITTED
        assert service.metrics.counter("service.equiv.candidate_errors").value == 1
        assert _await(service, slack.job_id).state is JobState.DONE
    finally:
        service.stop()
