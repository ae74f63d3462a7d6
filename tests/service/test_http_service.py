"""End-to-end mapping-as-a-service over real HTTP: submit, poll,
fetch artifacts, and hit the cache on resubmission."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.mapping.io import mapping_to_doc
from repro.service import JobSpec, JobState, MappingService, make_server
from repro.service.http import MAX_BODY_BYTES, _Handler
from repro.service.spec import MAX_SUGGESTIONS
from repro.service.store import JOB_FILENAME

SPEC = {"app": "stencil", "max_suggestions": 40, "checkpoint_every": 1}


def _default_start():
    """SPEC's default mapping as a ``start_mapping`` document (stencil
    kinds: ``stencil`` with 11 slots and ``increment`` with 1, both on
    GPU framebuffer)."""
    _, _, _, space = JobSpec.from_doc(dict(SPEC)).build()
    return mapping_to_doc(space.default_mapping())


def _with_entry(doc, kind, **fields):
    return dict(doc, **{kind: dict(doc[kind], **fields)})


#: (id, start-document builder over the valid default, error fragment).
BAD_STARTS = [
    ("non-object-entry", lambda doc: {"kinds": 5}, "malformed mapping"),
    ("missing-fields", lambda doc: {"stencil": {}}, "malformed mapping"),
    (
        "missing-kind",
        lambda doc: {"stencil": doc["stencil"]},
        "'increment' has no decision",
    ),
    (
        "unknown-kind",
        lambda doc: dict(doc, bogus=doc["increment"]),
        "unknown task kind 'bogus'",
    ),
    (
        "unaddressable",
        lambda doc: _with_entry(doc, "increment", mem_kinds=["system"]),
        "not addressable",
    ),
    (
        "too-few-slots",
        lambda doc: _with_entry(
            doc, "stencil", mem_kinds=doc["stencil"]["mem_kinds"][:-1]
        ),
        "covers 10 slots",
    ),
]


@pytest.fixture
def service_url(tmp_path):
    service = MappingService(tmp_path / "state")
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        thread.join(5)


def _post(url, doc):
    request = urllib.request.Request(
        url,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url, raw=False):
    try:
        with urllib.request.urlopen(url, timeout=30) as reply:
            data = reply.read()
            return reply.status, data if raw else json.loads(data)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _raw_post(url, content_length, body=b""):
    """POST ``/jobs`` over a raw socket with a verbatim Content-Length
    header.  The socket timeout turns a hung handler into a failure."""
    parts = urllib.parse.urlsplit(url)
    head = (
        f"POST /jobs HTTP/1.1\r\n"
        f"Host: {parts.hostname}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode()
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=3
    ) as sock:
        sock.sendall(head + body)
        reply = http.client.HTTPResponse(sock)
        reply.begin()
        return reply.status, json.loads(reply.read())


def _await_done(url, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = _get(f"{url}/jobs/{job_id}")
        assert status == 200
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


class TestEndToEnd:
    def test_submit_poll_fetch_and_cache_hit(self, service_url):
        status, submitted = _post(f"{service_url}/jobs", SPEC)
        assert status == 201
        assert submitted["state"] == "submitted"
        assert not submitted["cache_hit"]

        done = _await_done(service_url, submitted["job_id"])
        assert done["state"] == "done"
        assert done["simulations"] > 0

        status, report = _get(
            f"{service_url}/jobs/{submitted['job_id']}/report", raw=True
        )
        assert status == 200
        doc = json.loads(report)
        assert doc["application"]
        assert doc["best_mapping"]
        assert doc["fingerprint"] == submitted["fingerprint"]

        status, trace = _get(
            f"{service_url}/jobs/{submitted['job_id']}/trace", raw=True
        )
        assert status == 200 and json.loads(trace)
        status, metrics = _get(
            f"{service_url}/jobs/{submitted['job_id']}/metrics", raw=True
        )
        assert status == 200 and b"automap_" in metrics

        # Resubmit the same workload with reordered keys and different
        # execution knobs: served from cache, zero simulations,
        # byte-identical report.
        resubmit = {
            "checkpoint_every": 5,
            "max_suggestions": 40,
            "app": "stencil",
            "incremental": False,
        }
        status, second = _post(f"{service_url}/jobs", resubmit)
        assert status == 201
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        assert second["simulations"] == 0
        assert second["fingerprint"] == submitted["fingerprint"]
        status, report2 = _get(
            f"{service_url}/jobs/{second['job_id']}/report", raw=True
        )
        assert status == 200
        assert report2 == report

    def test_jobs_listing(self, service_url):
        _post(f"{service_url}/jobs", SPEC)
        status, listing = _get(f"{service_url}/jobs")
        assert status == 200
        assert len(listing["jobs"]) == 1

    def test_metrics_track_cache_traffic(self, service_url):
        status, first = _post(f"{service_url}/jobs", SPEC)
        assert status == 201
        _await_done(service_url, first["job_id"])
        _post(f"{service_url}/jobs", SPEC)

        status, text = _get(f"{service_url}/metrics", raw=True)
        assert status == 200
        body = text.decode()
        assert "automap_service_cache_hits 1.0" in body
        assert "automap_service_cache_misses 1.0" in body
        assert "automap_service_jobs_submitted 2.0" in body

    def test_healthz(self, service_url):
        status, doc = _get(f"{service_url}/healthz")
        assert status == 200 and doc == {"status": "ok"}


class TestErrorPaths:
    def test_invalid_spec_is_400(self, service_url):
        status, doc = _post(f"{service_url}/jobs", {"app": "nope"})
        assert status == 400
        assert "unknown application" in doc["error"]

    def test_unknown_field_is_400(self, service_url):
        status, doc = _post(
            f"{service_url}/jobs", {"app": "stencil", "bogus": 1}
        )
        assert status == 400
        assert "bogus" in doc["error"]

    def test_workers_field_is_400(self, service_url):
        """Every tune runs in one process: the former ``workers`` knob
        is an unknown field, even at its old default of 1."""
        status, doc = _post(f"{service_url}/jobs", dict(SPEC, workers=1))
        assert status == 400
        assert doc["error"] == "unknown job-spec field(s): ['workers']"

    def test_oversized_budget_is_400(self, service_url):
        spec = dict(SPEC, algorithm="opentuner", max_suggestions=10**12)
        status, doc = _post(f"{service_url}/jobs", spec)
        assert status == 400
        assert f"max_suggestions must be between 1 and {MAX_SUGGESTIONS}" in (
            doc["error"]
        )

    def test_graph_without_launches_is_400(self, service_url):
        spec = {"app": "circuit", "gen_params": {"iterations": 0}}
        status, doc = _post(f"{service_url}/jobs", spec)
        assert status == 400
        assert "launches no tasks" in doc["error"]
        status, listing = _get(f"{service_url}/jobs")
        assert status == 200 and listing["jobs"] == []

    def test_malformed_json_is_400(self, service_url):
        request = urllib.request.Request(
            f"{service_url}/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    @pytest.mark.parametrize(
        "length",
        ["abc", "-1", "1_000", "+5", ""],
        ids=["letters", "negative", "underscore", "plus", "empty"],
    )
    def test_malformed_content_length_is_400(self, service_url, length):
        status, doc = _raw_post(service_url, length)
        assert status == 400
        assert "Content-Length" in doc["error"]

    @pytest.mark.parametrize(
        "length",
        [str(MAX_BODY_BYTES + 1), "99999999999", "9" * 5000],
        ids=["limit+1", "11-digits", "5000-digits"],
    )
    def test_oversized_body_is_413_unread(self, service_url, length):
        # No body follows: a handler that tried to read it would block
        # until the socket timeout.
        status, doc = _raw_post(service_url, length)
        assert status == 413
        assert "limit" in doc["error"]

    def test_non_utf8_body_is_400(self, service_url):
        body = b'{"app": "\xff"}'
        status, doc = _raw_post(service_url, str(len(body)), body)
        assert status == 400
        assert "invalid JSON body" in doc["error"]

    @pytest.mark.parametrize(
        "build, fragment",
        [(build, fragment) for _, build, fragment in BAD_STARTS],
        ids=[name for name, _, _ in BAD_STARTS],
    )
    def test_bad_start_mapping_is_400(self, service_url, build, fragment):
        spec = dict(SPEC, start_mapping=build(_default_start()))
        status, doc = _post(f"{service_url}/jobs", spec)
        assert status == 400
        assert fragment in doc["error"]

    def test_valid_start_mapping_is_accepted(self, service_url):
        spec = dict(SPEC, start_mapping=_default_start())
        status, submitted = _post(f"{service_url}/jobs", spec)
        assert status == 201
        done = _await_done(service_url, submitted["job_id"])
        assert done["state"] == "done"

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_is_400(self, service_url, sigma):
        # Sent as the JSON numbers NaN / Infinity, which the body parser
        # accepts; the strings "nan" / "inf" are refused as non-numbers.
        spec = dict(SPEC, noise_sigma=float(sigma))
        status, doc = _post(f"{service_url}/jobs", spec)
        assert status == 400
        assert "noise_sigma must be finite" in doc["error"]

    def test_unknown_job_is_404(self, service_url):
        status, doc = _get(f"{service_url}/jobs/job-424242")
        assert status == 404
        assert "no such job" in doc["error"]

    def test_report_before_done_is_409(self, tmp_path):
        # Worker never started: the job stays queued.
        service = MappingService(tmp_path / "state")
        record = service.submit(dict(SPEC))
        with pytest.raises(Exception) as info:
            service.artifact(record.job_id, "report")
        assert getattr(info.value, "status", None) == 409

    def test_unknown_endpoint_is_404(self, service_url):
        status, doc = _get(f"{service_url}/nope")
        assert status == 404


@contextlib.contextmanager
def _serving(service):
    """Serve ``service`` on an ephemeral port with its workers running;
    yields the base URL."""
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        thread.join(5)


class TestRequestPath:
    def test_accepted_sockets_disable_nagle(self, service_url, monkeypatch):
        """Replies leave without waiting on the client's delayed ACK."""
        nodelay = []
        stdlib_setup = _Handler.setup

        def setup(handler):
            stdlib_setup(handler)
            nodelay.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(_Handler, "setup", setup)
        status, _ = _get(f"{service_url}/healthz")
        assert status == 200
        assert nodelay and all(nodelay)

    def test_idle_workers_sleep_and_stop(self, tmp_path, monkeypatch):
        """Idle workers wait on the queue instead of polling it, and
        stop() wakes them to exit."""
        from repro.service.store import JobStore

        claims = []
        claim_next = JobStore.claim_next

        def counting_claim(store):
            claims.append(1)
            return claim_next(store)

        monkeypatch.setattr(JobStore, "claim_next", counting_claim)
        service = MappingService(tmp_path / "state", workers=2)
        service.start()
        service.stop()
        for worker in service.workers:
            worker.join(5)
            assert not worker.is_alive()
        assert claims == []


class TestUnexpectedErrors:
    """An exception other than ``ServiceError`` still gets a reply."""

    @staticmethod
    def _request(url, method, path, body=None):
        parts = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
        try:
            conn.request(method, path, body=body)
            reply = conn.getresponse()
            doc = json.loads(reply.read())
            return reply.status, reply.getheader("Connection"), doc
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "method, path, body, patched",
        [
            ("POST", "/jobs", json.dumps(SPEC), "submit"),
            ("GET", "/jobs/job-000001", None, "job_record"),
        ],
        ids=["submit", "job_record"],
    )
    def test_exception_is_json_500(
        self, tmp_path, monkeypatch, method, path, body, patched
    ):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(MappingService, patched, fail)
        service = MappingService(tmp_path / "state")
        with _serving(service) as url:
            status, connection, doc = self._request(url, method, path, body)
            assert status == 500
            assert connection == "close"
            assert doc == {"error": "internal error: RuntimeError"}
            # The server keeps serving after the failure.
            assert _get(f"{url}/healthz") == (200, {"status": "ok"})
        counters = service.metrics.as_dict()["counters"]
        assert counters["service.http.errors"] == 1


class TestCorruptRecords:
    def test_restart_past_a_truncated_record(self, tmp_path):
        from repro.service.store import QUARANTINE_SUFFIX

        root = tmp_path / "state"
        before = MappingService(root)
        done = before.store.create(dict(SPEC), "0" * 64, state=JobState.DONE)
        queued = before.submit(dict(SPEC))
        path = before.store.job_dir(done.job_id) / JOB_FILENAME
        bad = path.read_bytes()[:40]
        path.write_bytes(bad)

        with _serving(MappingService(root)) as url:
            finished = _await_done(url, queued.job_id)
            assert finished["state"] == "done"
            status, text = _get(f"{url}/metrics", raw=True)
            assert status == 200
            assert "automap_service_jobs_quarantined 1.0" in text.decode()
            status, listing = _get(f"{url}/jobs")
            assert status == 200
            assert [j["job_id"] for j in listing["jobs"]] == [queued.job_id]
            status, doc = _get(f"{url}/jobs/{done.job_id}")
            assert status == 500
            assert "quarantined" in doc["error"]
        quarantined = path.with_name(JOB_FILENAME + QUARANTINE_SUFFIX)
        assert quarantined.read_bytes() == bad


class TestEquivalenceFallbacks:
    def test_class_key_failure_is_counted(self, tmp_path, monkeypatch):
        import repro.service.fingerprint
        import repro.service.worker

        def fail(*args, **kwargs):
            raise RuntimeError("class key unavailable")

        for module in (repro.service.fingerprint, repro.service.worker):
            monkeypatch.setattr(module, "workload_class_key", fail)
        service = MappingService(tmp_path / "state")
        with _serving(service) as url:
            status, submitted = _post(f"{url}/jobs", SPEC)
            assert status == 201
            finished = _await_done(url, submitted["job_id"])
        assert finished["state"] == "done"
        counters = service.metrics.as_dict()["counters"]
        assert counters["service.equiv.submit_errors"] == 1
        assert counters["service.equiv.index_errors"] == 1
        assert finished["class_key"] is None
        # Published, but without an equivalence index.
        assert service.cache.contains(submitted["fingerprint"])
        assert service.cache.entry_class(submitted["fingerprint"]) is None
