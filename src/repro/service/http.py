"""The HTTP front-end (stdlib ``http.server``, zero new dependencies).

:class:`MappingService` is the transport-free facade — job submission
with cache short-circuit, status documents, artifact bytes, Prometheus
text — and the request handler is a thin JSON shim over it, so tests can
drive the service object directly and the HTTP layer stays trivial.

Endpoints::

    POST /jobs                  submit a JobSpec document -> 201 + status
    GET  /jobs                  list all job status documents
    GET  /jobs/<id>             one job's status document
    GET  /jobs/<id>/report      deterministic result.json (done jobs)
    GET  /jobs/<id>/trace       winning mapping's Chrome trace
    GET  /jobs/<id>/metrics     the tuning run's Prometheus metrics
    GET  /cache                 cache entries, sizes, and budget
    GET  /metrics               service-level Prometheus metrics
    GET  /healthz               liveness probe

Submitting a workload whose fingerprint is cached creates the job
directly in ``done`` with ``cache_hit`` set and ``simulations == 0`` —
no queueing, no engine, and ``/report`` serves the stored bytes
unchanged.  On an exact miss the service consults the AM6xx
near-equivalence prover (:mod:`repro.analysis.equivalence`): when a
cached workload is *provably* indistinguishable from the submission
(capacity slack above the static footprint bound, parameters of
unreachable resources, or a verified relabeling), the stored result is
pulled back through the proof's relabeling and served — still zero
simulations, ``cache_mode == "equiv"``, with the proof log published
beside the result as ``proof.json``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry, to_prometheus_text
from repro.obs.trace import TRACE_FILENAME
from repro.service.cache import ResultCache
from repro.service.result import RESULT_FILENAME
from repro.service.spec import JobSpec
from repro.service.store import CorruptJobRecord, JobRecord, JobState, JobStore
from repro.service.worker import JobWorker
from repro.util.logging import get_logger

__all__ = ["MappingService", "ServiceError", "make_server"]

_LOG = get_logger("service.http")

#: Largest ``POST /jobs`` body the handler reads, in bytes.  A job spec
#: is a few hundred bytes; anything claiming more is refused unread.
MAX_BODY_BYTES = 1 << 20

#: URL artifact name -> (cache filename, content type).
_ARTIFACTS = {
    "report": (RESULT_FILENAME, "application/json"),
    "trace": (TRACE_FILENAME, "application/json"),
    "metrics": ("metrics.txt", "text/plain; version=0.0.4"),
}


class ServiceError(Exception):
    """An error with an HTTP status (the handler's 4xx/5xx path)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class MappingService:
    """Job store + result cache + worker, behind one facade.

    Creating the service recovers jobs a previous process died while
    running (they re-queue and resume from their checkpoints);
    :meth:`start` launches the worker threads, which sleep on the
    store's queue until :meth:`submit` queues a job.
    """

    def __init__(
        self,
        root: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
        workers: int = 1,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.root = Path(root)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = JobStore(self.root, metrics=self.metrics)
        self.cache = ResultCache(
            self.root, metrics=self.metrics, max_bytes=cache_max_bytes
        )
        recovered = self.store.recover_running()
        for record in recovered:
            _LOG.info(
                "recovered in-flight job %s (attempt %d) — will resume",
                record.job_id,
                record.attempts,
            )
        self.metrics.counter("service.jobs.recovered").inc(len(recovered))
        self.workers = [
            JobWorker(
                self.store,
                self.cache,
                metrics=self.metrics,
                index=index,
            )
            for index in range(workers)
        ]

    @property
    def worker(self) -> JobWorker:
        """The first worker (single-worker back-compat handle)."""
        return self.workers[0]

    # ------------------------------------------------------------------
    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def stop(self, timeout: float = 5.0) -> None:
        for worker in self.workers:
            worker.stop()
        for worker in self.workers:
            if worker.is_alive():
                worker.join(timeout)

    # ------------------------------------------------------------------
    def submit(self, doc: dict) -> JobRecord:
        """Validate, fingerprint, and enqueue one submission — or serve
        it from the cache (exact fingerprint hit, else a proved AM6xx
        near-equivalent).  Raises :class:`ServiceError` (400) for specs
        that do not validate or build."""
        from repro.service.fingerprint import spec_config, workload_fingerprint

        try:
            spec = JobSpec.from_doc(doc)
            _, graph, machine, space = spec.build()
            config = spec_config(spec)
            fingerprint = workload_fingerprint(
                graph, machine, config, spec.start_mapping, space=space
            )
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc
        self.metrics.counter("service.jobs.submitted").inc()
        if self.cache.lookup(fingerprint) is not None:
            record = self.store.create(
                spec.to_doc(),
                fingerprint,
                state=JobState.DONE,
                cache_hit=True,
                cache_mode="exact",
            )
            _LOG.info(
                "job %s: cache hit for %s (0 simulations)",
                record.job_id,
                fingerprint[:16],
            )
            return record
        class_key = self._class_key(spec, graph, machine, space, config)
        if class_key is not None:
            record = self._serve_equivalent(
                spec, graph, machine, space, config, fingerprint, class_key
            )
            if record is not None:
                return record
        # The worker publishes the result under the same class key.
        record = self.store.create(
            spec.to_doc(), fingerprint, class_key=class_key
        )
        _LOG.info(
            "job %s: queued %s (fingerprint %s)",
            record.job_id,
            spec.label(),
            fingerprint[:16],
        )
        return record

    def _class_key(self, spec, graph, machine, space, config) -> Optional[str]:
        """An exact miss's workload class key, or ``None`` when it
        fails: the submission then skips the equivalence lookup and
        queues, and its worker tries the key again after the tune."""
        from repro.service.fingerprint import workload_class_key

        try:
            return workload_class_key(
                graph, machine, config, spec.start_mapping, space=space
            )
        except Exception as exc:  # noqa: BLE001 - equivalence is best-effort
            _LOG.warning(
                "%s: class key failed at submit (%s: %s); not looking "
                "for an equivalent",
                spec.label(),
                type(exc).__name__,
                exc,
                exc_info=True,
            )
            self.metrics.counter("service.equiv.submit_errors").inc()
            return None

    def _serve_equivalent(
        self, spec, graph, machine, space, config, fingerprint, class_key
    ) -> Optional[JobRecord]:
        """Serve an exact-miss submission from a provably-equivalent
        cached workload, if one exists — zero simulations, result bytes
        pulled back through the proof's relabeling, proof published
        beside the entry."""
        from repro.analysis.equivalence import Workload, pullback_result_doc
        from repro.service.result import result_json_bytes
        from repro.service.spec import spec_json_bytes

        target = Workload(graph, machine, config, spec.start_mapping, space)
        found = self.cache.lookup_equivalent(class_key, target, fingerprint)
        if found is None:
            return None
        source_fp, proof = found
        source_doc = self.cache.result_doc(source_fp)
        if source_doc is None:  # pragma: no cover - entry raced away
            return None
        result = pullback_result_doc(source_doc, proof, fingerprint)
        proof_doc = dict(proof.to_doc())
        proof_doc["source"] = source_fp
        files = {
            RESULT_FILENAME: result_json_bytes(result),
            "spec.json": spec_json_bytes(spec),
            "proof.json": (
                json.dumps(proof_doc, sort_keys=True, indent=2) + "\n"
            ).encode("utf-8"),
        }
        if not proof.relabel:
            # With no relabeling the workloads are indistinguishable in
            # every artifact — share the trace and run metrics too.
            for name in (TRACE_FILENAME, "metrics.txt"):
                data = self.cache.read(source_fp, name)
                if data is not None:
                    files[name] = data
        self.cache.put(fingerprint, files, class_key=class_key)
        record = self.store.create(
            spec.to_doc(),
            fingerprint,
            state=JobState.DONE,
            cache_hit=True,
            cache_mode="equiv",
        )
        _LOG.info(
            "job %s: equivalent to cached %s — proof-served "
            "(0 simulations)",
            record.job_id,
            source_fp[:16],
        )
        return record

    # ------------------------------------------------------------------
    def job_record(self, job_id: str) -> JobRecord:
        try:
            record = self.store.get(job_id)
        except CorruptJobRecord as exc:
            raise ServiceError(500, str(exc)) from exc
        if record is None:
            raise ServiceError(404, f"no such job: {job_id}")
        return record

    def artifact(self, job_id: str, name: str) -> Tuple[bytes, str]:
        """The exact stored bytes of one artifact of a finished job.  A
        report that fails the cache's entry check is quarantined with
        its entry and answered with a 404."""
        if name not in _ARTIFACTS:
            raise ServiceError(404, f"no such artifact: {name}")
        record = self.job_record(job_id)
        if record.state is JobState.FAILED:
            raise ServiceError(
                409, f"job {job_id} failed: {record.error}"
            )
        if record.state is not JobState.DONE:
            raise ServiceError(
                409, f"job {job_id} is {record.state.value}, not done"
            )
        filename, content_type = _ARTIFACTS[name]
        data = self.cache.read(record.fingerprint, filename)
        if data is None:
            raise ServiceError(
                404, f"job {job_id} has no {name} artifact"
            )
        if (
            filename == RESULT_FILENAME
            and self.cache.checked_result(record.fingerprint, data) is None
        ):
            raise ServiceError(
                404,
                f"job {job_id}'s cached report failed its check and was "
                f"quarantined; resubmitting the job tunes it afresh",
            )
        return data, content_type

    # ------------------------------------------------------------------
    def cache_doc(self) -> dict:
        """The ``GET /cache`` document (entries, sizes, budget)."""
        return {
            "entries": self.cache.entries(),
            "total_bytes": self.cache.total_bytes(),
            "max_bytes": self.cache.max_bytes,
        }

    def metrics_text(self) -> str:
        """Service-level Prometheus exposition, including a live
        job-state histogram and the cache entry count."""
        for state, count in self.store.counts().items():
            self.metrics.gauge(f"service.jobs.state.{state}").set(count)
        self.metrics.gauge("service.cache.entries").set(len(self.cache))
        self.metrics.gauge("service.cache.bytes").set(
            self.cache.total_bytes()
        )
        return to_prometheus_text(self.metrics)


# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """JSON shim over :class:`MappingService`."""

    server_version = "automap-service/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: ``_send`` writes the
    #: headers and the body separately, and with Nagle's algorithm on
    #: the body would wait for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    @property
    def service(self) -> MappingService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # route through our logger
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    # -- helpers -------------------------------------------------------
    def _send(self, status: int, data: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, doc) -> None:
        data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        self._send(status, data, "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_internal_error(self, exc: Exception) -> None:
        """Answer an unexpected exception with a JSON 500 and close the
        connection, instead of dropping it without a reply."""
        _LOG.error("%s %s failed", self.command, self.path, exc_info=exc)
        self.service.metrics.counter("service.http.errors").inc()
        self.close_connection = True
        self._send_error_json(500, f"internal error: {type(exc).__name__}")

    # -- routes --------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/jobs":
            self._send_error_json(404, f"no such endpoint: {self.path}")
            return
        try:
            try:
                doc = json.loads(self._read_body() or b"null")
            except ValueError as exc:  # bad JSON or a non-UTF-8 body
                raise ServiceError(400, f"invalid JSON body: {exc}")
            record = self.service.submit(doc)
            reply = record.to_doc()
        except ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - any failure gets a reply
            self._send_internal_error(exc)
            return
        self._send_json(201, reply)

    def _read_body(self) -> bytes:
        """The request body, after checking its ``Content-Length``.

        A length that is not a plain non-negative decimal is a 400, one
        above :data:`MAX_BODY_BYTES` a 413.  Either way the body stays
        unread, so the connection closes after the reply.
        """
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise ServiceError(400, f"invalid Content-Length: {raw[:32]!r}")
        # Bound the digit count before int(), which refuses very long
        # digit strings with a ValueError.
        digits = raw.lstrip("0") or "0"
        if (
            len(digits) > len(str(MAX_BODY_BYTES))
            or int(digits) > MAX_BODY_BYTES
        ):
            self.close_connection = True
            raise ServiceError(
                413, f"request body exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(int(digits))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_get()
        except ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
        except Exception as exc:  # noqa: BLE001 - any failure gets a reply
            self._send_internal_error(exc)

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
        elif parts == ["metrics"]:
            self._send(
                200,
                self.service.metrics_text().encode(),
                "text/plain; version=0.0.4",
            )
        elif parts == ["cache"]:
            self._send_json(200, self.service.cache_doc())
        elif parts == ["jobs"]:
            self._send_json(
                200,
                {
                    "jobs": [
                        record.to_doc()
                        for record in self.service.store.list_records()
                    ]
                },
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            self._send_json(200, self.service.job_record(parts[1]).to_doc())
        elif len(parts) == 3 and parts[0] == "jobs":
            data, content_type = self.service.artifact(parts[1], parts[2])
            self._send(200, data, content_type)
        else:
            raise ServiceError(404, f"no such endpoint: {path}")


def make_server(
    service: MappingService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A threading HTTP server bound to ``host:port`` (0 = ephemeral)
    and wired to ``service``.  The caller owns both lifecycles:
    ``service.start()`` before serving, ``service.stop()`` plus
    ``server.shutdown()`` to tear down."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server
