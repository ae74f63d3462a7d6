"""The service workload: two closed-loop HTTP clients against one
in-process mapping service.

The service is the program's own ``MappingService`` (one worker, default
poll interval) behind ``make_server`` on 127.0.0.1, started on a fresh,
empty root for every pass.  Each client replays its seeded script
(:func:`workloads.client_script`): it sends a request, and only after the
report bytes arrived the next one.  A miss is polled every
``POLL_INTERVAL`` seconds until the job is done.  Latency runs from just
before the POST to having the ``report`` bytes.

Correctness: every request must end ``done`` in the cache mode its
script names; an exact hit must return the base miss's ``result.json``
bytes; an equivalence hit may differ from the base report only in the
fingerprint and the (renamed) machine name.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.machine import MACHINE_ZOO
from repro.service import MappingService
from repro.service.http import make_server

from layers import REQUEST_HEADER
from workloads import EXACT, MISS, ClientScript, Request

POLL_INTERVAL = 0.01
#: Seconds a single request may take before the client gives up.
REQUEST_TIMEOUT = 120.0


def shepard_memories() -> Dict[str, int]:
    machine = MACHINE_ZOO["shepard"](1)
    return {memory.uid: memory.capacity for memory in machine.memories}


class Service:
    """A running service on a fresh root (the set-up of one pass)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.service = MappingService(root)
        self.server = make_server(self.service, "127.0.0.1", 0)
        self.service.start()
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http", daemon=True
        )
        self.thread.start()

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.service.stop()
        shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class Outcome:
    client: int
    request: Request
    latency: float = 0.0
    job_id: Optional[str] = None
    record: Optional[dict] = None
    report: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def tag(self) -> str:
        return f"c{self.client}-r{self.request.index}"


class Client:
    """One closed-loop client on a keep-alive connection."""

    def __init__(self, port: int, script: ClientScript) -> None:
        self.port = port
        self.script = script
        self.outcomes: List[Outcome] = []

    def _call(self, conn, method: str, path: str, tag: str, body=None):
        headers = {REQUEST_HEADER: tag}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        if response.status >= 300:
            raise RuntimeError(f"{method} {path}: {response.status} {data!r}")
        return data

    def _one(self, conn, outcome: Outcome) -> None:
        tag = outcome.tag
        body = json.dumps(outcome.request.doc).encode("utf-8")
        started = time.perf_counter()
        record = json.loads(self._call(conn, "POST", "/jobs", tag, body))
        job_id = record["job_id"]
        outcome.job_id = job_id
        while record["state"] not in ("done", "failed"):
            if time.perf_counter() - started > REQUEST_TIMEOUT:
                raise TimeoutError(f"job {job_id} did not finish")
            time.sleep(POLL_INTERVAL)
            record = json.loads(self._call(conn, "GET", f"/jobs/{job_id}", tag))
        if record["state"] == "failed":
            raise RuntimeError(f"job {job_id} failed: {record['error']}")
        outcome.report = self._call(conn, "GET", f"/jobs/{job_id}/report", tag)
        outcome.latency = time.perf_counter() - started
        outcome.record = record

    def run(self, barrier: threading.Barrier) -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            barrier.wait()
            for request in self.script.requests:
                outcome = Outcome(self.script.client, request)
                try:
                    self._one(conn, outcome)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
                    )
                self.outcomes.append(outcome)
        finally:
            conn.close()


def replay(port: int, scripts: List[ClientScript]):
    """Run the clients concurrently; returns (wall seconds, outcomes)."""
    clients = [Client(port, script) for script in scripts]
    barrier = threading.Barrier(len(clients) + 1)
    threads = [
        threading.Thread(target=client.run, args=(barrier,), name=f"client-{i}")
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return wall, [o for client in clients for o in client.outcomes]


def _problem(outcome: Outcome, by_index: dict) -> Optional[str]:
    """What is wrong with one served request, or None."""
    request = outcome.request
    if outcome.error is not None:
        return outcome.error
    mode = outcome.record["cache_mode"]
    if mode != request.mode:
        return f"served as {mode!r}"
    doc = json.loads(outcome.report)
    if doc.get("fingerprint") != outcome.record["fingerprint"]:
        return "report fingerprint differs from the job's"
    if request.mode == MISS:
        if outcome.record["simulations"] <= 0:
            return "fresh tune ran no simulations"
        return None
    base = by_index.get((outcome.client, request.base))
    if base is None or base.report is None:
        return "base request has no report"
    if request.mode == EXACT:
        if outcome.report != base.report:
            return "bytes differ from the base report"
        return None
    base_doc = json.loads(base.report)
    differing = {
        key for key in set(doc) | set(base_doc) if doc.get(key) != base_doc.get(key)
    }
    if differing - {"fingerprint", "machine"}:
        return f"report differs from the base in {sorted(differing)}"
    expected = request.machine_name or base_doc["machine"]
    if doc.get("machine") != expected:
        return f"machine {doc.get('machine')!r}, expected {expected!r}"
    return None


def check(outcomes: List[Outcome]) -> List[str]:
    """Correctness problems, at most one line per request."""
    by_index = {(o.client, o.request.index): o for o in outcomes}
    problems = []
    for outcome in outcomes:
        problem = _problem(outcome, by_index)
        if problem is not None:
            problems.append(f"{outcome.tag} ({outcome.request.mode}): {problem}")
    return problems


def latencies(outcomes: List[Outcome], mode: str) -> List[float]:
    return [
        o.latency
        for o in outcomes
        if o.request.mode == mode and o.error is None
    ]


def miss_best_means(outcomes: List[Outcome]) -> List[float]:
    return [
        json.loads(o.report)["best_mean"]
        for o in outcomes
        if o.request.mode == MISS and o.report is not None
    ]
