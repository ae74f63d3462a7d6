"""The deterministic result document served by ``GET /jobs/<id>/report``.

``report.txt`` (the human summary) is *not* deterministic across
execution modes: it prints wall-clock telemetry and resume/checkpoint
counters that legitimately differ between an uninterrupted run and a
killed-and-resumed one.  The service's contractual artifact is therefore
``result.json``, built from exactly the fields the resilience replay
contract guarantees bit-identical — the same field list the fuzz
harness's resume and incremental invariants compare:

``best_mapping``, ``best_mean``, ``best_stddev``, the best-so-far search
``trace``, ``suggested`` / ``evaluated`` / ``invalid_suggestions`` /
``failed_evaluations``, ``search_seconds`` (the *simulated* search
clock), and the ``finalists`` table.

Everything outside that list (simulation counts, wall seconds) varies
with ``incremental`` / checkpoint placement and is reported per-job via
``GET /jobs/<id>`` instead — it
must never leak into the cached artifact, or a cache hit could not be
byte-identical to a recomputation.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.util.serialization import to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import TuningReport

__all__ = [
    "RESULT_FILENAME",
    "RESULT_FORMAT",
    "result_doc",
    "result_json_bytes",
]

RESULT_FORMAT = "automap-result-v1"
RESULT_FILENAME = "result.json"


def result_doc(
    report: "TuningReport", fingerprint: Optional[str] = None
) -> dict:
    """The deterministic JSON document for one tuning report."""
    from repro.mapping.io import mapping_to_doc

    return {
        "format": RESULT_FORMAT,
        "fingerprint": fingerprint,
        "application": report.application,
        "machine": report.machine_name,
        "algorithm": report.algorithm,
        "best_mapping": (
            None
            if report.best_mapping is None
            else mapping_to_doc(report.best_mapping)
        ),
        "best_mean": report.best_mean,
        "best_stddev": report.best_stddev,
        "search_seconds": report.search_seconds,
        "suggested": report.suggested,
        "evaluated": report.evaluated,
        "invalid_suggestions": report.invalid_suggestions,
        "failed_evaluations": report.failed_evaluations,
        "trace": [
            {
                "elapsed": point.elapsed,
                "evaluations": point.evaluations,
                "suggested": point.suggested,
                "best_performance": point.best_performance,
            }
            for point in report.search.trace
        ],
        "finalists": [
            {
                "mapping": mapping_to_doc(mapping),
                "mean": mean,
                "stddev": stddev,
                "runs": runs,
            }
            for mapping, mean, stddev, runs in report.finalists
        ],
    }


def result_json_bytes(doc: dict) -> bytes:
    """Canonical byte encoding of a result document.

    Sorted keys, fixed separators, trailing newline — the exact bytes
    are the cache artifact and the byte-identity contract, so there is
    one encoder and everything (worker, cache, tests, CI smoke) goes
    through it."""
    return (
        json.dumps(to_jsonable(doc), sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")
