"""Simulator execution traces in Chrome trace-event format.

:class:`TraceRecorder` collects *spans* — task executions, DMA copies,
and launch overheads — as the executor schedules them on processor and
channel timelines.  The recorder is opt-in and threaded through the
runtime as an optional argument (``None`` everywhere by default), so an
untraced run pays zero overhead and a traced run records pure
observations of the same deterministic schedule: every timestamp is a
**simulated**-clock value, never wall time, which is what makes a traced
run's makespan bit-identical to an untraced one.

Export is the Chrome trace-event JSON format (the ``traceEvents`` array
of ``ph: "X"`` complete events), directly loadable in ``chrome://
tracing`` and https://ui.perfetto.dev.  Processors and channels appear
as named threads under two process groups; per-span ``args`` carry the
compute / access / overhead decomposition the Fig. 6 narrative needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro.util.serialization import dump_json, load_json

__all__ = [
    "TRACE_FILENAME",
    "CAT_TASK",
    "CAT_OVERHEAD",
    "CAT_COPY",
    "TraceSpan",
    "TraceRecorder",
    "TraceDiff",
    "diff_traces",
    "load_trace",
    "validate_chrome_trace",
]

#: Default artifact name inside a working directory.
TRACE_FILENAME = "trace.json"

#: Span categories (the Chrome ``cat`` field).
CAT_TASK = "task"
CAT_OVERHEAD = "overhead"
CAT_COPY = "copy"

#: Chrome process-group ids for the two resource classes.
_PID_PROCESSORS = 1
_PID_CHANNELS = 2

#: Simulated seconds -> Chrome trace microseconds.
_US = 1e6


@dataclass(frozen=True)
class TraceSpan:
    """One closed interval on one resource timeline (simulated clock)."""

    name: str
    category: str  # CAT_TASK | CAT_OVERHEAD | CAT_COPY
    resource: str  # processor uid or channel key
    start: float  # simulated seconds
    duration: float  # simulated seconds
    args: dict = field(default_factory=dict)

    @property
    def finish(self) -> float:
        return self.start + self.duration


class TraceRecorder:
    """Collects spans from one deterministic execution.

    The runtime only ever calls the ``record_*`` methods; everything
    else is export/analysis.  Spans arrive in the executor's
    deterministic scheduling order, so two recordings of the same
    (graph, machine, mapping) triple are identical.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.spans: List[TraceSpan] = []
        #: Simulated makespan of the traced execution (set on finalize).
        self.makespan: float = 0.0

    # ------------------------------------------------------------------
    # Recording hooks (called by repro.runtime with the recorder on)
    # ------------------------------------------------------------------
    def record_task(
        self,
        kind_name: str,
        proc: str,
        start: float,
        duration: float,
        point: int,
        compute: float,
        access: float,
        overhead: float,
    ) -> None:
        """One point task occupying ``proc`` for ``duration`` seconds."""
        if overhead > 0:
            self.spans.append(
                TraceSpan(
                    name=f"{kind_name}:launch",
                    category=CAT_OVERHEAD,
                    resource=proc,
                    start=start,
                    duration=overhead,
                    args={"kind": kind_name, "point": point},
                )
            )
        self.spans.append(
            TraceSpan(
                name=kind_name,
                category=CAT_TASK,
                resource=proc,
                start=start,
                duration=duration,
                args={
                    "kind": kind_name,
                    "point": point,
                    "compute_seconds": compute,
                    "access_seconds": access,
                    "overhead_seconds": overhead,
                },
            )
        )

    def record_copy(
        self,
        channel: str,
        src_mem: str,
        dst_mem: str,
        start: float,
        duration: float,
        nbytes: int,
    ) -> None:
        """One hop of one DMA copy occupying ``channel``."""
        self.spans.append(
            TraceSpan(
                name=f"copy {src_mem}->{dst_mem}",
                category=CAT_COPY,
                resource=channel,
                start=start,
                duration=duration,
                args={
                    "src_mem": src_mem,
                    "dst_mem": dst_mem,
                    "bytes": nbytes,
                },
            )
        )

    def finalize(self, makespan: float) -> None:
        self.makespan = makespan

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def resources(self) -> List[str]:
        """Every resource that appears in the trace, sorted."""
        return sorted({span.resource for span in self.spans})

    def breakdown(self) -> dict:
        """Where the simulated time went (the Fig. 6 narrative).

        Processor-time fractions (``compute`` / ``copy`` / ``overhead``
        / ``idle``) are normalised over ``makespan x |active
        processors|`` — processors the mapping never used do not dilute
        the idle fraction.  The streaming access term of the cost model
        counts as copy time (it is data movement paid inside the task);
        DMA transfers on channels overlap with compute and are reported
        separately under ``dma``.
        """
        compute = access = overhead = busy = 0.0
        procs = set()
        dma_seconds = 0.0
        dma_bytes = 0
        dma_copies = 0
        for span in self.spans:
            if span.category == CAT_TASK:
                procs.add(span.resource)
                busy += span.duration
                compute += span.args.get("compute_seconds", 0.0)
                access += span.args.get("access_seconds", 0.0)
                overhead += span.args.get("overhead_seconds", 0.0)
            elif span.category == CAT_COPY:
                dma_seconds += span.duration
                dma_bytes += span.args.get("bytes", 0)
                dma_copies += 1
        proc_time = self.makespan * len(procs)
        idle = max(0.0, proc_time - busy)

        def fraction(seconds: float) -> float:
            return seconds / proc_time if proc_time > 0 else 0.0

        return {
            "makespan": self.makespan,
            "active_processors": len(procs),
            "compute_seconds": compute,
            "copy_seconds": access,
            "overhead_seconds": overhead,
            "idle_seconds": idle,
            "compute_fraction": fraction(compute),
            "copy_fraction": fraction(access),
            "overhead_fraction": fraction(overhead),
            "idle_fraction": fraction(idle),
            "dma": {
                "copies": dma_copies,
                "bytes_moved": dma_bytes,
                "copy_seconds": dma_seconds,
            },
        }

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def to_chrome_doc(self) -> dict:
        """The trace as a Chrome trace-event JSON document."""
        tids: Dict[str, int] = {
            name: index for index, name in enumerate(self.resources())
        }
        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": _PID_PROCESSORS,
                "args": {"name": "Processors"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": _PID_CHANNELS,
                "args": {"name": "Channels"},
            },
        ]
        for name, tid in sorted(tids.items()):
            pid = (
                _PID_CHANNELS
                if name.startswith("chan:")
                else _PID_PROCESSORS
            )
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        for span in self.spans:
            pid = (
                _PID_CHANNELS
                if span.category == CAT_COPY
                else _PID_PROCESSORS
            )
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start * _US,
                    "dur": span.duration * _US,
                    "pid": pid,
                    "tid": tids[span.resource],
                    "args": dict(span.args, resource=span.resource),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "label": self.label,
                "makespan_seconds": self.makespan,
                "clock": "simulated",
            },
        }

    def save(self, path: Union[str, Path]) -> None:
        """Write the Chrome trace-event JSON atomically."""
        dump_json(self.to_chrome_doc(), path)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass
class TraceDiff:
    """Result of comparing two traces span-by-span."""

    identical: bool
    #: Human-readable difference lines, first mismatches first.
    lines: List[str] = field(default_factory=list)
    #: Span-level mismatches found (may exceed ``len(lines)`` when the
    #: report was truncated).
    mismatches: int = 0

    def render(self) -> str:
        if self.identical:
            return "traces are identical"
        header = f"traces differ ({self.mismatches} mismatch(es))"
        return "\n".join([header] + self.lines)


def _span_fields(span: TraceSpan) -> dict:
    return {
        "name": span.name,
        "category": span.category,
        "resource": span.resource,
        "start": span.start,
        "duration": span.duration,
        "args": span.args,
    }


def diff_traces(
    a: TraceRecorder, b: TraceRecorder, limit: int = 20
) -> TraceDiff:
    """Compare two traces exactly — the incremental-identity gate.

    Spans are compared in recording order (the executor is
    deterministic, so equivalent executions produce the same order),
    field by field, floats included: any numeric deviation counts as a
    mismatch.  At most ``limit`` differences are rendered; the full
    count is always reported.
    """
    lines: List[str] = []
    mismatches = 0

    def note(line: str) -> None:
        nonlocal mismatches
        mismatches += 1
        if len(lines) < limit:
            lines.append(line)

    if a.makespan != b.makespan:
        note(f"makespan: {a.makespan!r} != {b.makespan!r}")
    if len(a.spans) != len(b.spans):
        note(f"span count: {len(a.spans)} != {len(b.spans)}")
    for index, (span_a, span_b) in enumerate(zip(a.spans, b.spans)):
        fields_a = _span_fields(span_a)
        fields_b = _span_fields(span_b)
        if fields_a == fields_b:
            continue
        for key in fields_a:
            if fields_a[key] != fields_b[key]:
                note(
                    f"span {index} ({span_a.name!r} on "
                    f"{span_a.resource}): {key} "
                    f"{fields_a[key]!r} != {fields_b[key]!r}"
                )
    return TraceDiff(
        identical=mismatches == 0, lines=lines, mismatches=mismatches
    )


# ----------------------------------------------------------------------
# Import / validation
# ----------------------------------------------------------------------
def validate_chrome_trace(doc: object) -> int:
    """Check ``doc`` is a well-formed Chrome trace-event document.

    Returns the number of duration (``ph: "X"``) events; raises
    :class:`ValueError` with a pointed message otherwise.  Used by the
    CI trace-validation gate and the loader below.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    spans = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            raise ValueError(
                f"event {index}: unsupported phase {phase!r} "
                "(expected 'X' or 'M')"
            )
        if "name" not in event or "pid" not in event:
            raise ValueError(f"event {index}: missing 'name' or 'pid'")
        if phase == "X":
            for key in ("ts", "dur", "tid"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValueError(
                        f"event {index}: 'X' event needs numeric {key!r}"
                    )
            if event["dur"] < 0:
                raise ValueError(f"event {index}: negative duration")
            spans += 1
    return spans


def load_trace(path: Union[str, Path]) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from a saved Chrome trace.

    Only the spans this module itself exports are reconstructed; the
    document is validated first so a truncated or foreign file fails
    loudly.
    """
    doc = load_json(Path(path))
    validate_chrome_trace(doc)
    other = doc.get("otherData") or {}
    recorder = TraceRecorder(label=str(other.get("label", "")))
    recorder.finalize(float(other.get("makespan_seconds", 0.0)))
    for event in doc["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        resource = args.pop("resource", None)
        if resource is None:
            raise ValueError(
                f"span {event.get('name')!r} lacks args.resource "
                "(not written by repro.obs.trace?)"
            )
        recorder.spans.append(
            TraceSpan(
                name=event["name"],
                category=event.get("cat", CAT_TASK),
                resource=resource,
                start=event["ts"] / _US,
                duration=event["dur"] / _US,
                args=args,
            )
        )
    return recorder
