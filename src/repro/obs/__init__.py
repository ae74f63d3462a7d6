"""Observability: simulator tracing, search telemetry, metrics.

The evaluation story of the paper (§5) is not just *which* mapping wins
but *why* — where the simulated time goes (compute vs. copies vs. launch
overhead, Fig. 6) and how the search converges (§5.3).  This package
makes both inspectable without perturbing either:

* :mod:`repro.obs.trace` — a zero-overhead-when-off span recorder hooked
  into the simulator's event loop; exports Chrome trace-event JSON
  (loadable in ``chrome://tracing`` / Perfetto) and feeds the ASCII
  Gantt renderer in :mod:`repro.viz.gantt`.  Traces carry **simulated**
  clock values only, so traced and untraced runs are bit-identical.
* :mod:`repro.obs.telemetry` — per-round search records (candidates
  proposed / pruned / folded, oracle calls, best-so-far, wall time)
  emitted by the search algorithms and streamed to a machine-readable
  ``telemetry.jsonl`` artifact.
* :mod:`repro.obs.metrics` — a lightweight counter/gauge/histogram
  registry holding the oracle's evaluation accounting; serialized into
  reports and checkpoints without breaking resume bit-identity.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Stopwatch,
    WallBudget,
    to_prometheus_text,
)
from repro.obs.telemetry import RoundRecord, SearchTelemetry, load_telemetry
from repro.obs.trace import (
    TRACE_FILENAME,
    TraceRecorder,
    TraceSpan,
    load_trace,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Stopwatch",
    "WallBudget",
    "to_prometheus_text",
    "RoundRecord",
    "SearchTelemetry",
    "load_telemetry",
    "TRACE_FILENAME",
    "TraceRecorder",
    "TraceSpan",
    "load_trace",
    "validate_chrome_trace",
]
