"""A lightweight metrics registry (counters, gauges, histograms).

One tuning run accumulates dozens of scalar statistics: suggestion and
evaluation counts, canonicalization folds, static prunes, the
simulated search clock.  Historically each lived as an ad-hoc attribute
on whichever object happened to increment it; the registry gives them
one home with uniform naming (``oracle.suggested``,
``oracle.bound_pruned``, ...), one serialization
(:meth:`MetricsRegistry.as_dict`, embedded in reports and checkpoints),
and one invariant: a metric is *derived state*.  Resume never restores
metrics from a checkpoint — the deterministic replay re-derives every
value — so serializing them can never break resume bit-identity.

The wall-clock machinery search budgeting needs (formerly
``repro.util.timer``) lives here too: :class:`Stopwatch` is the
monotonic timer and :class:`WallBudget` the real-time safety limit the
oracle polls.  The per-evaluation counting the old ``Budget`` class
duplicated is gone — the oracle's registry counters are the single
source of truth for evaluation accounting.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Stopwatch",
    "WallBudget",
    "to_prometheus_text",
]


class Counter:
    """A monotonically-increasing scalar (ints or accumulated floats)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only increase")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A scalar that can move in either direction (e.g. best-so-far)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming summary of an observed distribution.

    Tracks count / total / min / max — enough for the report and
    checkpoint artifacts without retaining every sample (the profiles
    database already keeps raw samples where they matter).
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, n={self.count})"


def _jsonable_scalar(value):
    """Non-finite floats have no JSON encoding; null them out."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class MetricsRegistry:
    """Get-or-create store of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A sorted, JSON-encodable snapshot of every metric.

        This is the form embedded in ``report``/``checkpoint`` artifacts
        and the form the resume tests compare: an interrupted-and-resumed
        run must reproduce the uninterrupted run's snapshot exactly.
        """
        return {
            "counters": {
                name: _jsonable_scalar(c.value)
                for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: _jsonable_scalar(g.value)
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    key: _jsonable_scalar(value)
                    for key, value in h.summary().items()
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def _prometheus_name(name: str, suffix: str = "") -> str:
    """A registry name as a Prometheus metric name: dots (our namespace
    separator) become underscores, invalid characters are dropped."""
    cleaned = []
    for ch in name:
        if ch.isalnum() or ch == "_":
            cleaned.append(ch)
        else:
            cleaned.append("_")
    text = "".join(cleaned)
    if text and text[0].isdigit():
        text = "_" + text
    return f"automap_{text}{suffix}"


def _prometheus_number(value) -> str:
    if isinstance(value, bool):  # bools are ints; keep 0/1
        return "1" if value else "0"
    return repr(float(value))


def to_prometheus_text(registry) -> str:
    """Render a registry snapshot in the Prometheus text exposition
    format (one ``# TYPE`` header plus sample per metric, sorted by
    name).  Counters export as ``counter``, gauges as ``gauge``, and
    histograms as a ``summary``-style quartet: ``_count``, ``_sum``,
    ``_min``, and ``_max``.  Unset gauges and non-finite values are
    omitted — Prometheus has no encoding for "never observed".

    Accepts a live :class:`MetricsRegistry` or an :meth:`MetricsRegistry.
    as_dict` snapshot (the form reports and checkpoints embed).
    """
    lines = []
    snapshot = (
        registry.as_dict()
        if isinstance(registry, MetricsRegistry)
        else registry
    )
    for name, value in snapshot["counters"].items():
        if value is None:
            continue
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prometheus_number(value)}")
    for name, value in snapshot["gauges"].items():
        if value is None:
            continue
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prometheus_number(value)}")
    for name, summary in snapshot["histograms"].items():
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} summary")
        lines.append(
            f"{metric}_count {_prometheus_number(summary['count'])}"
        )
        lines.append(f"{metric}_sum {_prometheus_number(summary['total'])}")
        for bound in ("min", "max"):
            value = summary[bound]
            if value is not None:
                lines.append(
                    f"{metric}_{bound} {_prometheus_number(value)}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Wall-clock timing (folded in from the former repro.util.timer)
# ----------------------------------------------------------------------
class Stopwatch:
    """A restartable monotonic stopwatch.

    The clock source is injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._start: Optional[float] = None
        self._accumulated = 0.0

    def start(self) -> "Stopwatch":
        """Start (or resume) the stopwatch.  Returns ``self`` for chaining."""
        if self._start is None:
            self._start = self._clock()
        return self

    def stop(self) -> float:
        """Pause the stopwatch and return total elapsed seconds."""
        if self._start is not None:
            self._accumulated += self._clock() - self._start
            self._start = None
        return self._accumulated

    def reset(self) -> None:
        """Zero the stopwatch (stops it if running)."""
        self._start = None
        self._accumulated = 0.0

    @property
    def running(self) -> bool:
        return self._start is not None

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds, including the in-flight interval."""
        total = self._accumulated
        if self._start is not None:
            total += self._clock() - self._start
        return total


class WallBudget:
    """A wall-clock safety limit for a search.

    AutoMap's offline search is time-limited ("the search always has a
    current best mapping, and so the search can be time-limited if
    desired", paper §3.3): the oracle polls ``budget.exhausted`` between
    evaluations and stops cleanly when the real-time limit is reached.
    ``None`` means unlimited.
    """

    def __init__(
        self,
        max_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_seconds is not None and max_seconds < 0:
            raise ValueError("max_seconds must be non-negative")
        self.max_seconds = max_seconds
        self._wall = Stopwatch(clock).start()

    @property
    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._wall.elapsed

    @property
    def exhausted(self) -> bool:
        """True once the wall-clock limit has been reached."""
        return (
            self.max_seconds is not None
            and self.elapsed >= self.max_seconds
        )
