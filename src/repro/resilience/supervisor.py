"""Recovery accounting for supervised worker pools.

:class:`repro.parallel.pool.SupervisedPool` supervises its worker
processes: per-candidate timeouts, bounded retries with exponential
backoff, pool rebuilds after
:class:`~concurrent.futures.process.BrokenProcessPool`, and — when
workers keep dying — graceful degradation to serial evaluation.  All of
those events are counted here so the engine can surface them in the
:class:`~repro.core.engine.TuningReport`.

The counts live in a :class:`repro.obs.metrics.MetricsRegistry` (under
``supervisor.*`` names) so they serialize alongside the oracle's
evaluation accounting; the attribute API (``stats.timeouts += 1``) is
preserved via properties, so callers never see the registry.

Because the pool only ever *warms the deterministic-result cache*
(prefetch-then-evaluate, see :mod:`repro.core.oracle`), every recovery
action is result-preserving by construction: a candidate whose worker
died is simply recomputed by the oracle's serial evaluation.  Supervision
decides how much wall-clock the failures cost, never what the search
observes.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["SupervisorStats"]

#: Recovery-event counters, in display order.
_COUNTER_FIELDS = (
    "timeouts",
    "broken_pools",
    "worker_errors",
    "retries",
    "pool_rebuilds",
    "abandoned",
)


def _counter_property(fname: str, doc: str) -> property:
    def fget(self: "SupervisorStats") -> int:
        return self._counters[fname].value

    def fset(self: "SupervisorStats", value: int) -> None:
        # ``stats.timeouts += 1`` arrives here as the new total; the
        # counter's own inc() rejects the delta going negative, keeping
        # the monotonic contract the old int fields had implicitly.
        counter = self._counters[fname]
        counter.inc(value - counter.value)

    return property(fget, fset, doc=doc)


class SupervisorStats:
    """Counts of every recovery event during one tuning run."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: Registry holding the ``supervisor.*`` metrics.  Pass the
        #: oracle's registry to fold recovery accounting into the same
        #: namespace; by default the stats own a private one.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._counters = {
            fname: self.metrics.counter(f"supervisor.{fname}")
            for fname in _COUNTER_FIELDS
        }
        self._fallback = self.metrics.gauge("supervisor.serial_fallback")

    timeouts = _counter_property(
        "timeouts",
        "Candidates whose worker result did not arrive within the "
        "per-candidate timeout (hung worker; forces a pool rebuild).",
    )
    broken_pools = _counter_property(
        "broken_pools",
        "Batches that died with BrokenProcessPool (worker crash).",
    )
    worker_errors = _counter_property(
        "worker_errors",
        "Worker-side exceptions returned for individual candidates.",
    )
    retries = _counter_property(
        "retries",
        "Re-submission rounds after a failed batch (bounded, backed off).",
    )
    pool_rebuilds = _counter_property(
        "pool_rebuilds",
        "Times the process pool was torn down and restarted.",
    )
    abandoned = _counter_property(
        "abandoned",
        "Candidates given up on after retry exhaustion (recomputed by "
        "the oracle's serial evaluation; the result is unaffected).",
    )

    @property
    def serial_fallback(self) -> bool:
        """True once supervision stopped using workers entirely and the
        rest of the run evaluated serially."""
        return bool(self._fallback.value)

    @serial_fallback.setter
    def serial_fallback(self, value: bool) -> None:
        self._fallback.set(bool(value))

    @property
    def any_events(self) -> bool:
        return (
            any(counter.value > 0 for counter in self._counters.values())
            or self.serial_fallback
        )

    def describe(self) -> str:
        parts = [
            f"{self._counters[fname].value} {fname.replace('_', ' ')}"
            for fname in _COUNTER_FIELDS
        ]
        line = ", ".join(parts)
        if self.serial_fallback:
            line += "; degraded to serial evaluation"
        return line

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SupervisorStats({self.describe()!r})"
