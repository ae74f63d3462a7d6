"""Deterministic fault injection for worker processes.

Real clusters kill tuning workers in two characteristic ways: a hard
crash (OOM killer, node failure, preemption) and a silent hang (network
partition, wedged device).  To exercise the supervision machinery in
:class:`repro.parallel.pool.SupervisedPool` reproducibly, this module
injects both failure modes *inside* the worker entry point, keyed by
environment variables so the configuration crosses the process boundary
for free:

``REPRO_FAULT_CRASH_P``
    Probability that a worker hard-exits while simulating a candidate.
``REPRO_FAULT_HANG_P``
    Probability that a worker sleeps for ``REPRO_FAULT_HANG_SECONDS``
    (default 3600) instead of returning — exercising the per-candidate
    timeout path.
``REPRO_FAULT_SEED``
    Seed of the fault stream (default 0).

The draw for a candidate is a pure function of ``(seed, mapping key,
attempt)``: the same candidate fails identically on every worker and in
every re-run of the test, while a *retry* (attempt + 1) gets a fresh
draw — exactly the transient-failure model supervision is built for.
Setting both probabilities to 1.0 makes every attempt fail, which is
how tests force retry exhaustion and the serial fallback.

Faults are only ever injected in worker processes, whose results feed
the oracle's deterministic-result cache; the oracle's serial evaluation
recomputes anything a dead worker failed to deliver.  Injection can
therefore change *how* a result was obtained, never *what* it is.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping as TMapping, Optional

from repro.util.rng import _SEED_SPACE, derive_seed

__all__ = ["FaultPlan"]

#: Exit status of an injected crash (distinctive in worker logs).
CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class FaultPlan:
    """Injection probabilities for one worker process."""

    crash_p: float = 0.0
    hang_p: float = 0.0
    hang_seconds: float = 3600.0
    seed: int = 0

    @property
    def active(self) -> bool:
        return self.crash_p > 0.0 or self.hang_p > 0.0

    @staticmethod
    def from_env(env: Optional[TMapping[str, str]] = None) -> "FaultPlan":
        """Build the plan from ``REPRO_FAULT_*`` environment variables
        (all unset → the inactive no-fault plan)."""
        if env is None:
            env = os.environ
        return FaultPlan(
            crash_p=float(env.get("REPRO_FAULT_CRASH_P", "0")),
            hang_p=float(env.get("REPRO_FAULT_HANG_P", "0")),
            hang_seconds=float(env.get("REPRO_FAULT_HANG_SECONDS", "3600")),
            seed=int(env.get("REPRO_FAULT_SEED", "0")),
        )

    # ------------------------------------------------------------------
    def decide(self, context: str, attempt: int) -> str:
        """The fault verdict — ``"crash"``, ``"hang"``, or ``"ok"`` —
        for one (candidate, attempt) pair.  Deterministic: the same
        inputs always produce the same verdict."""
        draw = derive_seed(self.seed, context, str(attempt)) / _SEED_SPACE
        if draw < self.crash_p:
            return "crash"
        if draw < self.crash_p + self.hang_p:
            return "hang"
        return "ok"

    def maybe_fail(self, context: str, attempt: int) -> None:
        """Apply the verdict inside a worker process: hard-exit the
        process or sleep past any reasonable timeout.  No-op when the
        verdict is ``"ok"`` or the plan is inactive."""
        if not self.active:
            return
        verdict = self.decide(context, attempt)
        if verdict == "crash":
            os._exit(CRASH_EXIT_CODE)
        if verdict == "hang":
            time.sleep(self.hang_seconds)
