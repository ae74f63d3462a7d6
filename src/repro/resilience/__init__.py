"""Fault tolerance for long tuning sessions.

The AutoMap loop treats the runtime as a black-box oracle queried
thousands of times (§5); on real clusters those sessions must survive
worker crashes, hangs, and preemption.  This package provides the three
pieces that make a tuning run restartable and crash-safe:

* :mod:`repro.resilience.checkpoint` — periodic, atomically-replaced
  snapshots of the full search state, and the deterministic replay
  ledger that lets ``repro tune --resume`` continue a killed run to a
  bit-identical result;
* :mod:`repro.resilience.supervisor` — recovery statistics for the
  process-pool supervision in :class:`repro.parallel.pool.SupervisedPool`
  (per-candidate timeouts, bounded retries, pool rebuilds, graceful
  degradation to serial evaluation);
* :mod:`repro.resilience.faults` — a deterministic, env-keyed fault
  injection harness so tests and CI can prove the recovery paths
  preserve bit-identical results.
"""

from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointMismatch,
    ReplayEntry,
    TuningCheckpoint,
    load_checkpoint,
    try_load_checkpoint,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisorStats

__all__ = [
    "CheckpointManager",
    "CheckpointMismatch",
    "FaultPlan",
    "ReplayEntry",
    "SupervisorStats",
    "TuningCheckpoint",
    "load_checkpoint",
    "try_load_checkpoint",
]
