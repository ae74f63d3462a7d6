"""Fault tolerance for long tuning sessions.

The AutoMap loop treats the runtime as a black-box oracle queried
thousands of times (§5); on real clusters those sessions must survive
crashes and preemption.  :mod:`repro.resilience.checkpoint` makes a
tuning run restartable: periodic, atomically-replaced snapshots of the
full search state, and the deterministic replay ledger that lets
``repro tune --resume`` continue a killed run to a bit-identical result.
"""

from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointMismatch,
    ReplayEntry,
    TuningCheckpoint,
    load_checkpoint,
    try_load_checkpoint,
)

__all__ = [
    "CheckpointManager",
    "CheckpointMismatch",
    "ReplayEntry",
    "TuningCheckpoint",
    "load_checkpoint",
    "try_load_checkpoint",
]
