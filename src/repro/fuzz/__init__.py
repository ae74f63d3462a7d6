"""Soundness fuzzing: seeded random (generator, machine, search-config)
triples checked against the pipeline's six invariants.

The paper's search treats the simulator as ground truth, so the pieces
that *reason about* simulations — static lower bounds, equivalence
canonicalization, machine-symmetry folding, checkpoint/resume, the
incremental-simulation identity and the workload-equivalence proofs
the service's result cache relies on — must never disagree with it.
:mod:`repro.fuzz` stress-tests exactly those contracts over the
synthetic generator families (:mod:`repro.generators`) and the machine
zoo (:mod:`repro.machine.builders`), shrinks any failure to a minimal
reproducer, and persists it to a corpus replayed as regression tests
(``tests/property/corpus/``).

Entry points: ``repro fuzz`` on the command line, :func:`fuzz` and
:func:`run_case` from code.
"""

from __future__ import annotations

from repro.fuzz.case import FuzzCase, build_case, sample_case
from repro.fuzz.harness import (
    INVARIANTS,
    CaseResult,
    FuzzReport,
    Violation,
    fuzz,
    load_corpus,
    run_case,
    save_case,
    shrink_case,
)

__all__ = [
    "INVARIANTS",
    "FuzzCase",
    "CaseResult",
    "FuzzReport",
    "Violation",
    "build_case",
    "sample_case",
    "run_case",
    "shrink_case",
    "fuzz",
    "save_case",
    "load_corpus",
]
