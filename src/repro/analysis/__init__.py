"""Static analysis over ``(TaskGraph, Machine, Mapping/SearchSpace)``.

The paper treats the runtime as a black-box oracle: a kind-valid mapping
"may still fail with OOM at execution" (§3.1), and generic tuners
"cannot represent constrained search spaces" (§4.3), so the search pays
a full discrete-event simulation to learn facts a static pass can prove
in microseconds.  This package is that pre-simulation pruning layer:

* :mod:`~repro.analysis.validity` — the single kind-level validity
  checker (constraint 1) shared by the mapping validator and the
  simulator's per-key verdict the oracle reads;
* :mod:`~repro.analysis.memfeas` — proves out-of-memory without
  simulating (the runtime memory planner's own check), short-circuits the
  oracle, and marks provably-dead search coordinates;
* :mod:`~repro.analysis.canonical` — equivalence canonicalization:
  coordinates that provably cannot affect simulated runtime are folded
  onto a canonical representative, raising profile/dedup hit rates;
* :mod:`~repro.analysis.sanitizer` — a race/dependence checker for task
  graphs: every read-write interval overlap between launches must be
  covered by a dependence path, and every edge must be justified;
* :mod:`~repro.analysis.bounds` — sound lower bounds on the simulated
  makespan (critical path, processor load, and the incremental
  engine's own schedule), powering bound-based search pruning and the
  AM4xx diagnostics, with the mandatory traffic read off the engine's
  compiled copies as their evidence (and AM501's busiest channel);
* :mod:`~repro.analysis.symmetry` — verified machine-kind automorphisms
  (interchangeable processor/memory kinds), folded by the
  canonicalizer and reported as AM502;
* :mod:`~repro.analysis.equivalence` — the static workload-equivalence
  prover: capacity-slack, unused-resource, and relabeling lemmas that
  let the mapping service serve provably-equivalent submissions from
  cache with zero simulations (AM6xx);
* :mod:`~repro.analysis.engine` — the ``repro analyze`` entry point
  combining the passes into one :class:`DiagnosticReport`.

Every finding is a :class:`~repro.analysis.diagnostics.Diagnostic` with
a stable ``AMxxx`` rule id, a severity, and a span naming the offending
kind/slot/launch, rendered via :mod:`repro.viz.table`.

Submodules that depend on the runtime layer are loaded lazily (PEP 562)
so that low-level modules (e.g. :mod:`repro.mapping.validate`) can import
:mod:`repro.analysis.validity` without a circular import.
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    Severity,
    Span,
    rule_table,
)
from repro.analysis.validity import check_mapping

__all__ = [
    "RULES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "Span",
    "rule_table",
    "check_mapping",
    # lazily loaded:
    "StaticMemoryFeasibility",
    "Canonicalizer",
    "sanitize_graph",
    "analyze",
    "StaticBoundAnalyzer",
    "BoundBreakdown",
    "MachineSymmetry",
    "KindRelabeling",
    "Workload",
    "EquivalenceProof",
    "TouchableResources",
    "prove_equivalent",
    "footprint_bounds",
    "touchable_resources",
    "diagnose_equivalence",
    "pullback_result_doc",
]

_LAZY = {
    "StaticMemoryFeasibility": ("repro.analysis.memfeas", "StaticMemoryFeasibility"),
    "Canonicalizer": ("repro.analysis.canonical", "Canonicalizer"),
    "sanitize_graph": ("repro.analysis.sanitizer", "sanitize_graph"),
    "analyze": ("repro.analysis.engine", "analyze"),
    "StaticBoundAnalyzer": ("repro.analysis.bounds", "StaticBoundAnalyzer"),
    "BoundBreakdown": ("repro.analysis.bounds", "BoundBreakdown"),
    "MachineSymmetry": ("repro.analysis.symmetry", "MachineSymmetry"),
    "KindRelabeling": ("repro.analysis.symmetry", "KindRelabeling"),
    "Workload": ("repro.analysis.equivalence", "Workload"),
    "EquivalenceProof": ("repro.analysis.equivalence", "EquivalenceProof"),
    "TouchableResources": ("repro.analysis.equivalence", "TouchableResources"),
    "prove_equivalent": ("repro.analysis.equivalence", "prove_equivalent"),
    "footprint_bounds": ("repro.analysis.equivalence", "footprint_bounds"),
    "touchable_resources": (
        "repro.analysis.equivalence",
        "touchable_resources",
    ),
    "diagnose_equivalence": (
        "repro.analysis.equivalence",
        "diagnose_equivalence",
    ),
    "pullback_result_doc": (
        "repro.analysis.equivalence",
        "pullback_result_doc",
    ),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
