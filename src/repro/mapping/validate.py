"""Mapping validity: constraint (1) of the paper.

"A task argument is mapped to a memory visible to the task's processor"
(§4.2, constraint 1) plus the variant requirement of §2 ("to run on a
processor kind, a task must have a variant for that processor kind").
Validity here is *kind-level*: capacity violations are a runtime matter —
a valid mapping may still fail with OOM at execution (§3.1), which the
evaluation oracle reports separately.

The actual checking lives in :mod:`repro.analysis.validity` (one shared
implementation, also used by the simulator and ``repro analyze``);
this module keeps the historical exception-and-string API.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.validity import explain_problems
from repro.machine.model import Machine
from repro.mapping.mapping import Mapping
from repro.taskgraph.graph import TaskGraph

__all__ = ["MappingError", "validate", "is_valid", "explain_invalid"]


class MappingError(ValueError):
    """Raised when a mapping violates a kind-level validity constraint."""


def validate(graph: TaskGraph, machine: Machine, mapping: Mapping) -> None:
    """Raise :class:`MappingError` if ``mapping`` is invalid for the
    graph/machine pair."""
    reason = explain_problems(graph, machine, mapping)
    if reason is not None:
        raise MappingError(reason)


def is_valid(graph: TaskGraph, machine: Machine, mapping: Mapping) -> bool:
    """Whether ``mapping`` satisfies all kind-level constraints."""
    return explain_problems(graph, machine, mapping) is None


def explain_invalid(
    graph: TaskGraph, machine: Machine, mapping: Mapping
) -> Optional[str]:
    """Human-readable reason the mapping is invalid, or ``None`` if valid."""
    return explain_problems(graph, machine, mapping)
