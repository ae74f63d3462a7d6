"""Diagnostic framework for the static analysis passes.

Every finding any pass produces is a :class:`Diagnostic`: a stable rule
id (``AM001`` ...), a :class:`Severity`, a human-readable message, and a
:class:`Span` naming the task kind / argument slot / launch / collection
the finding is about.  Rule ids are registered centrally in :data:`RULES`
so the CLI and docs can enumerate them, and reports render through
:class:`repro.viz.table.Table` for aligned, greppable output.

Severity semantics follow the usual linter convention:

* ``ERROR`` — the artifact is wrong (invalid mapping, provable OOM,
  missing dependence edge); ``repro analyze`` exits non-zero.
* ``WARNING`` — suspicious but not provably wrong (spurious dependence
  edge, dead search coordinate worth knowing about).
* ``INFO`` — a fact the passes proved that is useful context (a
  recognised reduction idiom, an equivalence class collapse).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.viz.table import Table

# NOTE: repro.viz is imported lazily inside the rendering helpers.
# Importing it at module load would close the cycle
# viz.__init__ -> mapping -> mapping.validate -> analysis.validity ->
# analysis.diagnostics -> viz.__init__.

__all__ = [
    "Severity",
    "Span",
    "Diagnostic",
    "Rule",
    "RULES",
    "rule",
    "rule_table",
    "DiagnosticReport",
]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            names = ", ".join(s.name.lower() for s in cls)
            raise ValueError(
                f"unknown severity {text!r} (expected one of: {names})"
            ) from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Span:
    """What a diagnostic is *about*: any subset of kind, slot, launch,
    collection, and memory.  All fields optional; ``str()`` renders the
    most specific description available."""

    kind: Optional[str] = None
    slot: Optional[str] = None
    launch: Optional[str] = None
    collection: Optional[str] = None
    memory: Optional[str] = None

    def __str__(self) -> str:
        parts: List[str] = []
        if self.kind is not None:
            parts.append(
                f"{self.kind}[{self.slot}]" if self.slot is not None else self.kind
            )
        elif self.slot is not None:
            parts.append(f"[{self.slot}]")
        if self.launch is not None:
            parts.append(self.launch)
        if self.collection is not None:
            parts.append(f"collection {self.collection}")
        if self.memory is not None:
            parts.append(f"memory {self.memory}")
        return " ".join(parts) if parts else "-"


@dataclass(frozen=True)
class Rule:
    """A registered diagnostic rule."""

    id: str
    severity: Severity
    title: str
    doc: str = ""

    @property
    def passname(self) -> str:
        """The analysis pass this rule belongs to, from its id prefix."""
        return _PASSES.get(self.id[:3], "other")


#: Analysis pass per rule-id century, used to group ``--list-rules``.
_PASSES: Dict[str, str] = {
    "AM0": "mapping validity",
    "AM1": "memory feasibility",
    "AM2": "canonicalization",
    "AM3": "graph sanitizer",
    "AM4": "cost bounds",
    "AM5": "routing & symmetry",
    "AM6": "workload equivalence",
}

RULES: Dict[str, Rule] = {}


def rule(rule_id: str) -> Rule:
    """Look up a registered rule (raises ``KeyError`` on unknown ids)."""
    return RULES[rule_id]


def _register(rule_id: str, severity: Severity, title: str, doc: str) -> Rule:
    if rule_id in RULES:  # pragma: no cover - registry misuse guard
        raise ValueError(f"duplicate rule id {rule_id!r}")
    r = Rule(rule_id, severity, title, doc)
    RULES[rule_id] = r
    return r


# -- AM0xx: kind-level mapping validity (paper §4.2 constraint 1) -------
_register(
    "AM001",
    Severity.ERROR,
    "task kind has no mapping decision",
    "Every task kind of the graph needs a decision in the mapping.",
)
_register(
    "AM002",
    Severity.ERROR,
    "decision slot count differs from kind",
    "A decision must carry one memory kind per collection-argument slot.",
)
_register(
    "AM003",
    Severity.ERROR,
    "no task variant for chosen processor kind",
    "The kind has no object code for the processor kind the decision picks.",
)
_register(
    "AM004",
    Severity.ERROR,
    "machine has no processor of chosen kind",
    "The decision targets a processor kind absent from the machine.",
)
_register(
    "AM005",
    Severity.ERROR,
    "machine has no memory of chosen kind",
    "A slot targets a memory kind absent from the machine.",
)
_register(
    "AM006",
    Severity.ERROR,
    "memory kind not addressable from processor",
    "The slot's memory kind violates the kind addressability relation.",
)
_register(
    "AM007",
    Severity.ERROR,
    "decision for task kind not in the graph",
    "The mapping covers a task kind the graph never launches.",
)

# -- AM1xx: static memory feasibility ----------------------------------
_register(
    "AM101",
    Severity.WARNING,
    "search coordinate provably exceeds memory",
    "Any mapping using this coordinate overflows a memory; the search "
    "skips it.",
)
_register(
    "AM102",
    Severity.ERROR,
    "mapping provably exceeds memory capacity",
    "The liveness-based footprint bound proves this mapping cannot fit.",
)

# -- AM2xx: equivalence canonicalization -------------------------------
_register(
    "AM201",
    Severity.INFO,
    "distribute choice cannot affect runtime",
    "Single-point or single-node launches run identically either way.",
)
_register(
    "AM202",
    Severity.INFO,
    "memory choice cannot affect runtime",
    "Zero-byte slots move no data, so their memory kind is folded.",
)
_register(
    "AM203",
    Severity.WARNING,
    "task kind has zero launches",
    "A kind with no launches adds dead coordinates to the search space.",
)

# -- AM3xx: task-graph sanitizer ---------------------------------------
_register(
    "AM301",
    Severity.ERROR,
    "read-write overlap not covered by dependence",
    "Two launches touch overlapping bytes with no dependence path: a race.",
)
_register(
    "AM302",
    Severity.WARNING,
    "dependence edge without interval overlap",
    "The edge's collections never overlap, so it only serialises work.",
)
_register(
    "AM303",
    Severity.ERROR,
    "overlapping writes within one group launch",
    "Point tasks of one group are independent and must write disjointly.",
)
_register(
    "AM304",
    Severity.INFO,
    "replicated read-write slot (reduction idiom)",
    "A replicated read-write argument is a recognised reduction pattern.",
)

# -- AM4xx: static cost bounds -----------------------------------------
_register(
    "AM401",
    Severity.WARNING,
    "mapping provably dominated",
    "The static makespan lower bound already exceeds the reference "
    "mapping's simulated time.",
)
_register(
    "AM402",
    Severity.WARNING,
    "communication-dominated placement",
    "Mandatory traffic over one channel outweighs every compute bound; "
    "the channel and its heaviest edge are named.",
)
_register(
    "AM403",
    Severity.INFO,
    "statically idle processor kind",
    "The machine offers a processor kind with task variants that the "
    "mapping never uses.",
)


# -- AM5xx: channel routing & machine symmetry -------------------------
_register(
    "AM501",
    Severity.WARNING,
    "bottleneck channel dominates routed traffic",
    "One channel carries a majority of all routed bytes; its congestion "
    "sets the communication bound.",
)
_register(
    "AM502",
    Severity.INFO,
    "machine kinds interchangeable under relabeling",
    "A verified kind automorphism folds relabeled mappings onto one "
    "canonical orbit member.",
)
_register(
    "AM503",
    Severity.WARNING,
    "memory pair unreachable via channels",
    "No channel path connects the pair; any mapping needing a copy "
    "between them fails at simulation time.",
)


# -- AM6xx: workload observational equivalence -------------------------
_register(
    "AM601",
    Severity.INFO,
    "memory capacity exceeds reachable footprint bound",
    "Capacity above the exact static footprint bound is unobservable: "
    "no reachable mapping can tell this memory from a larger one.",
)
_register(
    "AM602",
    Severity.INFO,
    "resource unreachable by any searched mapping",
    "No searched or fixed decision can touch this processor kind, "
    "memory, or channel, so its parameters are unobservable.",
)
_register(
    "AM603",
    Severity.INFO,
    "workload equivalent modulo verified relabeling",
    "A verified machine automorphism maps the workload onto itself; "
    "relabeled submissions can be served from the same cached result.",
)


def rule_table() -> "Table":
    """All registered rules, grouped by analysis pass, with their
    one-line docs — rendered straight from the registry so the CLI
    listing can never drift from the code."""
    from repro.viz.table import Table

    table = Table(["rule", "pass", "severity", "title", "doc"])
    for r in sorted(RULES.values(), key=lambda r: r.id):
        table.add_row([r.id, r.passname, str(r.severity), r.title, r.doc])
    return table


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analysis pass."""

    rule_id: str
    message: str
    span: Span = field(default_factory=Span)
    severity: Optional[Severity] = None

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise ValueError(f"unregistered rule id {self.rule_id!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", RULES[self.rule_id].severity)

    def __str__(self) -> str:
        return f"{self.rule_id} {self.severity}: {self.span}: {self.message}"


class DiagnosticReport:
    """An ordered collection of diagnostics from one or more passes."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diagnostics: List[Diagnostic] = list(diagnostics)

    # -- collection protocol ------------------------------------------
    def add(self, diagnostic: Diagnostic) -> None:
        self._diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self._diagnostics.extend(diagnostics)

    def __iter__(self):
        return iter(self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __bool__(self) -> bool:
        return bool(self._diagnostics)

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return tuple(self._diagnostics)

    # -- queries -------------------------------------------------------
    def with_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self._diagnostics if d.severity is severity]

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self._diagnostics if d.severity >= severity]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self._diagnostics if d.rule_id == rule_id]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.with_severity(Severity.ERROR)

    def max_severity(self) -> Optional[Severity]:
        if not self._diagnostics:
            return None
        return max(d.severity for d in self._diagnostics)

    def counts(self) -> Dict[Severity, int]:
        out = {s: 0 for s in Severity}
        for d in self._diagnostics:
            out[d.severity] += 1
        return out

    # -- rendering -----------------------------------------------------
    def to_table(self, min_severity: Severity = Severity.INFO) -> "Table":
        """Render as an aligned :class:`repro.viz.table.Table`."""
        from repro.viz.table import Table

        table = Table(["rule", "severity", "where", "message"])
        for d in self._diagnostics:
            if d.severity < min_severity:
                continue
            table.add_row([d.rule_id, str(d.severity), str(d.span), d.message])
        return table

    def render(
        self,
        title: Optional[str] = None,
        min_severity: Severity = Severity.INFO,
    ) -> str:
        shown = [d for d in self._diagnostics if d.severity >= min_severity]
        if not shown:
            return f"{title}: no diagnostics" if title else "no diagnostics"
        counts = self.counts()
        summary = ", ".join(
            f"{counts[s]} {s}" + ("s" if counts[s] != 1 else "")
            for s in sorted(Severity, reverse=True)
            if counts[s]
        )
        body = self.to_table(min_severity).render(title)
        return f"{body}\n{summary}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
