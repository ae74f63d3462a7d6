"""Mapping persistence.

A tuned mapping is the *product* of an AutoMap run: users save it next to
their application and load it into :class:`repro.core.AutoMapMapper` for
production runs ("AutoMap helps users discover efficient mapping
strategies to tune their custom mappers", paper §5).  The format is
plain JSON, one entry per task kind.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.machine.kinds import MemKind, ProcKind
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.taskgraph.graph import TaskGraph
from repro.util.serialization import dump_json, load_json

__all__ = [
    "save_mapping",
    "load_mapping",
    "mapping_to_doc",
    "mapping_from_doc",
]

_FORMAT = "automap-mapping-v1"


def mapping_to_doc(mapping: Mapping) -> Dict[str, dict]:
    """Encode a mapping as the plain-JSON ``kinds`` document (one entry
    per task kind) shared by mapping files, the profiles database, and
    tuning checkpoints."""
    return {
        name: {
            "distribute": decision.distribute,
            "proc_kind": decision.proc_kind.value,
            "mem_kinds": [m.value for m in decision.mem_kinds],
        }
        for name, decision in mapping.items()
    }


def mapping_from_doc(doc: Dict[str, dict]) -> Mapping:
    """Decode a ``kinds`` document produced by :func:`mapping_to_doc`.

    Raises ``ValueError`` for an entry that is not such an object."""
    decisions: Dict[str, MappingDecision] = {}
    for name, entry in doc.items():
        try:
            decisions[name] = MappingDecision(
                distribute=bool(entry["distribute"]),
                proc_kind=ProcKind(entry["proc_kind"]),
                mem_kinds=tuple(MemKind(m) for m in entry["mem_kinds"]),
            )
        except (TypeError, KeyError) as exc:
            raise ValueError(
                f"malformed mapping entry for {name!r}: {exc!r}"
            ) from None
    return Mapping(decisions)


def save_mapping(
    mapping: Mapping,
    path: Union[str, Path],
    application: Optional[str] = None,
) -> None:
    """Write ``mapping`` to ``path`` as JSON (atomically — see
    :func:`repro.util.serialization.dump_json`).

    ``application`` (e.g. the task graph's name) is stored so loads can
    be checked against the graph they are applied to.
    """
    doc = {
        "format": _FORMAT,
        "application": application,
        "kinds": mapping_to_doc(mapping),
    }
    dump_json(doc, path)


def load_mapping(
    path: Union[str, Path], graph: Optional[TaskGraph] = None
) -> Mapping:
    """Read a mapping back from ``path``.

    When ``graph`` is given, the file is validated against it: every
    task kind must be covered with the right slot count, and a stored
    application name must match the graph's.  Kind-level addressability
    is *not* checked here — validate against a machine with
    :func:`repro.mapping.validate.validate` before executing.
    """
    doc = load_json(path)
    if doc.get("format") != _FORMAT:
        raise ValueError(f"not an AutoMap mapping file: {path}")
    mapping = mapping_from_doc(doc["kinds"])

    if graph is not None:
        stored_app = doc.get("application")
        if stored_app is not None and stored_app != graph.name:
            raise ValueError(
                f"mapping was saved for {stored_app!r}, "
                f"not {graph.name!r}"
            )
        for kind in graph.task_kinds:
            if kind.name not in mapping:
                raise ValueError(
                    f"mapping file covers no decision for task kind "
                    f"{kind.name!r}"
                )
            if mapping.decision(kind.name).num_slots != kind.num_slots:
                raise ValueError(
                    f"mapping for {kind.name!r} has "
                    f"{mapping.decision(kind.name).num_slots} slots; "
                    f"the graph expects {kind.num_slots}"
                )
    return mapping
