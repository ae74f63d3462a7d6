"""Job specifications: the workload a client submits to the service.

A :class:`JobSpec` is the plain-JSON description of one tuning request:
which application (paper app or generator family, with its knobs), which
zoo machine at which node count, and the search configuration.  It is
deliberately the same vocabulary as ``repro tune`` — anything tunable
from the CLI is submittable over HTTP.

Two groups of knobs are distinguished on purpose:

* **semantic** knobs change the tuning *result* (algorithm, seed,
  budget, noise, spill mode, pruning passes, start mapping) and are part
  of the cache fingerprint (:mod:`repro.service.fingerprint`);
* **execution** knobs change only *how* the run is carried out
  (``incremental``, ``checkpoint_every``) — the resume and
  incremental-simulation contracts (fuzzed per case by the ``resume``
  and ``incremental`` invariants) guarantee bit-identical results across
  them, so they are excluded from the fingerprint and a cached result
  legitimately serves any of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from repro.apps import APP_REGISTRY, make_app
from repro.core.engine import ALGORITHMS
from repro.machine.builders import MACHINE_ZOO

__all__ = [
    "JobSpec",
    "MAX_NODES",
    "MAX_SUGGESTIONS",
    "SEMANTIC_FIELDS",
    "EXECUTION_FIELDS",
    "spec_json_bytes",
]

_FORMAT = "automap-job-v1"

#: Largest node count a job may ask for: the largest zoo machine
#: (helix, 24 nodes).  Submission routes every ordered memory pair of
#: the machine, so its cost grows steeply with the node count.
MAX_NODES = 24

#: Largest suggestion budget, and checkpoint interval, a job may ask
#: for.  The paper's largest §5.3 run takes 157,202 OpenTuner
#: suggestions; an unbounded budget holds a service worker
#: indefinitely.
MAX_SUGGESTIONS = 200_000

#: Fields that enter the workload fingerprint (via the materialised
#: graph/machine for the app/machine ones, directly for the rest).
SEMANTIC_FIELDS: Tuple[str, ...] = (
    "app",
    "input",
    "gen_params",
    "machine",
    "nodes",
    "machine_params",
    "algorithm",
    "seed",
    "max_suggestions",
    "noise_sigma",
    "spill",
    "static_prune",
    "bound_prune",
    "start_mapping",
)

#: Result-preserving execution knobs (never fingerprinted).
EXECUTION_FIELDS: Tuple[str, ...] = (
    "incremental",
    "checkpoint_every",
)


@dataclass(frozen=True)
class JobSpec:
    """One submittable tuning workload."""

    app: str
    #: Paper-style input label (``None`` keeps the app defaults).
    input: Optional[str] = None
    #: Generator-family constructor knobs (``--gen-param`` equivalents).
    gen_params: Dict[str, object] = field(default_factory=dict)
    machine: str = "shepard"
    nodes: int = 1
    #: Declarative overrides applied to the zoo machine (see
    #: :func:`repro.machine.overrides.apply_machine_params`) — semantic:
    #: they change the materialised machine and thus the fingerprint,
    #: though the AM6xx equivalence prover may still serve a cached
    #: result when the overrides are provably unobservable.
    machine_params: Dict[str, object] = field(default_factory=dict)
    algorithm: str = "ccd"
    seed: int = 0
    max_suggestions: int = 20_000
    noise_sigma: float = 0.04
    spill: bool = True
    static_prune: bool = True
    bound_prune: bool = True
    #: Optional starting mapping (a ``kinds`` document as produced by
    #: :func:`repro.mapping.io.mapping_to_doc`); canonicalized before
    #: both fingerprinting and tuning, so canonically-equivalent starts
    #: are one workload.
    start_mapping: Optional[dict] = None
    # ------------------------------------------------------------ (exec)
    incremental: bool = True
    checkpoint_every: int = 10

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.app not in APP_REGISTRY:
            raise ValueError(
                f"unknown application {self.app!r}; "
                f"choose from {sorted(APP_REGISTRY)}"
            )
        if self.machine not in MACHINE_ZOO:
            raise ValueError(
                f"unknown machine {self.machine!r}; "
                f"choose from {sorted(MACHINE_ZOO)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown search algorithm {self.algorithm!r}; "
                f"choose from {list(ALGORITHMS)}"
            )
        if not 1 <= self.nodes <= MAX_NODES:
            raise ValueError(f"nodes must be between 1 and {MAX_NODES}")
        if not isinstance(self.machine_params, dict):
            raise ValueError("machine_params must be an object")
        if not 1 <= self.max_suggestions <= MAX_SUGGESTIONS:
            raise ValueError(
                f"max_suggestions must be between 1 and {MAX_SUGGESTIONS}"
            )
        if not math.isfinite(self.noise_sigma):
            raise ValueError("noise_sigma must be finite")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0 <= self.checkpoint_every <= MAX_SUGGESTIONS:
            raise ValueError(
                f"checkpoint_every must be between 0 and {MAX_SUGGESTIONS}"
            )

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """The normalized JSON form (every field explicit)."""
        return {
            "format": _FORMAT,
            "app": self.app,
            "input": self.input,
            "gen_params": dict(self.gen_params),
            "machine": self.machine,
            "nodes": self.nodes,
            "machine_params": dict(self.machine_params),
            "algorithm": self.algorithm,
            "seed": self.seed,
            "max_suggestions": self.max_suggestions,
            "noise_sigma": self.noise_sigma,
            "spill": self.spill,
            "static_prune": self.static_prune,
            "bound_prune": self.bound_prune,
            "start_mapping": self.start_mapping,
            "incremental": self.incremental,
            "checkpoint_every": self.checkpoint_every,
        }

    @staticmethod
    def from_doc(doc: dict) -> "JobSpec":
        """Parse a client-submitted document.  Unknown keys are an
        error (they would otherwise silently not do what the client
        asked); the ``format`` marker is optional on input."""
        if not isinstance(doc, dict):
            raise ValueError("job spec must be a JSON object")
        known = set(SEMANTIC_FIELDS) | set(EXECUTION_FIELDS) | {"format"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown job-spec field(s): {unknown}")
        fmt = doc.get("format", _FORMAT)
        if fmt != _FORMAT:
            raise ValueError(f"unsupported job-spec format {fmt!r}")
        if "app" not in doc:
            raise ValueError("job spec requires an 'app' field")
        gen_params = doc.get("gen_params") or {}
        if not isinstance(gen_params, dict):
            raise ValueError("gen_params must be an object")
        start = doc.get("start_mapping")
        if start is not None and not isinstance(start, dict):
            raise ValueError("start_mapping must be a 'kinds' object")
        machine_params = doc.get("machine_params") or {}
        if not isinstance(machine_params, dict):
            raise ValueError("machine_params must be an object")
        # Numbers and flags keep their JSON types: ``"false"`` is not
        # false and ``2.5`` nodes is not 2.
        ints = {name: _typed(doc, name, (int,), "an integer") for name in _INT_FIELDS}
        flags = {
            name: _typed(doc, name, (bool,), "true or false") for name in _FLAG_FIELDS
        }
        noise_sigma = _typed(doc, "noise_sigma", (int, float), "a number")
        try:
            noise_sigma = float(noise_sigma)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("noise_sigma must be finite") from None
        return JobSpec(
            app=str(doc["app"]),
            input=None if doc.get("input") is None else str(doc["input"]),
            gen_params=dict(gen_params),
            machine=str(doc.get("machine", "shepard")),
            machine_params=dict(machine_params),
            algorithm=str(doc.get("algorithm", "ccd")),
            noise_sigma=noise_sigma,
            start_mapping=start,
            **ints,
            **flags,
        )

    def with_(self, **changes) -> "JobSpec":
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def build(self):
        """Materialise (app, graph, machine, space).

        Raises ``ValueError`` for labels/knobs the registries reject,
        for a graph without launches (no mapping can cover it), and for
        a start mapping that is malformed or invalid on the built graph
        and machine (a :class:`~repro.mapping.validate.MappingError`) —
        the HTTP layer turns that into a 400 at submit time, before the
        job is ever queued.
        """
        from repro.cli import parse_app_input

        factory = MACHINE_ZOO[self.machine]
        machine = factory(self.nodes)
        if self.machine_params:
            from repro.machine.overrides import apply_machine_params

            machine = apply_machine_params(machine, self.machine_params)
        try:
            kwargs = parse_app_input(self.app, self.input)
        except SystemExit as exc:  # parse_app_input raises SystemExit
            raise ValueError(str(exc)) from None
        kwargs.update(self.gen_params)
        try:
            app = make_app(self.app, **kwargs)
        except TypeError as exc:
            raise ValueError(str(exc)) from None
        graph = app.graph(machine)
        if not graph.launches:
            raise ValueError(
                f"the {self.app} graph launches no tasks: nothing to map"
            )
        if self.start_mapping is not None:
            from repro.mapping.io import mapping_from_doc
            from repro.mapping.validate import validate

            validate(graph, machine, mapping_from_doc(self.start_mapping))
        return app, graph, machine, app.space(machine)

    def label(self) -> str:
        params = ",".join(
            f"{k}={v}" for k, v in sorted(self.gen_params.items())
        )
        detail = self.input or params or "defaults"
        return (
            f"{self.app}({detail}) on {self.machine}({self.nodes}) "
            f"{self.algorithm}/seed={self.seed}"
        )


#: Spec fields a document must give as JSON integers / JSON booleans.
_INT_FIELDS = ("nodes", "seed", "max_suggestions", "checkpoint_every")
_FLAG_FIELDS = ("spill", "static_prune", "bound_prune", "incremental")

_DEFAULTS = {f.name: f.default for f in fields(JobSpec)}


def _typed(doc: dict, name: str, types: tuple, what: str):
    """Field ``name`` of ``doc`` (its default when absent), which must
    be exactly one of ``types`` — ``bool`` is not an ``int`` here."""
    value = doc.get(name, _DEFAULTS[name])
    if type(value) not in types:
        raise ValueError(f"{name} must be {what}, not {type(value).__name__}")
    return value


def spec_json_bytes(spec: JobSpec) -> bytes:
    """The canonical on-disk encoding of a spec (``spec.json`` in cache
    entries — what the near-equivalence prover rebuilds workloads from)."""
    return (
        json.dumps(spec.to_doc(), sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")
