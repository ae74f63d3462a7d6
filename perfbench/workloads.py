"""Seeded workload generation for the benchmark.

Everything a run feeds the program derives from the workload seed: the
tune seeds of the tune workloads (drawn from a committed pool), and the
two client scripts of the service workload (which specs miss, which
base each resubmission references, the resubmission's key order,
execution knobs and perturbation, and the order of the three cache
modes).  The program only ever receives the generated tune requests and
job-spec documents.

This module imports nothing from ``repro``: it is plain data, so the
script properties can be tested without building a graph.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The fixed core of every tune workload's seeds.  A single tune seed
#: moves an OpenTuner tune's wall clock by up to 2x through its search
#: trajectory, so each pass runs the core seeds beside the seed drawn for
#: the workload seed, and a pass's wall clock varies with the workload
#: seed far less than one tune's would.
CORE_SEEDS: Tuple[int, ...] = (1001, 1002, 1003, 1004)

#: The tune seeds a workload seed draws from.  The reference digests of
#: these and of the core seeds are committed in ``digests.json``, so a run
#: spends its time on timed passes rather than on reference tunes.
SEED_POOL: Tuple[int, ...] = tuple(range(2001, 2017))


def derive_seed(seed: int, *labels: str) -> int:
    """A 31-bit seed that is a pure function of ``seed`` and ``labels``
    (sha256, so it never depends on ``PYTHONHASHSEED``)."""
    text = "/".join((str(seed),) + labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Tune workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TuneConfig:
    """One tune of a tune workload (app, machine, search settings)."""

    name: str
    algorithm: str
    app: str
    inputs: Tuple[Tuple[str, int], ...]
    nodes: int
    spill: bool

    def with_inputs(self, **changes: int) -> "TuneConfig":
        merged = dict(self.inputs)
        merged.update(changes)
        return TuneConfig(
            self.name,
            self.algorithm,
            self.app,
            tuple(sorted(merged.items())),
            self.nodes,
            self.spill,
        )


#: Suggestions every tune of a tune workload may make.
MAX_SUGGESTIONS = 300

_CIRCUIT = (("iterations", 4), ("nodes", 200), ("wires", 800))
_STENCIL = (("iterations", 6), ("nx", 200), ("ny", 200))

#: Figure 8's +7.1% overflow point: the pennant ``zy`` is
#: ``int(max_fitting_zy(shepard(1)) * FIG8_OVERFLOW)``, computed at set-up.
FIG8_OVERFLOW = 1.071

TUNE_WORKLOADS: Dict[str, Tuple[TuneConfig, ...]] = {
    "tune-ccd": (
        TuneConfig("ccd-circuit", "ccd", "circuit", _CIRCUIT, 16, True),
        TuneConfig("ccd-stencil", "ccd", "stencil", _STENCIL, 16, True),
        # zy is filled in at set-up from the fitting search.
        TuneConfig(
            "ccd-pennant-fig8",
            "ccd",
            "pennant",
            (("iterations", 1), ("zx", 320)),
            1,
            False,
        ),
    ),
    "tune-opentuner": (
        TuneConfig("ot-circuit", "opentuner", "circuit", _CIRCUIT, 16, True),
        TuneConfig("ot-stencil", "opentuner", "stencil", _STENCIL, 16, True),
    ),
}

#: Core seeds per configuration in one pass.  OpenTuner's wall clock
#: depends more on the seed than CCD's, so it averages over more.
CORE_PER_CONFIG = {"tune-ccd": 2, "tune-opentuner": 4}


def tune_seeds(workload: str, seed: int, config: str) -> List[int]:
    """The tune seeds one pass of ``workload`` runs for ``config``: the
    pool seed drawn by the workload seed, then the core seeds."""
    core = CORE_SEEDS[: CORE_PER_CONFIG[workload]]
    drawn = SEED_POOL[derive_seed(seed, workload, config) % len(SEED_POOL)]
    return [drawn] + list(core)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
MISS, EXACT, EQUIV = "none", "exact", "equiv"
MODES = (MISS, EXACT, EQUIV)

#: Requests per cache mode per client.  Two clients give 100 samples per
#: mode, so each p90 has 10 samples beyond it.
PER_MODE = 50
CLIENTS = 2

#: The cheap majority of misses: generator families and small paper apps
#: on one shepard node.  Each entry draws its knobs from small ranges.
_CHEAP = (
    ("forkjoin", {"width": (2, 4), "elems": (1 << 14, 1 << 16)}),
    ("halo", {"elems": (1 << 14, 1 << 16), "halo": (16, 128)}),
    ("pipeline", {"layers": (2, 4), "hidden": (1 << 11, 1 << 13)}),
    ("reduction", {"levels": (2, 3), "fanout": (2, 4), "elems": (1 << 12, 1 << 14)}),
    ("circuit", {"nodes": (40, 80), "wires": (160, 320)}),
    ("stencil", {"nx": (64, 128), "ny": (64, 128)}),
)
#: The heavy tail: larger paper apps whose tunes cost several cheap ones.
_HEAVY = (
    ("pennant", {"zx": (24, 40), "zy": (18, 30)}),
    ("htr", {"x": (4, 6), "y": (4, 6), "z": (9, 9)}),
    ("maestro", {"lf_count": (2, 3), "lf_res": (16, 16)}),
)
#: Heavy-tail misses per client (the rest of PER_MODE are cheap).
HEAVY_PER_CLIENT = 5

#: Execution knobs an exact resubmission may change (never ``workers``:
#: the benchmark keeps to one process).
_CHECKPOINT_EVERY = (0, 1, 3, 25)

GIB = 1 << 30


@dataclass
class Request:
    """One scripted request: its cache mode follows from the script."""

    index: int
    mode: str
    doc: dict
    #: Index of the miss this resubmission references (None for misses).
    base: Optional[int] = None
    #: Machine name the served report must carry (equivalence hits).
    machine_name: Optional[str] = None


@dataclass
class ClientScript:
    client: int
    requests: List[Request] = field(default_factory=list)


def _draw(rng: random.Random, ranges: dict) -> dict:
    return {key: rng.randint(lo, hi) for key, (lo, hi) in ranges.items()}


def _miss_doc(rng: random.Random, family: tuple, tune_seed: int) -> dict:
    app, ranges = family
    return {
        "app": app,
        "gen_params": _draw(rng, ranges),
        "machine": "shepard",
        "nodes": 1,
        "algorithm": "ccd",
        "seed": tune_seed,
        "max_suggestions": rng.randint(12, 24),
    }


def _mode_order(rng: random.Random) -> List[str]:
    """A shuffled mode sequence in which every resubmission comes after
    at least one miss (a client only resubmits what it saw complete)."""
    order = [MISS] * PER_MODE + [EXACT] * PER_MODE + [EQUIV] * PER_MODE
    rng.shuffle(order)
    first_miss = order.index(MISS)
    order.insert(0, order.pop(first_miss))
    return order


def client_script(
    seed: int, client: int, memories: Dict[str, int]
) -> ClientScript:
    """The seeded script of one client.

    ``memories`` maps each memory uid of a one-node shepard to its
    capacity; capacity-inflating resubmissions add whole GiB to every
    memory, which the equivalence prover accepts because the small
    workloads' footprint bounds sit far below capacity.
    """
    rng = random.Random(derive_seed(seed, "service", str(client)))
    families = [_HEAVY[i % len(_HEAVY)] for i in range(HEAVY_PER_CLIENT)]
    families += [
        _CHEAP[i % len(_CHEAP)] for i in range(PER_MODE - HEAVY_PER_CLIENT)
    ]
    rng.shuffle(families)
    script = ClientScript(client)
    misses: List[int] = []
    perturbations = 0
    for index, mode in enumerate(_mode_order(rng)):
        if mode == MISS:
            # Tune seeds are unique per client and disjoint across
            # clients (parity), so no two misses share a workload.
            tune_seed = 2 * (len(misses) + 1) + client
            doc = _miss_doc(rng, families[len(misses)], tune_seed)
            misses.append(index)
            script.requests.append(Request(index, MISS, doc))
            continue
        base = rng.choice(misses)
        base_doc = script.requests[base].doc
        if mode == EXACT:
            doc = dict(base_doc)
            doc["checkpoint_every"] = rng.choice(_CHECKPOINT_EVERY)
            doc["incremental"] = rng.random() < 0.5
            keys = list(doc)
            rng.shuffle(keys)
            script.requests.append(
                Request(index, EXACT, {k: doc[k] for k in keys}, base)
            )
            continue
        # Each perturbation is unique, so an equivalence resubmission can
        # never be an exact hit on an earlier one.
        perturbations += 1
        doc = dict(base_doc)
        if rng.random() < 0.5:
            name = f"shepard-c{client}-r{perturbations}"
            doc["machine_params"] = {"name": name}
        else:
            name = None
            extra = perturbations * GIB
            doc["machine_params"] = {
                "memory_capacity": {
                    uid: cap + extra for uid, cap in sorted(memories.items())
                }
            }
        script.requests.append(
            Request(index, EQUIV, doc, base, machine_name=name)
        )
    return script


def service_scripts(seed: int, memories: Dict[str, int]) -> List[ClientScript]:
    return [client_script(seed, c, memories) for c in range(CLIENTS)]
