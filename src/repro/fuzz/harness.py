"""The fuzz harness: run a case, check the six soundness invariants,
shrink failures, and read/write the seed corpus.

Invariants (violating any one is a bug in the repo, never in the case):

1. **bound** — every component of the static lower bound is ``<=`` the
   noise-free simulated makespan of the executed mapping.
2. **canonical** — a canonicalized mapping simulates to a bit-identical
   makespan (canonicalization only folds provably unobservable choices).
3. **relabel** — applying any verified machine automorphism to a
   mapping leaves the simulated makespan bit-equal.
4. **resume** — a tuning run killed mid-search and resumed from its
   checkpoint reports bit-identically to the uninterrupted run.
5. **incremental** — the simulation mode is result-invariant: a full
   (non-incremental) simulation tune reports bit-identically to the
   incremental run.  This is the contract that lets the service's
   result cache ignore ``incremental`` when fingerprinting a workload
   (:mod:`repro.service.fingerprint`).
6. **equivalence** — when the AM6xx prover
   (:mod:`repro.analysis.equivalence`) declares a perturbed workload
   equivalent to the case's (capacity slack above the footprint bound,
   off-route channel parameters, a machine rename), fresh noise-free
   tunes of both report bit-identically — and the prover must accept
   the perturbations engineered to be provable.  This is the contract
   behind the service cache's near-equivalent hits.

A crash anywhere in the pipeline is reported as the pseudo-invariant
``crash`` — fuzzing exists to find those too.
"""

from __future__ import annotations

import json
import random
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.bounds import StaticBoundAnalyzer
from repro.analysis.canonical import Canonicalizer
from repro.analysis.engine import analyze
from repro.analysis.symmetry import MachineSymmetry
from repro.core import OracleConfig, TuneRequest, TuningEngine, TuningReport
from repro.fuzz.case import (
    FuzzCase,
    GEN_CHOICES,
    MACHINE_CHOICES,
    build_case,
    case_filename,
    sample_case,
)
from repro.mapping.space import SearchSpace
from repro.runtime import SimConfig, Simulator

__all__ = [
    "Violation",
    "CaseResult",
    "FuzzReport",
    "run_case",
    "shrink_case",
    "fuzz",
    "save_case",
    "load_corpus",
]

INVARIANTS = (
    "bound",
    "canonical",
    "relabel",
    "resume",
    "incremental",
    "equivalence",
)


@dataclass(frozen=True)
class Violation:
    invariant: str
    message: str


@dataclass
class CaseResult:
    case: FuzzCase
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated(self) -> Set[str]:
        return {v.invariant for v in self.violations}


@dataclass
class FuzzReport:
    seed: int
    budget: int
    results: List[CaseResult] = field(default_factory=list)
    #: Shrunk reproducer per failing case, parallel to ``failures()``.
    shrunk: List[FuzzCase] = field(default_factory=list)

    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures()


class _KillAfter:
    """Oracle observer simulating a crash after ``limit`` evaluations."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __call__(self, oracle) -> None:
        if oracle.evaluated >= self.limit:
            raise KeyboardInterrupt


def _sample_mappings(
    case: FuzzCase, space: SearchSpace
) -> List:
    """The mappings the static invariants are checked on: the default
    plus ``case.mappings`` seeded random valid ones."""
    rng = random.Random(case.seed)
    out = [space.default_mapping()]
    for _ in range(case.mappings):
        out.append(space.random_mapping(rng, valid=True))
    return out


def _check_static(case: FuzzCase, graph, machine) -> List[Violation]:
    """Invariants 1-3 plus an analyze smoke pass, on a noise-free
    simulator (bounds are sound against the deterministic makespan)."""
    violations: List[Violation] = []
    analyze(graph, machine, bounds=True)  # must not crash
    space = SearchSpace(graph, machine)
    sim = Simulator(graph, machine, SimConfig(noise_sigma=0.0, spill=True))
    analyzer = StaticBoundAnalyzer(graph, machine)
    canon = Canonicalizer(graph, machine)
    relabelings = MachineSymmetry(graph, machine).automorphisms()

    for mapping in _sample_mappings(case, space):
        result = sim.run(mapping)
        makespan = result.makespan

        bd = analyzer.breakdown(result.executed_mapping)
        for component in (
            "critical_path",
            "load",
            "communication",
            "schedule",
        ):
            value = getattr(bd, component)
            if value > makespan:
                violations.append(
                    Violation(
                        "bound",
                        f"{component}={value!r} exceeds makespan="
                        f"{makespan!r} for {mapping.key()}",
                    )
                )

        # A fold or relabel that makes the mapping unsimulable is a
        # violation of that invariant, not a harness crash: both are
        # contracted to stay within the runtime-equivalence class.
        try:
            folded = sim.run(canon.canonical(mapping)).makespan
        except Exception as exc:
            violations.append(
                Violation(
                    "canonical",
                    f"canonical mapping fails to simulate ({exc!r}) "
                    f"for {mapping.key()}",
                )
            )
        else:
            if folded != makespan:
                violations.append(
                    Violation(
                        "canonical",
                        f"canonical mapping simulates to {folded!r} != "
                        f"{makespan!r} for {mapping.key()}",
                    )
                )

        for rel in relabelings:
            try:
                relabeled = sim.run(rel.apply(mapping)).makespan
            except Exception as exc:
                violations.append(
                    Violation(
                        "relabel",
                        f"automorphism [{rel.describe()}] fails to "
                        f"simulate ({exc!r}) for {mapping.key()}",
                    )
                )
                continue
            if relabeled != makespan:
                violations.append(
                    Violation(
                        "relabel",
                        f"automorphism [{rel.describe()}] changes makespan "
                        f"{makespan!r} -> {relabeled!r} for {mapping.key()}",
                    )
                )
    return violations


def _tune(
    case: FuzzCase, workload=None, incremental: bool = True, **kwargs
) -> TuningReport:
    """A fresh tune of the case, with graph and space rebuilt each time
    (mirroring a real restart-after-crash) — or of an explicit
    ``(graph, machine, space)`` workload, since the equivalence
    invariant perturbs the machine and ``build_case`` cannot rebuild
    it.  ``kwargs`` are further :class:`TuneRequest` fields."""
    if workload is None:
        app, graph, machine = build_case(case)
        workload = (graph, machine, app.space(machine))
    graph, machine, space = workload
    request = TuneRequest(
        graph,
        machine,
        algorithm=case.algorithm,
        oracle_config=OracleConfig(max_suggestions=case.max_suggestions),
        sim_config=SimConfig(
            noise_sigma=case.noise_sigma,
            seed=case.seed,
            spill=True,
            incremental=incremental,
        ),
        space=space,
        seed=case.seed,
        **kwargs,
    )
    return TuningEngine().tune(request)


def _report_diffs(baseline, resumed) -> List[str]:
    """Field-by-field bit-identity comparison (the
    ``assert_reports_identical`` contract, as messages)."""
    diffs: List[str] = []
    pairs = [
        ("best_mapping", baseline.best_mapping.key(), resumed.best_mapping.key()),
        ("best_mean", baseline.best_mean, resumed.best_mean),
        ("best_stddev", baseline.best_stddev, resumed.best_stddev),
        ("trace", baseline.search.trace, resumed.search.trace),
        ("suggested", baseline.suggested, resumed.suggested),
        ("evaluated", baseline.evaluated, resumed.evaluated),
        (
            "invalid_suggestions",
            baseline.invalid_suggestions,
            resumed.invalid_suggestions,
        ),
        (
            "failed_evaluations",
            baseline.failed_evaluations,
            resumed.failed_evaluations,
        ),
        ("search_seconds", baseline.search_seconds, resumed.search_seconds),
        (
            "finalists",
            [(m.key(), a, b, c) for m, a, b, c in baseline.finalists],
            [(m.key(), a, b, c) for m, a, b, c in resumed.finalists],
        ),
    ]
    for name, a, b in pairs:
        if a != b:
            diffs.append(f"{name}: baseline {a!r} != resumed {b!r}")
    return diffs


def _check_resume(case: FuzzCase, workdir: Path) -> List[Violation]:
    """Invariant 4: kill/resume reproduces the uninterrupted run."""
    from repro.resilience import load_checkpoint

    baseline = _tune(case)

    path = workdir / "checkpoint.json"
    try:
        _tune(
            case,
            checkpoint_path=path,
            checkpoint_every=2,
            observers=(_KillAfter(case.kill_after),),
        )
        # The search finished before kill_after evaluations; the
        # checkpoint then records the whole run and resume must replay
        # it idempotently — still a valid instance of the invariant.
    except KeyboardInterrupt:
        pass
    if not path.exists():
        return [
            Violation(
                "resume",
                f"no checkpoint flushed after interrupt at "
                f"{case.kill_after} evaluations",
            )
        ]

    resumed = _tune(
        case,
        checkpoint_path=path,
        checkpoint_every=2,
        resume_checkpoint=load_checkpoint(path),
    )
    return [
        Violation("resume", diff) for diff in _report_diffs(baseline, resumed)
    ]


def _check_incremental(case: FuzzCase) -> List[Violation]:
    """Invariant 5: the simulation mode the service cache ignores
    (``incremental``) really is result-invariant."""
    baseline = _tune(case)
    full = _tune(case, incremental=False)
    return [
        Violation("incremental", f"incremental=False: {diff}")
        for diff in _report_diffs(baseline, full)
    ]


def _check_equivalence(case: FuzzCase) -> List[Violation]:
    """Invariant 6: prover-equivalent workloads tune bit-identically.

    Three machine perturbations per case, each applied through the same
    override path the service uses:

    * every memory capacity ``+1 GiB`` — engineered to be provable
      (only attempted when every capacity already covers its footprint
      bound, so the slack lemma applies on both sides);
    * an off-route channel's bandwidth tripled — *not* required to
      prove (a bandwidth change can flip weighted routing, which the
      prover detects by comparing route tables); when it does prove,
      bit-identity must hold;
    * a machine rename — engineered to be provable, with the relabel
      witness.
    """
    from repro.analysis.equivalence import (
        Workload,
        footprint_bounds,
        prove_equivalent,
        touchable_resources,
    )
    from repro.machine.overrides import apply_machine_params
    from repro.machine.topology import channel_key
    from repro.util.units import GIB

    base = case.with_(noise_sigma=0.0)
    app, graph, machine = build_case(base)
    space = app.space(machine)
    config = {
        "algorithm": base.algorithm,
        "seed": base.seed,
        "max_suggestions": base.max_suggestions,
        "noise_sigma": base.noise_sigma,
        "spill": True,
        "static_prune": True,
        "bound_prune": True,
    }
    source = Workload(graph, machine, config, None, space)

    perturbations: List[Tuple[str, dict, bool]] = []
    bounds = footprint_bounds(graph, machine, space)
    if all(m.capacity >= bounds.get(m.uid, 0) for m in machine.memories):
        perturbations.append(
            (
                "capacity+1GiB",
                {
                    "memory_capacity": {
                        m.uid: m.capacity + GIB for m in machine.memories
                    }
                },
                True,
            )
        )
    touch = touchable_resources(graph, machine, space)
    for chan in machine.channels:
        if channel_key(chan.mem_a, chan.mem_b) not in touch.channel_keys:
            perturbations.append(
                (
                    "off-route-channel-bw*3",
                    {
                        "channel_bandwidth": {
                            f"{chan.mem_a}|{chan.mem_b}": chan.bandwidth * 3
                        }
                    },
                    False,
                )
            )
            break
    perturbations.append(
        ("rename", {"name": machine.name + "-relabeled"}, True)
    )

    violations: List[Violation] = []
    baseline = None  # tuned lazily, once per case
    for label, params, must_prove in perturbations:
        p_app, _, p_machine = build_case(base)
        p_machine = apply_machine_params(p_machine, params)
        p_graph = p_app.graph(p_machine)
        p_space = p_app.space(p_machine)
        target = Workload(p_graph, p_machine, config, None, p_space)
        proof = prove_equivalent(source, target)
        if not proof.equivalent:
            if must_prove:
                violations.append(
                    Violation(
                        "equivalence",
                        f"{label}: prover rejected engineered slack: "
                        f"{proof.witness}",
                    )
                )
            continue
        if baseline is None:
            baseline = _tune(base, (graph, machine, space))
        perturbed = _tune(base, (p_graph, p_machine, p_space))
        violations.extend(
            Violation(
                "equivalence", f"{label}: proved equivalent but {diff}"
            )
            for diff in _report_diffs(baseline, perturbed)
        )
    return violations


def run_case(
    case: FuzzCase,
    workdir: Optional[Path] = None,
    invariants: Sequence[str] = INVARIANTS,
) -> CaseResult:
    """Check ``case`` against the selected invariants; never raises."""
    result = CaseResult(case)
    try:
        _, graph, machine = build_case(case)
        if set(invariants) & {"bound", "canonical", "relabel"}:
            result.violations.extend(_check_static(case, graph, machine))
        if "resume" in invariants:
            if workdir is None:
                with tempfile.TemporaryDirectory() as tmp:
                    result.violations.extend(
                        _check_resume(case, Path(tmp))
                    )
            else:
                result.violations.extend(_check_resume(case, workdir))
        if "incremental" in invariants:
            result.violations.extend(_check_incremental(case))
        if "equivalence" in invariants:
            result.violations.extend(_check_equivalence(case))
    except Exception:
        result.violations.append(
            Violation(
                "crash", traceback.format_exc(limit=8).strip()
            )
        )
    return result


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _shrink_candidates(case: FuzzCase) -> Iterable[FuzzCase]:
    """Structurally smaller variants, most aggressive first.  Every
    candidate is valid by construction (values come from the sampler's
    own pools, or drop back to the app default)."""
    # Drop or step down each generator knob.
    pools = GEN_CHOICES.get(case.generator, {})
    for knob in sorted(case.gen_params):
        params = dict(case.gen_params)
        del params[knob]
        yield case.with_(gen_params=params)
        pool = [v for v in pools.get(knob, ()) if v is not None]
        smaller = [v for v in pool if v < case.gen_params[knob]]
        if smaller:
            params = dict(case.gen_params)
            params[knob] = max(smaller)
            yield case.with_(gen_params=params)
    # Smaller machine of the same shape.
    for name, sizes in MACHINE_CHOICES:
        if name == case.machine:
            smaller = [s for s in sizes if s < case.machine_arg]
            if smaller:
                yield case.with_(machine_arg=max(smaller))
    # Cheaper search configuration.
    if case.mappings > 1:
        yield case.with_(mappings=case.mappings // 2)
    if case.max_suggestions > 6:
        yield case.with_(max_suggestions=max(6, case.max_suggestions // 2))
    if case.kill_after > 2:
        yield case.with_(kill_after=2)
    if case.noise_sigma != 0.0:
        yield case.with_(noise_sigma=0.0)
    if case.algorithm != "ccd":
        yield case.with_(algorithm="ccd")


def shrink_case(
    case: FuzzCase,
    failing: Set[str],
    check: Optional[Callable[[FuzzCase], Set[str]]] = None,
    max_steps: int = 64,
) -> FuzzCase:
    """Greedily minimise ``case`` while it still violates at least one
    of the ``failing`` invariants.  ``check`` maps a candidate to its
    violated-invariant set (defaults to :func:`run_case`)."""
    if check is None:
        check = lambda c: run_case(c).violated()  # noqa: E731
    current = case
    for _ in range(max_steps):
        for candidate in _shrink_candidates(current):
            if check(candidate) & failing:
                current = candidate
                break
        else:
            return current
    return current


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def save_case(
    case: FuzzCase, directory: Path, invariant: Optional[str] = None
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case_filename(case, invariant)
    path.write_text(json.dumps(case.to_doc(), indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(directory: Path) -> List[Tuple[Path, FuzzCase]]:
    """Every ``*.json`` fuzz case under ``directory``, sorted by name."""
    out: List[Tuple[Path, FuzzCase]] = []
    for path in sorted(Path(directory).glob("*.json")):
        out.append((path, FuzzCase.from_doc(json.loads(path.read_text()))))
    return out


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
def fuzz(
    seed: int,
    budget: int,
    invariants: Sequence[str] = INVARIANTS,
    shrink: bool = True,
    on_case: Optional[Callable[[int, CaseResult], None]] = None,
) -> FuzzReport:
    """Run ``budget`` seeded random cases.  Case ``i`` is a pure
    function of ``(seed, i)``, so any reported failure replays exactly
    from its index alone."""
    report = FuzzReport(seed=seed, budget=budget)
    for i in range(budget):
        case = sample_case(random.Random(f"{seed}:{i}"))
        result = run_case(case, invariants=invariants)
        report.results.append(result)
        if not result.ok and shrink:
            report.shrunk.append(
                shrink_case(
                    case,
                    result.violated(),
                    check=lambda c: run_case(c, invariants=invariants).violated(),
                )
            )
        if on_case is not None:
            on_case(i, result)
    return report
