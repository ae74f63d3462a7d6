#!/usr/bin/env python3
"""Memory-constrained mapping (paper §5.2, Figure 8).

Runs Pennant with an input slightly larger than the GPU frame buffer can
hold.  The straightforward fallback — every collection in Zero-Copy
memory — is valid but slow; AutoMap's search finds the subset of
collection arguments to demote, keeping the rest in Frame-Buffer, and
lands several times faster.

Usage::

    python examples/memory_constrained.py [--overflow 1.3]
"""

import argparse

from repro.apps import PennantApp
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.machine.kinds import MemKind
from repro.runtime import SimConfig
from repro.runtime.memory import MemoryPlanner, OOMError


def max_fitting_zy(machine, zx=320) -> int:
    """Largest Pennant input whose all-Frame-Buffer mapping fits."""
    lo, hi = 1_000, 500_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        app = PennantApp(zx, mid, iterations=1)
        planner = MemoryPlanner(app.graph(machine), machine)
        try:
            planner.ensure_fits(app.space(machine).default_mapping())
            lo = mid
        except OOMError:
            hi = mid - 1
    return lo


def all_zero_copy(space):
    mapping = space.default_mapping()
    for kind in mapping.kind_names():
        for index in range(mapping.decision(kind).num_slots):
            mapping = mapping.with_mem(kind, index, MemKind.ZERO_COPY)
    return mapping


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--overflow",
        type=float,
        default=1.3,
        help="input oversize over frame-buffer capacity, in percent",
    )
    args = parser.parse_args()

    machine = shepard(1)
    fit_zy = max_fitting_zy(machine)
    zy = int(fit_zy * (1.0 + args.overflow / 100.0))
    print(
        f"largest all-Frame-Buffer input: 320x{fit_zy}; "
        f"running 320x{zy} (+{args.overflow}%)"
    )

    app = PennantApp(320, zy, iterations=1)
    graph = app.graph(machine)
    space = app.space(machine)
    engine = TuningEngine()
    prepared = engine.prepare(
        TuneRequest(
            graph,
            machine,
            algorithm="ccd",
            oracle_config=OracleConfig(max_suggestions=8000),
            sim_config=SimConfig(noise_sigma=0.04, seed=0, spill=False),
            space=space,
        )
    )

    zc = all_zero_copy(space)
    t_zc = engine.measure(prepared, zc)
    print(f"GPU + all-Zero-Copy: {t_zc:.3f} s")

    report = engine.run(prepared, start=zc)
    best = report.best_mapping
    print(f"AutoMap:             {report.best_mean:.3f} s "
          f"({t_zc / report.best_mean:.1f}x faster)")
    print(
        f"  slots demoted out of Frame-Buffer: "
        f"{best.count_mem(MemKind.ZERO_COPY)} to Zero-Copy, "
        f"{best.count_mem(MemKind.SYSTEM)} to System"
    )
    print(
        f"  task kinds moved to CPU: "
        f"{sum(1 for k in best.kind_names() if best.decision(k).proc_kind.value == 'cpu')}"
        f" of {len(best)}"
    )
    print(
        f"  mappings that failed with OOM during the search: "
        f"{report.failed_evaluations}"
    )


if __name__ == "__main__":
    main()
