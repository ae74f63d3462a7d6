"""OpenTuner-style ensemble tuner (paper §4.3).

The real OpenTuner is not installable offline; this module re-implements
the structural properties the paper's comparison relies on:

* an **ensemble of techniques** (random, greedy mutation, genetic
  crossover, pattern search) running under an AUC multi-armed bandit
  that shifts budget toward techniques that find better mappings;
* **no support for constrained spaces**: techniques operate on the plain
  cross-product encoding and freely propose invalid mappings; AutoMap
  "returns a high value whenever OpenTuner suggests an invalid mapping";
* a **suggested ≫ evaluated** profile: duplicated and invalid proposals
  are not executed (the oracle deduplicates), so the tuner suggests
  orders of magnitude more mappings than it measures — the §5.3
  statistic (OpenTuner: ~157 202 suggested, ~273 evaluated on Pennant).
"""

from __future__ import annotations

from typing import List, Optional

from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.search.bandit import AUCBandit
from repro.search.base import (
    INFEASIBLE,
    Oracle,
    SearchAlgorithm,
    SearchResult,
)
from repro.search.techniques import (
    Technique,
    TunerState,
    default_techniques,
)
from repro.util.logging import get_logger, kv
from repro.util.rng import RngStream

__all__ = ["EnsembleTuner"]

_LOG = get_logger("search.ensemble")


class EnsembleTuner(SearchAlgorithm):
    """Bandit-driven ensemble over unconstrained suggestion techniques."""

    name = "opentuner"

    def __init__(
        self,
        techniques: Optional[List[Technique]] = None,
        max_suggestions: Optional[int] = None,
        bandit_window: int = 100,
        bandit_exploration: float = 0.05,
    ) -> None:
        self._technique_factory = techniques
        self.max_suggestions = max_suggestions
        self.bandit_window = bandit_window
        self.bandit_exploration = bandit_exploration

    # ------------------------------------------------------------------
    def search(
        self,
        space: SearchSpace,
        oracle: Oracle,
        rng: RngStream,
        start: Optional[Mapping] = None,
    ) -> SearchResult:
        techniques = (
            list(self._technique_factory)
            if self._technique_factory is not None
            else default_techniques()
        )
        by_name = {t.name: t for t in techniques}
        bandit = AUCBandit(
            [t.name for t in techniques],
            window_size=self.bandit_window,
            exploration=self.bandit_exploration,
        )
        state = TunerState(dims=space.vector_dims())

        # Seed with the starting point (a valid mapping).
        seed_mapping = start if start is not None else space.default_mapping()
        seed_outcome = oracle.evaluate(seed_mapping)
        state.record(space.encode(seed_mapping), seed_outcome.performance)
        best_mapping = seed_mapping
        best_performance = seed_outcome.performance

        suggestions = 0
        while not oracle.exhausted:
            if (
                self.max_suggestions is not None
                and suggestions >= self.max_suggestions
            ):
                break
            self._set_cursor(suggestions=suggestions)
            self._round_begin(oracle)
            arm = bandit.select()
            technique = by_name[arm]
            vector = technique.suggest(
                state, rng.fork("suggest", str(suggestions))
            )
            suggestions += 1
            mapping = space.decode(vector)
            outcome = oracle.evaluate(mapping)
            improved = state.record(vector, outcome.performance)
            bandit.report(arm, improved)
            if improved and outcome.performance < best_performance:
                best_mapping = mapping
                best_performance = outcome.performance
            self._round_end(oracle)

        _LOG.info(
            kv(
                "ensemble-done",
                best=best_performance,
                suggestions=suggestions,
                usage=str(bandit.usage()),
            )
        )
        return SearchResult(
            algorithm=self.name,
            best_mapping=(
                best_mapping if best_performance < INFEASIBLE else None
            ),
            best_performance=best_performance,
            trace=list(getattr(oracle, "trace", [])),
            suggested=getattr(oracle, "suggested", suggestions),
            evaluated=getattr(oracle, "evaluated", 0),
        )
