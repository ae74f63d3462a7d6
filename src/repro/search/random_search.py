"""Uniform random search — the simplest baseline.

Draws valid mappings uniformly at random until the budget runs out.
Used in tests (any real algorithm should beat it on structured problems)
and as one of the techniques inside the ensemble tuner.
"""

from __future__ import annotations

from typing import Optional

from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.search.base import (
    INFEASIBLE,
    Oracle,
    SearchAlgorithm,
    SearchResult,
)
from repro.util.rng import RngStream

__all__ = ["RandomSearch"]


class RandomSearch(SearchAlgorithm):
    """Evaluate uniformly random valid mappings until exhausted."""

    name = "random"

    # Outcomes are only compared against the best-so-far (strict ``<``,
    # in evaluation order), so a sound lower bound ``>=`` the incumbent
    # rejects exactly like the real measurement would.
    supports_bound_pruning = True

    def __init__(self, max_draws: Optional[int] = None) -> None:
        self.max_draws = max_draws

    def search(
        self,
        space: SearchSpace,
        oracle: Oracle,
        rng: RngStream,
        start: Optional[Mapping] = None,
    ) -> SearchResult:
        best = start if start is not None else space.default_mapping()
        best_perf = oracle.evaluate(best).performance
        draws = 0
        while not oracle.exhausted:
            if self.max_draws is not None and draws >= self.max_draws:
                break
            self._set_cursor(draws=draws)
            self._round_begin(oracle)
            candidate = space.random_mapping(rng, valid=True)
            outcome = oracle.evaluate(candidate)
            draws += 1
            self._round_end(oracle)
            if outcome.performance < best_perf:
                best, best_perf = candidate, outcome.performance
        return SearchResult(
            algorithm=self.name,
            best_mapping=best if best_perf < INFEASIBLE else None,
            best_performance=best_perf,
            trace=list(getattr(oracle, "trace", [])),
            suggested=getattr(oracle, "suggested", 0),
            evaluated=getattr(oracle, "evaluated", 0),
        )
