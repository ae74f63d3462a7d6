"""Coordinate-wise descent (paper §4.1; Algorithm 1 without line 17).

CD considers each task in turn — from longest running to shortest — and
greedily optimises its distribution setting, its processor kind, and the
memory kind of each collection argument (largest collection first),
holding every other decision constant and accepting only strict
improvements.  Its runtime is linear in the number of tasks and
collection arguments.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.search.base import (
    INFEASIBLE,
    Oracle,
    SearchAlgorithm,
    SearchResult,
)
from repro.taskgraph.induced import CollectionGraph
from repro.search.colocation import apply_colocation_constraints
from repro.util.logging import get_logger, kv
from repro.util.rng import RngStream

__all__ = ["CoordinateDescent"]

_LOG = get_logger("search.cd")


class CoordinateDescent(SearchAlgorithm):
    """Plain coordinate-wise descent (one unconstrained rotation)."""

    name = "cd"

    # The walk only compares ``outcome.performance`` against its
    # incumbent and accepts strict improvements, and the incumbent
    # always equals the oracle's best-so-far — so a sound lower bound
    # ``>=`` the incumbent rejects exactly like a real measurement.
    supports_bound_pruning = True

    #: Optional :class:`repro.analysis.bounds.StaticBoundAnalyzer`.
    #: When attached (by the driver), each coordinate's move-set is
    #: visited in ascending lower-bound order instead of enumeration
    #: order — best-bound-first.  Promising moves are tested first, the
    #: incumbent drops earlier, and bound pruning rejects more of the
    #: tail.  The walk still accepts strict improvements only, so any
    #: visit order yields a valid descent; the order is deterministic
    #: (stable sort on the float bound, enumeration index as the tie
    #: break).
    bound_analyzer = None

    # ------------------------------------------------------------------
    def search(
        self,
        space: SearchSpace,
        oracle: Oracle,
        rng: RngStream,
        start: Optional[Mapping] = None,
    ) -> SearchResult:
        current = start if start is not None else space.default_mapping()
        outcome = oracle.evaluate(current)
        performance = outcome.performance
        current, performance = self._rotation(
            space, oracle, current, performance, colgraph=None
        )
        return self._result(oracle, current, performance)

    # ------------------------------------------------------------------
    # Shared machinery (CCD reuses everything below)
    # ------------------------------------------------------------------
    def _rotation(
        self,
        space: SearchSpace,
        oracle: Oracle,
        current: Mapping,
        performance: float,
        colgraph: Optional[CollectionGraph],
    ) -> Tuple[Mapping, float]:
        """One full CD pass over all task kinds (Alg. 1 lines 5-7).

        Each kind's optimisation is one telemetry *round*: the cheapest
        granularity that still shows where a rotation spends its oracle
        calls (§5.3's search statistics, per coordinate).
        """
        for kind_name in self.ordered_kinds(space, oracle, current):
            if oracle.exhausted:
                break
            self._set_cursor(kind=kind_name)
            self._round_begin(oracle)
            current, performance = self._optimize_task(
                space, oracle, current, performance, kind_name, colgraph
            )
            self._round_end(oracle)
        return current, performance

    def _optimize_task(
        self,
        space: SearchSpace,
        oracle: Oracle,
        current: Mapping,
        performance: float,
        kind_name: str,
        colgraph: Optional[CollectionGraph],
    ) -> Tuple[Mapping, float]:
        """OptimizeTask (Alg. 1 lines 10-19); ``colgraph`` enables the
        co-location constraints of line 17."""
        # Lines 11-12: the distribution setting.
        current, performance = self._descend(
            oracle,
            current,
            performance,
            self._distribute_moves(space, kind_name),
        )
        # Lines 13-18: processor kind x (collection x memory kind).
        current, performance = self._descend(
            oracle,
            current,
            performance,
            self._placement_moves(space, kind_name, colgraph),
        )
        return current, performance

    def _distribute_moves(
        self, space: SearchSpace, kind_name: str
    ) -> List[Callable[[Mapping], Mapping]]:
        """Move builders for Alg. 1 lines 11-12 (one per distribution
        option); each builds a candidate from a given incumbent.

        Enumeration goes through ``searched_distribute_options`` so a
        statically pruned space view can skip provably-unobservable
        options; a move whose result canonicalizes onto the incumbent
        evaluates to the incumbent's cached result and can never be a
        strict improvement, so skipping it leaves the walk unchanged.
        """
        return [
            lambda m, d=distribute: m.with_distribute(kind_name, d)
            for distribute in space.searched_distribute_options(kind_name)
        ]

    def _placement_moves(
        self,
        space: SearchSpace,
        kind_name: str,
        colgraph: Optional[CollectionGraph],
    ) -> List[Callable[[Mapping], Mapping]]:
        """Move builders for Alg. 1 lines 13-18, in the serial visit
        order: processor kind x (slot, largest first) x memory kind."""

        def build(
            m: Mapping,
            proc_kind=None,
            slot_index=None,
            mem_kind=None,
        ) -> Mapping:
            if colgraph is not None:
                return apply_colocation_constraints(
                    space,
                    colgraph,
                    m,
                    kind_name,
                    slot_index,
                    proc_kind,
                    mem_kind,
                )
            return space.placement_move(
                m, kind_name, proc_kind, slot_index, mem_kind
            )

        moves: List[Callable[[Mapping], Mapping]] = []
        slot_order = self.ordered_slots(space, kind_name)
        # A pruned space view drops options that are provably OOM
        # (never a strict improvement over anything), that canonicalize
        # onto another searched option, or — for processor kinds — that
        # a machine-symmetry proof folds onto an enumerated twin.
        for proc_kind in space.searched_proc_options(kind_name):
            for slot_index in slot_order:
                for mem_kind in space.searched_mem_options(
                    kind_name, proc_kind, slot_index
                ):
                    moves.append(
                        lambda m, p=proc_kind, s=slot_index, k=mem_kind: (
                            build(m, proc_kind=p, slot_index=s, mem_kind=k)
                        )
                    )
        return moves

    def _descend(
        self,
        oracle: Oracle,
        current: Mapping,
        performance: float,
        moves: List[Callable[[Mapping], Mapping]],
    ) -> Tuple[Mapping, float]:
        """Serially test each move against the incumbent, keeping strict
        improvements (TestMapping, Alg. 1 lines 20-24).

        Each candidate is built once per incumbent: the candidates
        ``_order_moves`` built to rank the moves are tested until the
        first accept, and after an accept each remaining move is built
        from the new incumbent when tested.
        """
        if oracle.exhausted:
            return current, performance
        moves, candidates = self._order_moves(moves, current)
        for index, build in enumerate(moves):
            if oracle.exhausted:
                break
            if candidates is None:
                candidate = build(current)
            else:
                candidate = candidates[index]
            previous = current
            current, performance = self._test(
                oracle, candidate, current, performance
            )
            if current is not previous:
                candidates = None
        return current, performance

    def _order_moves(
        self,
        moves: List[Callable[[Mapping], Mapping]],
        current: Mapping,
    ) -> Tuple[List[Callable[[Mapping], Mapping]], Optional[List[Mapping]]]:
        """Best-bound-first: stable-sort the move-set by the static
        lower bound of each candidate built from the entry incumbent.

        Returns the moves in visit order and the candidates built to
        rank them, in the same order, so the descent tests them without
        building them again; the candidates are ``None`` when nothing
        was ranked (no analyzer, or at most one move).

        Computed once per descent (not re-sorted after accepts): the
        bounds of candidates built from a *better* incumbent would
        differ, but any fixed order is a correct strict-improvement
        walk, and one sort keeps the analyzer cost linear in the
        move-set.  Ranks by the analyzer's *quick* bound (critical path
        and load, no engine run): ordering only needs relative
        ranking, so the cheap bound buys the same reordering benefit at
        a fraction of the analyzer time."""
        if self.bound_analyzer is None or len(moves) <= 1:
            return moves, None
        quick_bound = self.bound_analyzer.quick_bound
        keyed = []
        for index, build in enumerate(moves):
            candidate = build(current)
            keyed.append((quick_bound(candidate), index, build, candidate))
        # Indices are unique, so the sort never compares past them.
        keyed.sort()
        return [entry[2] for entry in keyed], [entry[3] for entry in keyed]

    @staticmethod
    def _test(
        oracle: Oracle,
        candidate: Mapping,
        current: Mapping,
        performance: float,
    ) -> Tuple[Mapping, float]:
        """TestMapping (Alg. 1 lines 20-24): evaluate and keep the
        candidate only on strict improvement."""
        outcome = oracle.evaluate(candidate)
        if outcome.performance < performance:
            return candidate, outcome.performance
        return current, performance

    def _result(
        self, oracle: Oracle, mapping: Mapping, performance: float
    ) -> SearchResult:
        result = SearchResult(
            algorithm=self.name,
            best_mapping=mapping if performance < INFEASIBLE else None,
            best_performance=performance,
            trace=list(getattr(oracle, "trace", [])),
            suggested=getattr(oracle, "suggested", 0),
            evaluated=getattr(oracle, "evaluated", 0),
        )
        _LOG.info(
            kv(
                "search-done",
                algorithm=self.name,
                best=performance,
                suggested=result.suggested,
                evaluated=result.evaluated,
            )
        )
        return result
