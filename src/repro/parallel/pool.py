"""A supervised process pool that simulates candidate mappings.

:class:`SupervisedPool` runs the deterministic simulations of a batch of
mappings in worker processes (each rebuilds the simulator once from a
:class:`~repro.parallel.spec.SimulatorSpec`) and hands back one
:class:`~repro.parallel.spec.WorkerResult` slot per mapping.  The
evaluation oracle (:class:`repro.core.oracle.SimulationOracle`) only
ever uses those results to warm its simulator cache, so every worker
failure is recoverable without touching results: the batch is supervised
with a per-candidate timeout, bounded retries with exponential backoff,
a pool rebuild whenever the pool breaks (worker crash) or a candidate
hangs, and — when workers keep dying — graceful degradation to fully
serial evaluation.  A candidate whose worker never delivered is simply
computed by the oracle itself.  Every recovery event is counted in
:class:`repro.resilience.supervisor.SupervisorStats` and surfaced in the
tuning report.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence

from repro.mapping.mapping import Mapping
from repro.parallel.spec import SimulatorSpec, WorkerResult, init_worker, run_mapping
from repro.resilience.supervisor import SupervisorStats
from repro.util.logging import get_logger, kv

__all__ = ["SupervisedPool"]

_LOG = get_logger("parallel.pool")

#: Batch capacity per worker: deep enough to amortise pool dispatch,
#: shallow enough that speculative batches rarely outrun the budget.
BATCH_DEPTH = 8

#: Supervision limits: how many re-submission rounds a failed batch
#: gets, and how many pool rebuilds the run tolerates before degrading
#: to serial evaluation for good.
MAX_RETRIES = 2
MAX_POOL_REBUILDS = 3
RETRY_BACKOFF = 0.05


class SupervisedPool:
    """``workers`` processes simulating mappings under supervision.

    The processes start on the first :meth:`run`; once supervision
    gives up on them, :attr:`serial_only` is set and :meth:`run` is not
    to be called again.
    """

    def __init__(
        self,
        spec: SimulatorSpec,
        workers: int,
        stats: SupervisorStats,
        timeout: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.workers = workers
        self.stats = stats
        #: Per-candidate wall-clock limit for a worker result (None =
        #: wait forever).  A breach marks the pool as wedged: it is
        #: torn down (hung processes terminated) and rebuilt.
        self.timeout = timeout
        self.serial_only = False
        self._executor: Optional[ProcessPoolExecutor] = None

    def run(self, todo: Sequence[Mapping]) -> List[Optional[WorkerResult]]:
        """Dispatch ``todo`` to the workers under supervision.

        Guarantees: always returns a result slot per candidate (None =
        the worker never delivered — the oracle recomputes it); a hung
        or crashed pool is torn down and rebuilt; a failing batch is
        retried with backoff up to ``MAX_RETRIES`` rounds, each retry
        carrying a fresh attempt number (so the deterministic fault
        harness re-rolls its dice); persistent failure degrades the
        whole run to serial evaluation.
        """
        results: List[Optional[WorkerResult]] = [None] * len(todo)
        pending = list(range(len(todo)))
        attempt = 0
        while pending and not self.serial_only:
            try:
                executor = self._ensure_executor()
            except Exception:
                self._degrade("worker pool failed to start")
                break
            failed: List[int] = []
            pool_wedged = False
            try:
                futures = {
                    index: executor.submit(run_mapping, todo[index], attempt)
                    for index in pending
                }
            except BrokenProcessPool:
                # A worker crash from an earlier batch can mark the pool
                # broken between batches, in which case submit() raises
                # before any future exists.  Treat it like a mid-batch
                # breakage: rebuild and resubmit the whole round.
                self.stats.broken_pools += 1
                futures = {}
                failed = list(pending)
                pool_wedged = True
            for index, future in futures.items():
                if pool_wedged:
                    future.cancel()
                    failed.append(index)
                    continue
                try:
                    results[index] = future.result(timeout=self.timeout)
                except FutureTimeoutError:
                    self.stats.timeouts += 1
                    failed.append(index)
                    pool_wedged = True
                except BrokenProcessPool:
                    self.stats.broken_pools += 1
                    failed.append(index)
                    pool_wedged = True
                except Exception:
                    self.stats.worker_errors += 1
                    failed.append(index)
            if pool_wedged:
                self._rebuild()
            pending = failed
            if not pending:
                break
            attempt += 1
            if attempt > MAX_RETRIES:
                self.stats.abandoned += len(pending)
                _LOG.warning(
                    kv(
                        "retries-exhausted",
                        abandoned=len(pending),
                        attempts=attempt,
                    )
                )
                break
            self.stats.retries += 1
            time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
        return results

    def _rebuild(self) -> None:
        """Tear down a crashed/wedged pool (terminating any hung worker
        processes) so the next round starts from a fresh pool; degrade
        to serial once rebuilds exceed the tolerance."""
        self.stats.pool_rebuilds += 1
        self._shutdown(force=True)
        _LOG.warning(kv("pool-rebuild", n=self.stats.pool_rebuilds))
        if self.stats.pool_rebuilds > MAX_POOL_REBUILDS:
            self._degrade(
                f"{self.stats.pool_rebuilds} pool rebuilds exceeded the "
                f"tolerance of {MAX_POOL_REBUILDS}"
            )

    def _degrade(self, why: str) -> None:
        """Give up on worker processes for the rest of the run; the
        oracle computes everything from here on (bit-identically — the
        pool was only ever a cache warmer)."""
        if not self.serial_only:
            self.serial_only = True
            self.stats.serial_fallback = True
            _LOG.warning(kv("serial-fallback", reason=why))
        self._shutdown(force=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker,
                initargs=(self.spec,),
            )
            _LOG.info(kv("pool-start", workers=self.workers))
        return self._executor

    def _shutdown(self, force: bool = False) -> None:
        """Shut the pool down.  ``force`` handles wedged pools: futures
        are cancelled, the shutdown does not wait, and worker processes
        that survive (hung in an injected or real stall) are terminated
        so they cannot leak."""
        executor = self._executor
        if executor is None:
            return
        self._executor = None
        if not force:
            executor.shutdown(wait=True)
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)

    @property
    def started(self) -> bool:
        """Whether worker processes are running right now."""
        return self._executor is not None

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        self._shutdown(force=False)
