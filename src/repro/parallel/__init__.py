"""Process-pool evaluation of candidate mappings.

The search loop treats the runtime as a black-box oracle and spends
nearly all of its wall-clock time evaluating candidates; independent
candidates have no data dependencies, so they can be simulated
concurrently.  This package provides:

- :class:`~repro.parallel.pool.SupervisedPool` — worker processes that
  simulate a batch of mappings under supervision (timeouts, retries,
  pool rebuilds, serial degradation).  The evaluation oracle
  (:class:`repro.core.oracle.SimulationOracle`, ``workers > 1``) uses it
  to warm its simulator cache before running the batch through its
  ordinary accounting, so results and search statistics are
  bit-identical to the serial path;
- :class:`~repro.parallel.spec.SimulatorSpec` — the picklable spec worker
  processes use to rebuild the simulator.
"""

from repro.parallel.pool import SupervisedPool
from repro.parallel.spec import SimulatorSpec, WorkerResult

__all__ = ["SupervisedPool", "SimulatorSpec", "WorkerResult"]
