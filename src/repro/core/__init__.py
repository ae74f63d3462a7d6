"""AutoMap itself (paper §3, Figure 4).

Two components: the **mapper**, which interacts with the runtime to apply
a candidate mapping and collect performance profiles, and the **driver**,
which owns the search algorithms and the profiles database and decides
which mapping to execute and evaluate next.  Here the driver is the
tuning engine.

Public surface:

- :class:`~repro.core.session.AutoMapSession` — the one-call user API
  ("AutoMap requires no modification to the application", §3.3), which
  adds a working directory of artifacts to one tune;
- :class:`~repro.core.engine.TuneRequest` and
  :class:`~repro.core.engine.TuningEngine` — search orchestration with
  budgets and the final top-5 re-evaluation protocol of §5;
- :class:`~repro.core.oracle.SimulationOracle` — the evaluation oracle
  (repeated noisy runs, averaging, dedup, invalid/OOM rejection, and
  static pruning);
- :class:`~repro.core.profiles.ProfileDatabase` — per-mapping performance
  samples with JSON persistence;
- :mod:`~repro.core.spacefile` — the search-space representation file
  produced by profiling the application once (§3.3);
- :class:`~repro.core.mapper.AutoMapMapper` — the runtime-facing mapping
  interface (Legion-mapper-style callbacks).
"""

from repro.core.oracle import OracleConfig, SimulationOracle
from repro.core.profiles import ProfileDatabase, ProfileRecord
from repro.core.engine import TuneRequest, TuningEngine, TuningReport
from repro.core.mapper import AutoMapMapper
from repro.core.session import AutoMapSession
from repro.core.spacefile import generate_space_file, load_space_file

__all__ = [
    "SimulationOracle",
    "OracleConfig",
    "ProfileDatabase",
    "ProfileRecord",
    "TuneRequest",
    "TuningEngine",
    "TuningReport",
    "AutoMapMapper",
    "AutoMapSession",
    "generate_space_file",
    "load_space_file",
]
