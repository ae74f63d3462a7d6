"""The one-call user API.

"AutoMap requires no modification to the application" (§3.3): a session
takes the application's task graph (or an :class:`repro.apps.base.App`)
and a machine, generates the search-space representation file by
profiling the application once, runs the offline search, and returns the
tuning report.  Artifacts (space file, profiles database) are written to
a working directory when one is given.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.core.engine import TuneRequest, TuningEngine, TuningReport
from repro.core.oracle import OracleConfig
from repro.core.profiles import ProfileDatabase
from repro.core.spacefile import generate_space_file
from repro.obs.telemetry import TELEMETRY_FILENAME, SearchTelemetry
from repro.obs.trace import TRACE_FILENAME
from repro.machine.model import Machine
from repro.mapping.mapping import Mapping
from repro.resilience.checkpoint import CHECKPOINT_FILENAME, load_checkpoint
from repro.runtime.simulator import SimConfig
from repro.taskgraph.graph import TaskGraph
from repro.util.logging import get_logger
from repro.util.serialization import atomic_write_text

__all__ = ["AutoMapSession"]

_LOG = get_logger("core.session")


class AutoMapSession:
    """End-to-end tuning of one application on one machine.

    Examples
    --------
    >>> from repro.machine import shepard
    >>> from repro.apps import StencilApp
    >>> app = StencilApp(nx=500, ny=500, nodes=1)
    >>> session = AutoMapSession(app.graph(shepard(1)), shepard(1))
    >>> report = session.tune()         # doctest: +SKIP
    """

    def __init__(
        self,
        graph: TaskGraph,
        machine: Machine,
        algorithm: str = "ccd",
        workdir: Optional[Union[str, Path]] = None,
        oracle_config: Optional[OracleConfig] = None,
        sim_config: Optional[SimConfig] = None,
        seed: int = 0,
        space=None,
        static_prune: bool = True,
        bound_prune: bool = True,
        checkpoint_every: int = 0,
        resume: bool = False,
        trace: bool = False,
        metrics_out: Optional[Union[str, Path]] = None,
        telemetry: bool = True,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self.workdir = Path(workdir) if workdir is not None else None
        #: Optional path for a Prometheus text-format dump of the tuning
        #: run's metrics registry (written after :meth:`tune`).
        self.metrics_out = (
            Path(metrics_out) if metrics_out is not None else None
        )

        # Observability: with a working directory, per-round search
        # telemetry streams to ``<workdir>/telemetry.jsonl``; with
        # ``trace=True`` the winning mapping's deterministic execution
        # trace lands in ``<workdir>/trace.json`` (Chrome trace-event
        # format).  Both are observational — enabling them cannot change
        # the tuning result (see repro.obs).  ``telemetry=False`` skips
        # the sink even with a working directory — the service does this
        # because telemetry records wall-clock seconds, which would make
        # the job directory differ across bit-identical runs.
        self.telemetry = (
            SearchTelemetry(self.workdir / TELEMETRY_FILENAME)
            if telemetry and self.workdir is not None
            else None
        )
        self.trace = trace

        # Fault tolerance: with a working directory, the search state is
        # checkpointed to ``<workdir>/checkpoint.json`` (periodically
        # when ``checkpoint_every > 0``, and always on interrupt / at
        # the end).  ``resume=True`` reloads that checkpoint and
        # continues the run — bit-identically, see repro.resilience.
        checkpoint_path = None
        resume_checkpoint = None
        if self.workdir is not None:
            checkpoint_path = self.workdir / CHECKPOINT_FILENAME
        if resume:
            if checkpoint_path is None:
                raise ValueError(
                    "resume=True requires a working directory holding "
                    "the checkpoint to resume from"
                )
            if not checkpoint_path.exists():
                raise FileNotFoundError(
                    f"no checkpoint to resume at {checkpoint_path}"
                )
            resume_checkpoint = load_checkpoint(checkpoint_path)

        #: The prepared working set (pruned space, simulator, static
        #: analyzers); measure baselines on ``prepared.simulator`` with
        #: :meth:`TuningEngine.measure`.
        self.prepared = TuningEngine().prepare(
            TuneRequest(
                graph,
                machine,
                algorithm=algorithm,
                oracle_config=oracle_config,
                sim_config=sim_config,
                seed=seed,
                space=space,
                static_prune=static_prune,
                bound_prune=bound_prune,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                resume_checkpoint=resume_checkpoint,
                telemetry=self.telemetry,
                trace=trace,
            )
        )

    # ------------------------------------------------------------------
    def tune(self, start: Optional[Mapping] = None) -> TuningReport:
        """Profile once (space file), search, re-evaluate finalists."""
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            generate_space_file(
                self.graph,
                self.machine,
                self.workdir / "search_space.json",
                sim_config=self.prepared.sim_config,
            )
        report = TuningEngine().run(self.prepared, start=start)
        if self.workdir is not None:
            self._save_artifacts(report)
        if self.metrics_out is not None and report.metrics is not None:
            from repro.obs.metrics import to_prometheus_text

            self.metrics_out.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                to_prometheus_text(report.metrics), self.metrics_out
            )
            _LOG.info("metrics written to %s", self.metrics_out)
        return report

    def _save_artifacts(self, report: TuningReport) -> None:
        assert self.workdir is not None
        if report.best_mapping is not None:
            from repro.mapping.io import save_mapping

            save_mapping(
                report.best_mapping,
                self.workdir / "best_mapping.json",
                application=self.graph.name,
            )
        profiles = ProfileDatabase()
        for mapping, mean, stddev, count in report.finalists:
            # Persist the finalists' summary (full sample sets live in the
            # oracle's database during the run).
            profiles.record(mapping, [mean] * min(count, 1))
        profiles.save(self.workdir / "finalists.json")
        if report.trace is not None:
            report.trace.save(self.workdir / TRACE_FILENAME)
        atomic_write_text(
            report.describe() + "\n", self.workdir / "report.txt"
        )
        _LOG.info("artifacts written to %s", self.workdir)
