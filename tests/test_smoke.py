"""Fast end-to-end smoke searches — ``pytest -m smoke``.

One tiny but complete AutoMap run per benchmark application: build the
graph, search with CCD under a small budget, and sanity-check the
report.  CI runs these (plus the CLI smoke commands) to exercise the
whole pipeline per push without paying full figure-reproduction cost.
"""

from __future__ import annotations

import math

import pytest

from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import shepard
from repro.runtime import SimConfig

pytestmark = pytest.mark.smoke

#: Small inputs per application (constructor kwargs), sized so each
#: search finishes in a couple of seconds.
SMOKE_INPUTS = {
    "circuit": {"nodes": 200, "wires": 800},
    "stencil": {"nx": 200, "ny": 200},
    "pennant": {"zx": 64, "zy": 36},
    "htr": {"x": 8, "y": 8, "z": 9},
    "maestro": {"lf_count": 4, "lf_res": 16},
}


@pytest.mark.parametrize("app_name", sorted(SMOKE_INPUTS))
def test_end_to_end_search(app_name):
    machine = shepard(1)
    app = make_app(app_name, **SMOKE_INPUTS[app_name])
    engine = TuningEngine()
    prepared = engine.prepare(
        TuneRequest(
            app.graph(machine),
            machine,
            algorithm="ccd",
            oracle_config=OracleConfig(max_suggestions=150),
            sim_config=SimConfig(noise_sigma=0.04, seed=7, spill=True),
            space=app.space(machine),
            seed=7,
        )
    )
    default_mean = engine.measure(prepared, prepared.space.default_mapping())
    report = engine.run(prepared)
    assert report.best_mapping is not None
    assert math.isfinite(report.best_mean)
    assert report.best_mean > 0
    # The tuned mapping is never worse than the runtime default (CCD
    # starts from the default and only accepts strict improvements).
    assert report.best_mean <= default_mean * 1.05
    assert report.suggested >= report.evaluated > 0
    assert report.describe()
