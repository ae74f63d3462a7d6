"""Unit tests for channel-path routing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.machine import Topology, lassen, shepard
from repro.runtime import SimConfig
from repro.util.units import MIB


@pytest.fixture
def topo2():
    return Topology(shepard(2))


class TestCopyPath:
    def test_self_path_free(self, topo2):
        path = topo2.copy_path("n0.fb0", "n0.fb0")
        assert path is not None
        assert path.hops == ()
        assert path.transfer_time(10 * MIB) == 0.0

    def test_direct_channel(self, topo2):
        path = topo2.copy_path("n0.fb0", "n0.zc")
        assert path is not None
        assert len(path.hops) == 1

    def test_cross_node_routed(self, topo2):
        path = topo2.copy_path("n0.fb0", "n1.fb0")
        assert path is not None
        assert len(path.hops) >= 2  # fb -> host -> network -> ... -> fb

    def test_bottleneck_bandwidth(self, topo2):
        path = topo2.copy_path("n0.fb0", "n1.fb0")
        assert path.bandwidth == min(h.bandwidth for h in path.hops)

    def test_latency_sums(self, topo2):
        path = topo2.copy_path("n0.fb0", "n1.zc")
        assert path.latency == pytest.approx(
            sum(h.latency for h in path.hops)
        )

    def test_transfer_time_monotone_in_bytes(self, topo2):
        t1 = topo2.transfer_time("n0.fb0", "n1.zc", MIB)
        t2 = topo2.transfer_time("n0.fb0", "n1.zc", 64 * MIB)
        assert t2 > t1

    def test_cross_node_slower_than_local(self, topo2):
        local = topo2.transfer_time("n0.fb0", "n0.zc", 64 * MIB)
        remote = topo2.transfer_time("n0.fb0", "n1.zc", 64 * MIB)
        assert remote > local

    def test_connected(self, topo2):
        assert topo2.connected()

    def test_lassen_peer_gpu_copies(self):
        topo = Topology(lassen(1))
        path = topo.copy_path("n0.fb0", "n0.fb3")
        assert path is not None
        # Peer channel exists -> one hop.
        assert len(path.hops) == 1

    def test_caching_returns_same_object(self, topo2):
        a = topo2.copy_path("n0.fb0", "n1.zc")
        b = topo2.copy_path("n0.fb0", "n1.zc")
        assert a is b

    def test_hops_are_the_engines_view_of_the_path(self, topo2):
        path = topo2.copy_path("n0.fb0", "n1.fb0")
        assert topo2.hops("n0.fb0", "n1.fb0") == path.dma_hops
        assert len(path.dma_hops) == len(path.hops)
        assert topo2.hops("n0.fb0", "n0.fb0") == ()
        assert topo2.hops("n0.fb0", "nowhere") is None


class TestSharedTable:
    def test_a_tune_searches_each_pair_once(self, monkeypatch):
        """The executor, the incremental engine and the bound analyzer
        read the machine's one table, so a tune of one machine never
        searches a pair twice."""
        searched = []
        search = Topology._search

        def counting(self, src, dst):
            searched.append((src, dst))
            return search(self, src, dst)

        monkeypatch.setattr(Topology, "_search", counting)
        machine = shepard(2)
        app = make_app("stencil")
        TuningEngine().tune(
            TuneRequest(
                app.graph(machine),
                machine,
                algorithm="ccd",
                oracle_config=OracleConfig(max_suggestions=60),
                sim_config=SimConfig(noise_sigma=0.0, seed=1),
                space=app.space(machine),
                seed=1,
                trace=True,
            )
        )
        assert searched
        assert len(searched) == len(set(searched))


class TestStartup:
    def test_entry_points_do_not_import_networkx(self):
        """Routing is the package's own: importing the library, the CLI
        and the service loads no networkx, even where it is installed."""
        src = Path(repro.__file__).resolve().parents[1]
        code = (
            "import sys, repro, repro.cli, repro.service; "
            "print(sorted(m for m in sys.modules if m.startswith('networkx')))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"
