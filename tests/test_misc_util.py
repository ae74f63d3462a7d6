"""Unit tests for logging helpers and the copy engine."""

import logging

import pytest

from repro.machine import Topology, shepard
from repro.runtime.copies import DMA_EFFICIENCY, CopyEngine
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CopyNeed
from repro.util.logging import configure, get_logger, kv
from repro.util.units import MIB


class TestLogging:
    def test_namespacing(self):
        assert get_logger("search.ccd").name == "repro.search.ccd"
        assert get_logger("repro.core").name == "repro.core"

    def test_configure_idempotent(self):
        configure()
        configure()
        root = logging.getLogger("repro")
        stream_handlers = [
            h for h in root.handlers if isinstance(h, logging.StreamHandler)
        ]
        assert len(stream_handlers) == 1

    def test_kv_formatting(self):
        line = kv("eval", n=3, t=0.5, note="two words", empty="")
        assert line.startswith("eval ")
        assert "n=3" in line and "t=0.5" in line
        assert "note='two words'" in line and "empty=''" in line

    def test_kv_compact_floats(self):
        assert "x=1.23457e-07" in kv("e", x=1.234567e-7)


class TestCopyEngine:
    @pytest.fixture
    def engine(self):
        machine = shepard(2)
        return CopyEngine(Topology(machine), TimelinePool())

    def test_duration_includes_dma_efficiency(self, engine):
        need = CopyNeed(src_mem="n0.fb0", lo=0, hi=64 * MIB, src_time=0.0)
        done = engine.execute(need, "n0.zc", ready=0.0)
        link_bw = 1.2e10  # host-device channel
        expected = 1e-5 + 64 * MIB / (link_bw * DMA_EFFICIENCY)
        assert done == pytest.approx(expected, rel=1e-6)

    def test_respects_src_time_and_ready(self, engine):
        need = CopyNeed(src_mem="n0.fb0", lo=0, hi=MIB, src_time=5.0)
        done = engine.execute(need, "n0.zc", ready=2.0)
        assert done > 5.0
        need2 = CopyNeed(src_mem="n0.fb0", lo=0, hi=MIB, src_time=0.0)
        done2 = engine.execute(need2, "n0.zc", ready=20.0)
        assert done2 > 20.0

    def test_channel_contention_serializes(self, engine):
        a = CopyNeed(src_mem="n0.fb0", lo=0, hi=64 * MIB, src_time=0.0)
        b = CopyNeed(src_mem="n0.fb0", lo=0, hi=64 * MIB, src_time=0.0)
        t1 = engine.execute(a, "n0.zc", ready=0.0)
        t2 = engine.execute(b, "n0.zc", ready=0.0)
        assert t2 >= 2 * t1 * 0.99  # second copy queued behind the first

    def test_same_memory_free(self, engine):
        need = CopyNeed(src_mem="n0.zc", lo=0, hi=MIB, src_time=3.0)
        assert engine.execute(need, "n0.zc", ready=1.0) == 3.0
        assert engine.stats.num_copies == 0

    def test_stats_accumulate(self, engine):
        need = CopyNeed(src_mem="n0.fb0", lo=0, hi=MIB, src_time=0.0)
        engine.execute(need, "n0.zc", ready=0.0)
        assert engine.stats.num_copies == 1
        assert engine.stats.bytes_moved == MIB
        assert engine.stats.copy_seconds > 0

    def test_cross_node_multi_hop(self, engine):
        need = CopyNeed(src_mem="n0.fb0", lo=0, hi=MIB, src_time=0.0)
        done = engine.execute(need, "n1.fb0", ready=0.0)
        assert done > 0
        assert engine.stats.num_copies == 1
