"""Cache size budgets: LRU eviction, purge, the class index, and the
entries/metadata views behind ``GET /cache`` and ``repro cache``."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache

RESULT = b'{"best": 1}\n'


def _fp(i: int) -> str:
    return f"{i:02d}" + "f" * 62


def _result(i: int) -> bytes:
    """A result document naming entry ``i``'s fingerprint, which a
    lookup checks."""
    return b'{"best": 1, "fingerprint": "' + _fp(i).encode() + b'"}\n'


class TestSizeAccounting:
    def test_entry_and_total_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fp(0), {"result.json": RESULT})
        cache.put(_fp(1), {"result.json": RESULT, "trace.json": b"x" * 100})
        assert cache.entry_bytes(_fp(1)) > cache.entry_bytes(_fp(0))
        assert cache.total_bytes() == (
            cache.entry_bytes(_fp(0)) + cache.entry_bytes(_fp(1))
        )

    def test_entries_lists_metadata(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(
            _fp(0),
            {"result.json": RESULT, "proof.json": b"{}\n"},
            class_key="ck",
        )
        (entry,) = cache.entries()
        assert entry["fingerprint"] == _fp(0)
        assert entry["class"] == "ck"
        assert entry["equivalent"] is True
        # metadata files never masquerade as artifacts
        assert entry["artifacts"] == ["proof.json", "result.json"]

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)


class TestEviction:
    def test_evict_removes_entry_and_class_marker(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fp(0), {"result.json": RESULT}, class_key="ck")
        assert cache.candidates("ck") == [_fp(0)]
        assert cache.evict(_fp(0))
        assert not cache.contains(_fp(0))
        assert cache.candidates("ck") == []
        assert not cache.evict(_fp(0))  # already gone

    def test_eviction_counter(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        cache.put(_fp(0), {"result.json": RESULT})
        cache.evict(_fp(0))
        assert metrics.counter("service.cache.evictions").value == 1

    def test_purge_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(_fp(i), {"result.json": RESULT}, class_key="ck")
        assert cache.purge() == 3
        assert len(cache) == 0
        assert cache.candidates("ck") == []

    def test_lru_evicts_least_recently_used(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fp(0), {"result.json": _result(0)})
        # Budget: three entries fit, a fourth does not (sized from a
        # real entry, which also holds its .atime stamp).
        budget = 3 * cache.entry_bytes(_fp(0)) + 10
        cache.max_bytes = budget
        time.sleep(0.01)
        cache.put(_fp(1), {"result.json": _result(1)})
        time.sleep(0.01)
        cache.put(_fp(2), {"result.json": _result(2)})
        # Touch the oldest so entry 1 becomes the LRU victim.
        time.sleep(0.01)
        assert cache.lookup(_fp(0)) is not None
        time.sleep(0.01)
        cache.put(_fp(3), {"result.json": _result(3)})
        assert cache.contains(_fp(0))
        assert not cache.contains(_fp(1))
        assert cache.contains(_fp(2))
        assert cache.contains(_fp(3))
        assert cache.total_bytes() <= budget

    def test_never_evicts_the_just_published_entry(self, tmp_path):
        # Budget below a single entry: everything else may go, but the
        # entry being published survives.
        cache = ResultCache(tmp_path, max_bytes=1)
        cache.put(_fp(0), {"result.json": RESULT})
        cache.put(_fp(1), {"result.json": RESULT})
        assert cache.contains(_fp(1))
        assert not cache.contains(_fp(0))


class TestClassIndex:
    def test_candidates_ordered_and_filtered(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fp(1), {"result.json": RESULT}, class_key="ck")
        cache.put(_fp(0), {"result.json": RESULT}, class_key="ck")
        cache.put(_fp(2), {"result.json": RESULT}, class_key="other")
        assert cache.candidates("ck") == [_fp(0), _fp(1)]
        assert cache.candidates("missing") == []
        cache.evict(_fp(0))
        assert cache.candidates("ck") == [_fp(1)]

    def test_entry_class_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fp(0), {"result.json": RESULT}, class_key="ck")
        cache.put(_fp(1), {"result.json": RESULT})
        assert cache.entry_class(_fp(0)) == "ck"
        assert cache.entry_class(_fp(1)) is None

    def test_reput_remarks_class(self, tmp_path):
        """First-writer-wins put still (re)indexes the class marker,
        e.g. after a marker was lost to a purge of the classes dir."""
        cache = ResultCache(tmp_path)
        cache.put(_fp(0), {"result.json": RESULT}, class_key="ck")
        (cache.classes_dir / "ck" / _fp(0)).unlink()
        cache.put(_fp(0), {"result.json": b"ignored\n"}, class_key="ck")
        assert cache.read(_fp(0), "result.json") == RESULT
        assert cache.candidates("ck") == [_fp(0)]


class TestConcurrentEviction:
    def test_readers_race_eviction_safely(self, tmp_path):
        """A reader concurrent with evict() sees the full bytes or a
        clean miss — never a torn entry and never an exception."""
        cache = ResultCache(tmp_path)
        errors = []
        raised = []
        reads = []

        def reader():
            try:
                for _ in range(200):
                    data = cache.read(_fp(0), "result.json")
                    if data is not None and data != RESULT:
                        errors.append(data)
                    reads.append(data)
            except Exception as exc:  # asserted below, in the test thread
                raised.append(exc)

        cache.put(_fp(0), {"result.json": RESULT})
        # A short switch interval interleaves the threads between the
        # reader's existence check and its read, where eviction races.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=reader)
            thread.start()
            deadline = time.monotonic() + 30
            while thread.is_alive() and time.monotonic() < deadline:
                cache.evict(_fp(0))
                cache.put(_fp(0), {"result.json": RESULT})
            thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not raised, raised
        assert len(reads) == 200
        assert not errors
