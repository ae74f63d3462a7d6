"""The content-addressed result cache: byte-exact artifacts, atomic
publication, hit/miss accounting."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry, to_prometheus_text
from repro.service.cache import ResultCache

FP = "a" * 64
#: A result document names its entry's fingerprint (a lookup
#: quarantines any other).
RESULT = b'{"best": 1, "fingerprint": "' + FP.encode() + b'"}\n'


class TestLookup:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.lookup(FP) is None
        cache.put(FP, {"result.json": RESULT})
        assert cache.lookup(FP) is not None

    def test_read_returns_exact_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(
            FP, {"result.json": RESULT, "trace.json": b"[1, 2]\n"}
        )
        assert cache.read(FP, "result.json") == RESULT
        assert cache.read(FP, "trace.json") == b"[1, 2]\n"
        assert cache.read(FP, "metrics.txt") is None

    def test_put_requires_result(self, tmp_path):
        with pytest.raises(ValueError, match="result.json"):
            ResultCache(tmp_path).put(FP, {"trace.json": b"[]"})

    def test_first_writer_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, {"result.json": RESULT})
        cache.put(FP, {"result.json": b"other\n"})
        assert cache.read(FP, "result.json") == RESULT

    def test_entries_listing_skips_staging_dirs(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, {"result.json": RESULT})
        (cache.cache_dir / ".tmp-leftover").mkdir()
        assert cache.fingerprints() == [FP]
        assert len(cache) == 1

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(FP, {"result.json": RESULT})
        assert ResultCache(tmp_path).contains(FP)


class TestCounters:
    def test_hit_miss_counters(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        cache.lookup(FP)
        cache.put(FP, {"result.json": RESULT})
        cache.lookup(FP)
        cache.lookup(FP)
        counters = metrics.as_dict()["counters"]
        assert counters["service.cache.misses"] == 1
        assert counters["service.cache.hits"] == 2
        assert counters["service.cache.stores"] == 1

    def test_contains_is_metrics_silent(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        cache.contains(FP)
        assert metrics.as_dict()["counters"] == {}

    def test_counters_export_as_prometheus(self, tmp_path):
        metrics = MetricsRegistry()
        ResultCache(tmp_path, metrics=metrics).lookup(FP)
        text = to_prometheus_text(metrics)
        assert "automap_service_cache_misses 1.0" in text


class TestEquivalentCandidates:
    """A candidate that cannot be rebuilt or proved is skipped, logged
    and counted."""

    KEY = "c" * 64

    def _cache_with(self, tmp_path, spec_bytes):
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        cache.put(
            FP,
            {"result.json": RESULT, "spec.json": spec_bytes},
            class_key=self.KEY,
        )
        return cache, metrics

    def test_unbuildable_candidate_is_counted(self, tmp_path, caplog):
        cache, metrics = self._cache_with(tmp_path, b'{"app": "nope"}')
        assert cache.lookup_equivalent(self.KEY, None, "b" * 64) is None
        counters = metrics.as_dict()["counters"]
        assert counters["service.equiv.candidate_errors"] == 1
        assert "ValueError" in caplog.text

    def test_failed_proof_is_counted(self, tmp_path, monkeypatch, caplog):
        import repro.analysis.equivalence
        from repro.service.spec import JobSpec, spec_json_bytes

        def fail(source, target):
            raise RuntimeError("prover unavailable")

        monkeypatch.setattr(
            repro.analysis.equivalence, "prove_equivalent", fail
        )
        spec = JobSpec.from_doc(
            {"app": "forkjoin", "gen_params": {"width": 2, "iterations": 1}}
        )
        cache, metrics = self._cache_with(tmp_path, spec_json_bytes(spec))
        assert cache.lookup_equivalent(self.KEY, None, "b" * 64) is None
        counters = metrics.as_dict()["counters"]
        assert counters["service.equiv.candidate_errors"] == 1
        assert "RuntimeError" in caplog.text
