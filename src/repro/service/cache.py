"""The content-addressed result cache.

One directory per workload fingerprint under ``<root>/cache/``, holding
the finished run's artifacts (``result.json``, ``trace.json``,
``metrics.txt``) plus service metadata: the submitted job spec
(``spec.json``, what the near-equivalence prover rebuilds candidate
workloads from), the equivalence proof log (``proof.json``, present on
entries published through the prover), a reverse class pointer
(``class.txt``) and an LRU timestamp (``.atime``).  A resubmitted
equivalent workload — same fingerprint, see
:mod:`repro.service.fingerprint` — is served from here with **zero** new
simulations and byte-for-byte the stored artifacts: a hit does not
re-encode anything, it hands back the files the original run wrote.

Beside the exact-fingerprint index lives a coarse one:
``<root>/classes/<class_key>/<fingerprint>`` marker files group entries
by :func:`repro.service.fingerprint.workload_class_key`, the erased
fingerprint that is invariant under everything the AM6xx prover can
prove immaterial.  On an exact miss the service walks the class's
candidates and runs the full prover against each — the class key only
narrows the search, the proof carries the soundness.

Population is atomic: artifacts are staged into a temp directory next to
the final one and published with a single ``os.replace`` rename, so a
concurrent reader sees either no entry or a complete entry.  Losing the
race to another populater is fine — both wrote the same content-addressed
bytes (the determinism contract), so the survivor is interchangeable.
Eviction is atomic the same way in reverse: the entry is renamed out of
the cache directory first, then deleted, so readers never see a partial
entry.  With ``max_bytes`` set, every publish evicts
least-recently-used entries (by ``.atime``, touched on every lookup and
read) until the cache fits.

Hit/miss/store/eviction counters go through the service's
:class:`repro.obs.metrics.MetricsRegistry` and out the Prometheus text
endpoint.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry

__all__ = ["CACHE_ARTIFACTS", "ResultCache"]

#: Artifact filenames a complete cache entry holds; ``result.json`` is
#: mandatory (the deterministic report), the others best-effort.
CACHE_ARTIFACTS = ("result.json", "trace.json", "metrics.txt")

#: Service-metadata filenames riding along in an entry.
_ATIME = ".atime"
_CLASS = "class.txt"


class ResultCache:
    """Fingerprint-keyed store of finished tuning artifacts."""

    def __init__(
        self,
        root: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.root = Path(root)
        self.cache_dir = self.root / "cache"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.classes_dir = self.root / "classes"
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    def entry_dir(self, fingerprint: str) -> Path:
        return self.cache_dir / fingerprint

    def _touch(self, entry: Path) -> None:
        try:
            (entry / _ATIME).write_text(f"{time.time():.6f}\n")
        except OSError:  # pragma: no cover - entry raced away
            pass

    def _atime(self, entry: Path) -> float:
        try:
            return float((entry / _ATIME).read_text().strip())
        except (OSError, ValueError):
            try:
                return entry.stat().st_mtime
            except OSError:  # pragma: no cover - entry raced away
                return 0.0

    def lookup(self, fingerprint: str) -> Optional[Path]:
        """The entry directory on a hit, ``None`` on a miss — counting
        either way."""
        entry = self.entry_dir(fingerprint)
        if (entry / "result.json").exists():
            self.metrics.counter("service.cache.hits").inc()
            self._touch(entry)
            return entry
        self.metrics.counter("service.cache.misses").inc()
        return None

    def contains(self, fingerprint: str) -> bool:
        """A metrics-silent probe (used by status endpoints)."""
        return (self.entry_dir(fingerprint) / "result.json").exists()

    # ------------------------------------------------------------------
    def put(
        self,
        fingerprint: str,
        files: Dict[str, bytes],
        class_key: Optional[str] = None,
    ) -> Path:
        """Publish a complete entry atomically.

        ``files`` maps artifact name to exact bytes; ``result.json`` is
        required.  An existing entry is kept (first writer wins — the
        bytes are content-addressed, so identical by contract).  With a
        ``class_key`` the entry is additionally indexed for
        near-equivalence candidate lookup.
        """
        if "result.json" not in files:
            raise ValueError("a cache entry requires result.json")
        entry = self.entry_dir(fingerprint)
        if (entry / "result.json").exists():
            if class_key is not None:
                self._mark_class(class_key, fingerprint)
            return entry
        staging = tempfile.mkdtemp(
            prefix=f".{fingerprint[:16]}-", dir=self.cache_dir
        )
        try:
            for name, data in files.items():
                (Path(staging) / name).write_bytes(data)
            if class_key is not None:
                (Path(staging) / _CLASS).write_text(class_key + "\n")
            (Path(staging) / _ATIME).write_text(f"{time.time():.6f}\n")
            try:
                os.replace(staging, entry)
            except OSError:
                # Lost the publish race (entry now exists): keep theirs.
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        if class_key is not None:
            self._mark_class(class_key, fingerprint)
        self.metrics.counter("service.cache.stores").inc()
        self._evict_lru(keep=fingerprint)
        return entry

    def read(self, fingerprint: str, name: str) -> Optional[bytes]:
        """Exact stored bytes of one artifact, or ``None``."""
        entry = self.entry_dir(fingerprint)
        path = entry / name
        if not path.exists():
            return None
        self._touch(entry)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            # A concurrent evict() removed the entry after the check.
            return None

    # ------------------------------------------------------------------
    # Near-equivalence class index
    # ------------------------------------------------------------------
    def _mark_class(self, class_key: str, fingerprint: str) -> None:
        marker_dir = self.classes_dir / class_key
        marker_dir.mkdir(parents=True, exist_ok=True)
        marker = marker_dir / fingerprint
        if not marker.exists():
            try:
                marker.write_text("")
            except OSError:  # pragma: no cover - concurrent purge
                pass

    def _unmark_class(self, class_key: str, fingerprint: str) -> None:
        marker_dir = self.classes_dir / class_key
        try:
            (marker_dir / fingerprint).unlink()
        except OSError:
            pass
        try:
            marker_dir.rmdir()  # only succeeds when empty
        except OSError:
            pass

    def candidates(self, class_key: str) -> List[str]:
        """Fingerprints of live entries in one equivalence class,
        oldest-published first (stable prover walk order)."""
        marker_dir = self.classes_dir / class_key
        if not marker_dir.is_dir():
            return []
        out = [
            marker.name
            for marker in sorted(marker_dir.iterdir())
            if self.contains(marker.name)
        ]
        return out

    def entry_class(self, fingerprint: str) -> Optional[str]:
        """The class key an entry was published under, if any."""
        try:
            text = (self.entry_dir(fingerprint) / _CLASS).read_text()
        except OSError:
            return None
        return text.strip() or None

    def spec_doc(self, fingerprint: str) -> Optional[dict]:
        """The job-spec document stored beside an entry, if any."""
        data = self.read(fingerprint, "spec.json")
        if data is None:
            return None
        try:
            doc = json.loads(data)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None

    def lookup_equivalent(self, class_key: str, workload, fingerprint):
        """The first cached entry provably equivalent to ``workload``.

        Walks the class's candidates oldest-first, rebuilds each
        candidate's workload from its stored ``spec.json``, and runs the
        full AM6xx prover (:func:`repro.analysis.equivalence
        .prove_equivalent`) against the submitted one.  Returns
        ``(candidate_fingerprint, proof)`` — with the proof's relabeling
        mapping candidate names onto the submission's — or ``None``.
        Candidates that fail to rebuild or to prove are skipped; only a
        completed proof ever serves bytes, so a class-key collision costs
        a proof attempt, never correctness.
        """
        from repro.analysis.equivalence import Workload, prove_equivalent
        from repro.service.fingerprint import spec_config
        from repro.service.spec import JobSpec

        for candidate in self.candidates(class_key):
            if candidate == fingerprint:
                continue
            spec_doc = self.spec_doc(candidate)
            if spec_doc is None:
                continue
            try:
                cand_spec = JobSpec.from_doc(spec_doc)
                _, graph, machine, space = cand_spec.build()
                source = Workload(
                    graph,
                    machine,
                    spec_config(cand_spec),
                    cand_spec.start_mapping,
                    space,
                )
                proof = prove_equivalent(source, workload)
            except Exception:  # noqa: BLE001 - stale/foreign entries
                continue
            if proof.equivalent:
                self.metrics.counter("service.cache.equiv_hits").inc()
                return candidate, proof
        return None

    # ------------------------------------------------------------------
    # Size accounting and eviction
    # ------------------------------------------------------------------
    def entry_bytes(self, fingerprint: str) -> int:
        entry = self.entry_dir(fingerprint)
        total = 0
        try:
            for path in entry.iterdir():
                if path.is_file():
                    total += path.stat().st_size
        except OSError:
            return 0
        return total

    def total_bytes(self) -> int:
        return sum(self.entry_bytes(fp) for fp in self.fingerprints())

    def entries(self) -> List[dict]:
        """One summary document per live entry (admin/endpoint view)."""
        out = []
        for fp in self.fingerprints():
            entry = self.entry_dir(fp)
            artifacts = sorted(
                p.name
                for p in entry.iterdir()
                if p.is_file()
                and not p.name.startswith(".")
                and p.name != _CLASS
            )
            out.append(
                {
                    "fingerprint": fp,
                    "bytes": self.entry_bytes(fp),
                    "atime": self._atime(entry),
                    "artifacts": artifacts,
                    "class": self.entry_class(fp),
                    "equivalent": (entry / "proof.json").exists(),
                }
            )
        return out

    def evict(self, fingerprint: str) -> bool:
        """Atomically delete one entry (and its class marker).

        The entry is renamed out of the cache directory first, so
        concurrent readers see either the complete entry or none.
        """
        entry = self.entry_dir(fingerprint)
        if not entry.is_dir():
            return False
        class_key = self.entry_class(fingerprint)
        grave = tempfile.mkdtemp(
            prefix=f".evict-{fingerprint[:16]}-", dir=self.cache_dir
        )
        try:
            os.replace(entry, grave)
        except OSError:
            shutil.rmtree(grave, ignore_errors=True)
            return False
        shutil.rmtree(grave, ignore_errors=True)
        if class_key is not None:
            self._unmark_class(class_key, fingerprint)
        self.metrics.counter("service.cache.evictions").inc()
        return True

    def purge(self) -> int:
        """Evict every entry; returns the number removed."""
        removed = 0
        for fp in self.fingerprints():
            if self.evict(fp):
                removed += 1
        return removed

    def _evict_lru(self, keep: Optional[str] = None) -> None:
        """Enforce ``max_bytes`` by evicting least-recently-used entries
        (never the just-published ``keep`` entry)."""
        if self.max_bytes is None:
            return
        while self.total_bytes() > self.max_bytes:
            victims = sorted(
                (
                    fp
                    for fp in self.fingerprints()
                    if fp != keep
                ),
                key=lambda fp: self._atime(self.entry_dir(fp)),
            )
            if not victims:
                return
            if not self.evict(victims[0]):
                return

    # ------------------------------------------------------------------
    def fingerprints(self) -> List[str]:
        return sorted(
            entry.name
            for entry in self.cache_dir.iterdir()
            if entry.is_dir()
            and not entry.name.startswith(".")
            and (entry / "result.json").exists()
        )

    def __len__(self) -> int:
        return len(self.fingerprints())
