"""Physical instances and data coherence.

Legion semantics (paper §2): a mapping "may imply data movement not
explicit in the task graph" — when a producer writes a collection into
memory ``m1`` and a consumer is mapped to read it from ``m2 ≠ m1``, the
data must be copied before the consumer starts.

Because collections can overlap (halos), validity is tracked on the
underlying logical *root* index spaces, not per collection: each root is
a segment map assigning to every byte range the memory holding the
authoritative copy, the time it was produced, and any cached read
replicas.  Reads then cost exactly the copies Legion would issue, halo
exchanges included, and repeated readers of a cached instance cost
nothing — the dedup the paper relies on when co-locating shared
collections.

No operation here decides by time.  Times are opaque stamps the map
stores and hands back: ``plan_read`` returns the stamps of the parts
already resident and each copy's source stamp, and the caller folds
them.  So one map serves two walks that issue the same copies: the
executor's, with float times, and the incremental engine's compile of a
root program (:mod:`repro.runtime.incremental`), with symbolic stamps
naming the writing launch or the completing copy.  The bound analyzer's
traffic evidence (:mod:`repro.analysis.bounds`) reads the engine's
compiled copies, so its copy set is the executor's by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, NamedTuple, Tuple

__all__ = ["CopyNeed", "Segment", "SegmentMap", "CoherenceState"]


class CopyNeed(NamedTuple):
    """One pending copy: bytes ``[lo, hi)`` of a root from ``src_mem``,
    available there at ``src_time``."""

    src_mem: str
    lo: int
    hi: int
    src_time: float

    @property
    def nbytes(self) -> int:
        return self.hi - self.lo


class Segment:
    """State of one byte range of a root index space: the memory holding
    the authoritative copy, the time it was produced there, and the
    memories holding a still-valid read replica (with their commit
    times, in commit order)."""

    __slots__ = ("lo", "hi", "auth_mem", "auth_time", "caches")

    def __init__(
        self,
        lo: int,
        hi: int,
        auth_mem: str,
        auth_time: float,
        caches: Dict[str, float],
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.auth_mem = auth_mem
        self.auth_time = auth_time
        self.caches = caches


class SegmentMap:
    """Disjoint, sorted segments covering the written/read parts of one
    root index space.

    Segments are kept sorted by ``lo`` with a parallel offset list, so
    every operation locates its range with one bisection and then scans
    forward.  A segment straddling an operation edge is split in place:
    the left half keeps the segment object and its cache dict, the right
    half gets a copy of the dict (same insertion order).  Split points
    are observable — a later read issues one copy per segment it spans,
    and each copy pays hop latency — so every operation splits exactly
    at its own edges."""

    __slots__ = ("_segments", "_los")

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        self._los: List[int] = []

    # ------------------------------------------------------------------
    def _split(self, i: int, pos: int) -> None:
        """Split segment ``i`` (which straddles ``pos``) in place."""
        seg = self._segments[i]
        self._segments.insert(
            i + 1,
            Segment(pos, seg.hi, seg.auth_mem, seg.auth_time, seg.caches.copy()),
        )
        self._los.insert(i + 1, pos)
        seg.hi = pos

    def _start(self, lo: int) -> int:
        """Split the segment straddling ``lo`` (if any) and return the
        index of the first segment starting at or after ``lo``."""
        i = bisect_right(self._los, lo) - 1
        if i < 0:
            return 0
        seg = self._segments[i]
        if seg.hi <= lo:
            return i + 1
        if seg.lo < lo:
            self._split(i, lo)
            return i + 1
        return i

    # ------------------------------------------------------------------
    def write(self, lo: int, hi: int, mem: str, time: float) -> None:
        """Record a write of ``[lo, hi)`` into ``mem`` finishing at
        ``time``: the written range's authoritative copy moves to ``mem``
        and all caches of it are invalidated."""
        if hi <= lo:
            return
        i = self._start(lo)
        segs = self._segments
        los = self._los
        j = bisect_left(los, hi, i)
        if j > i:
            last = segs[j - 1]
            if last.hi > hi:
                # The last overlapped segment keeps its part past ``hi``.
                last.lo = hi
                los[j - 1] = hi
                j -= 1
        segs[i:j] = (Segment(lo, hi, mem, time, {}),)
        los[i:j] = (lo,)

    def plan_read(
        self, lo: int, hi: int, dst_mem: str
    ) -> Tuple[List[float], List[CopyNeed]]:
        """What it takes to make ``[lo, hi)`` valid in ``dst_mem``.

        Returns ``(stamps, copies)``: ``stamps`` holds the time of each
        part already resident in ``dst_mem`` (its authoritative or cached
        copy's), in byte order, and the caller folds them into a ready
        time; ``copies`` lists the byte ranges that must be fetched (from
        their authoritative memories).  Ranges never written anywhere
        (virgin input data) are materialised in place for free, at time
        ``0.0`` and without a stamp — the simulator measures warmed
        steady-state iterations, like the paper's per-iteration timings.
        """
        if hi <= lo:
            return [], []
        i = self._start(lo)
        segs = self._segments
        los = self._los
        stamps: List[float] = []
        copies: List[CopyNeed] = []
        covered = lo
        n = len(segs)
        while i < n:
            seg = segs[i]
            seg_lo = seg.lo
            if seg_lo >= hi:
                break
            if seg_lo > covered:
                # Virgin gap: materialise in dst for free.
                segs.insert(i, Segment(covered, seg_lo, dst_mem, 0.0, {}))
                los.insert(i, covered)
                i += 1
                n += 1
            if seg.hi > hi:
                self._split(i, hi)
                n += 1
            covered = seg.hi
            if seg.auth_mem == dst_mem:
                local = seg.auth_time
            else:
                local = seg.caches.get(dst_mem)
            if local is None:
                copies.append(CopyNeed(seg.auth_mem, seg_lo, covered, seg.auth_time))
            else:
                stamps.append(local)
            i += 1
        if covered < hi:
            segs.insert(i, Segment(covered, hi, dst_mem, 0.0, {}))
            los.insert(i, covered)
        return stamps, copies

    def commit_cache(self, lo: int, hi: int, mem: str, time: float) -> None:
        """Record that ``[lo, hi)`` now has a valid replica in ``mem``
        as of ``time`` (after a planned copy completed)."""
        if hi <= lo:
            return
        i = self._start(lo)
        segs = self._segments
        n = len(segs)
        while i < n:
            seg = segs[i]
            if seg.lo >= hi:
                break
            if seg.hi > hi:
                self._split(i, hi)
                n += 1
            seg.caches[mem] = time
            i += 1

    # ------------------------------------------------------------------
    def footprint(self) -> Dict[str, int]:
        """Bytes resident per memory (authoritative + cached replicas)."""
        out: Dict[str, int] = {}
        for seg in self._segments:
            size = seg.hi - seg.lo
            out[seg.auth_mem] = out.get(seg.auth_mem, 0) + size
            for mem in seg.caches:
                out[mem] = out.get(mem, 0) + size
        return out

    @property
    def num_segments(self) -> int:
        return len(self._segments)


class CoherenceState:
    """Coherence over all root index spaces of a task graph."""

    __slots__ = ("_roots",)

    def __init__(self) -> None:
        self._roots: Dict[str, SegmentMap] = {}

    def root(self, name: str) -> SegmentMap:
        seg_map = self._roots.get(name)
        if seg_map is None:
            seg_map = self._roots[name] = SegmentMap()
        return seg_map

    def footprint(self) -> Dict[str, int]:
        """Total resident bytes per memory across all roots."""
        out: Dict[str, int] = {}
        for seg_map in self._roots.values():
            for mem, size in seg_map.footprint().items():
                out[mem] = out.get(mem, 0) + size
        return out
