"""``SegmentMap`` and ``CoherenceState`` against a naive reference.

The reference is the plain formulation of the coherence rules: a sorted
segment list that splits at both edges of every operation before
touching it.  The real map splits in place with one bisection per
operation.  Segment structure is output (a later read issues one copy
per segment it spans), so every observable is compared after every
step: each ``plan_read`` result, every segment's bounds, authority and
cache order, the root order, and ``footprint()`` with its key order.
``plan_read`` returns the times of the parts already resident, in byte
order; the ready time is their maximum folded the executor's way (from
``0.0``, replacing only on a strictly later time, so a ``-0.0`` tie
keeps its sign).
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.instances import CoherenceState

MEMS = ("m0", "m1", "m2")
ROOTS = ("r0", "r1")
#: Few distinct times, so ties (and -0.0 against 0.0) are common.
TIMES = (0.0, -0.0, 1.0, 2.5, 4.0)


class RefMap:
    """Segments as ``[lo, hi, auth_mem, auth_time, caches]`` lists."""

    def __init__(self) -> None:
        self.segs: List[list] = []

    def _split(self, pos: int) -> None:
        for k, (lo, hi, mem, time, caches) in enumerate(self.segs):
            if lo < pos < hi:
                self.segs[k : k + 1] = [
                    [lo, pos, mem, time, dict(caches)],
                    [pos, hi, mem, time, dict(caches)],
                ]
                return

    def _inside(self, lo: int, hi: int) -> List[list]:
        return [s for s in self.segs if lo <= s[0] and s[1] <= hi]

    def write(self, lo, hi, mem, time) -> None:
        if hi <= lo:
            return
        self._split(lo)
        self._split(hi)
        kept = [s for s in self.segs if not (lo <= s[0] and s[1] <= hi)]
        self.segs = sorted(kept + [[lo, hi, mem, time, {}]], key=lambda s: s[0])

    def plan_read(self, lo, hi, dst):
        if hi <= lo:
            return 0.0, [], []
        self._split(lo)
        self._split(hi)
        ready = 0.0
        resident = []
        copies = []
        covered = lo
        for seg in self._inside(lo, hi):
            if seg[0] > covered:
                self.write(covered, seg[0], dst, 0.0)
            covered = seg[1]
            if seg[2] == dst:
                ready = max(ready, seg[3])
                resident.append(seg[3])
            elif dst in seg[4]:
                ready = max(ready, seg[4][dst])
                resident.append(seg[4][dst])
            else:
                copies.append((seg[2], seg[0], seg[1], seg[3]))
        if covered < hi:
            self.write(covered, hi, dst, 0.0)
        return ready, resident, copies

    def commit_cache(self, lo, hi, mem, time) -> None:
        if hi <= lo:
            return
        self._split(lo)
        self._split(hi)
        for seg in self._inside(lo, hi):
            seg[4][mem] = time

    def footprint(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for lo, hi, mem, _time, caches in self.segs:
            out[mem] = out.get(mem, 0) + hi - lo
            for cached in caches:
                out[cached] = out.get(cached, 0) + hi - lo
        return out


class RefState:
    def __init__(self) -> None:
        self.roots: Dict[str, RefMap] = {}

    def root(self, name: str) -> RefMap:
        return self.roots.setdefault(name, RefMap())

    def footprint(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for seg_map in self.roots.values():
            for mem, size in seg_map.footprint().items():
                out[mem] = out.get(mem, 0) + size
        return out


def _observe_real(state: CoherenceState):
    roots = []
    for name, seg_map in state._roots.items():
        assert seg_map._los == [s.lo for s in seg_map._segments]
        segs = [
            (s.lo, s.hi, s.auth_mem, s.auth_time, s.caches) for s in seg_map._segments
        ]
        roots.append((name, _observe_segments(segs)))
    return roots, list(state.footprint().items())


def _observe_ref(state: RefState):
    roots = [
        (name, _observe_segments(seg_map.segs)) for name, seg_map in state.roots.items()
    ]
    return roots, list(state.footprint().items())


def _copy(mem, lo, hi, time):
    return mem, lo, hi, time.hex()


def _observe_segments(segs):
    """Bounds, authority and cache order, times by ``hex()``."""
    return [
        (lo, hi, mem, time.hex(), [(m, t.hex()) for m, t in caches.items()])
        for lo, hi, mem, time, caches in segs
    ]


positions = st.integers(min_value=0, max_value=12)
roots = st.sampled_from(ROOTS)
mems = st.sampled_from(MEMS)
times = st.sampled_from(TIMES)
ops = st.one_of(
    st.tuples(st.just("write"), roots, positions, positions, mems, times),
    st.tuples(st.just("read"), roots, positions, positions, mems),
    st.tuples(st.just("commit"), roots, positions, positions, mems, times),
)


@given(st.lists(ops, max_size=40))
@settings(max_examples=400, deadline=None)
def test_segment_map_matches_reference(sequence):
    real, ref = CoherenceState(), RefState()
    for op in sequence:
        if op[0] == "read":
            _, root, lo, hi, mem = op
            stamps, copies = real.root(root).plan_read(lo, hi, mem)
            want_ready, resident, want_copies = ref.root(root).plan_read(
                lo, hi, mem
            )
            ready = 0.0
            for stamp in stamps:
                if stamp > ready:
                    ready = stamp
            assert ready.hex() == want_ready.hex()
            assert [t.hex() for t in stamps] == [t.hex() for t in resident]
            assert [_copy(*c) for c in copies] == [_copy(*c) for c in want_copies]
            assert [c.nbytes for c in copies] == [c[2] - c[1] for c in want_copies]
        else:
            kind, root, lo, hi, mem, time = op
            method = "write" if kind == "write" else "commit_cache"
            getattr(real.root(root), method)(lo, hi, mem, time)
            getattr(ref.root(root), method)(lo, hi, mem, time)
        assert _observe_real(real) == _observe_ref(ref)
