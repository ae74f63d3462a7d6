"""Unit tests for the coherence layer (segments, caches, invalidation)."""


from repro.runtime.instances import CoherenceState, SegmentMap


def _ready(stamps):
    """Fold ``plan_read``'s resident stamps the executor's way: start
    from ``0.0`` and replace only on a strictly later time."""
    ready = 0.0
    for stamp in stamps:
        if stamp > ready:
            ready = stamp
    return ready


class TestSegmentMap:
    def test_virgin_read_is_free(self):
        seg = SegmentMap()
        stamps, copies = seg.plan_read(0, 100, "mem_a")
        assert _ready(stamps) == 0.0
        assert copies == []

    def test_virgin_read_materialises_locally(self):
        seg = SegmentMap()
        seg.plan_read(0, 100, "mem_a")
        # Second read of the same range in the same memory: still free.
        _stamps, copies = seg.plan_read(0, 100, "mem_a")
        assert copies == []

    def test_read_after_local_write_is_free(self):
        seg = SegmentMap()
        seg.write(0, 100, "mem_a", time=5.0)
        stamps, copies = seg.plan_read(0, 100, "mem_a")
        assert _ready(stamps) == 5.0
        assert copies == []

    def test_read_from_remote_requires_copy(self):
        seg = SegmentMap()
        seg.write(0, 100, "mem_a", time=5.0)
        _stamps, copies = seg.plan_read(0, 100, "mem_b")
        assert len(copies) == 1
        need = copies[0]
        assert (need.src_mem, need.lo, need.hi) == ("mem_a", 0, 100)
        assert need.src_time == 5.0

    def test_partial_overlap_copies_only_missing(self):
        seg = SegmentMap()
        seg.write(0, 50, "mem_a", time=1.0)
        seg.write(50, 100, "mem_b", time=2.0)
        stamps, copies = seg.plan_read(0, 100, "mem_b")
        assert _ready(stamps) == 2.0
        assert len(copies) == 1
        assert (copies[0].lo, copies[0].hi) == (0, 50)

    def test_cache_satisfies_later_reads(self):
        seg = SegmentMap()
        seg.write(0, 100, "mem_a", time=1.0)
        _, copies = seg.plan_read(0, 100, "mem_b")
        seg.commit_cache(0, 100, "mem_b", time=3.0)
        stamps, copies = seg.plan_read(0, 100, "mem_b")
        assert copies == []
        assert _ready(stamps) == 3.0

    def test_write_invalidates_caches(self):
        seg = SegmentMap()
        seg.write(0, 100, "mem_a", time=1.0)
        seg.commit_cache(0, 100, "mem_b", time=2.0)
        seg.write(0, 100, "mem_a", time=5.0)
        _, copies = seg.plan_read(0, 100, "mem_b")
        assert len(copies) == 1
        assert copies[0].src_time == 5.0

    def test_partial_write_splits_segments(self):
        seg = SegmentMap()
        seg.write(0, 100, "mem_a", time=1.0)
        seg.write(40, 60, "mem_b", time=2.0)
        _, copies = seg.plan_read(0, 100, "mem_a")
        # Only the middle was invalidated in mem_a.
        assert len(copies) == 1
        assert (copies[0].src_mem, copies[0].lo, copies[0].hi) == (
            "mem_b",
            40,
            60,
        )

    def test_footprint_counts_auth_and_caches(self):
        seg = SegmentMap()
        seg.write(0, 100, "mem_a", time=1.0)
        seg.commit_cache(0, 50, "mem_b", time=2.0)
        fp = seg.footprint()
        assert fp["mem_a"] == 100
        assert fp["mem_b"] == 50

    def test_empty_range_noop(self):
        seg = SegmentMap()
        seg.write(10, 10, "mem_a", time=1.0)
        assert seg.num_segments == 0
        stamps, copies = seg.plan_read(5, 5, "mem_a")
        assert (_ready(stamps), copies) == (0.0, [])

    # The bound walk's flow state is this map; these pin the behaviour
    # its copy set relies on.
    def test_virgin_reads_materialise_for_free(self):
        flow = SegmentMap()
        stamps, pieces = flow.plan_read(0, 100, "m0")
        assert (_ready(stamps), pieces) == (0.0, [])
        # The first reader's memory now owns the range (plan_read's
        # virgin-gap rule): a later reader elsewhere pays a real copy.
        _, pieces = flow.plan_read(0, 100, "m1")
        assert pieces == [("m0", 0, 100, 0.0)]

    def test_read_after_remote_write_moves_bytes(self):
        flow = SegmentMap()
        flow.write(0, 100, "m0", 2.0)
        stamps, pieces = flow.plan_read(0, 100, "m0")
        assert (_ready(stamps), pieces) == (2.0, [])
        _stamps, pieces = flow.plan_read(0, 100, "m1")
        assert pieces == [("m0", 0, 100, 2.0)]
        # The replica becomes cached only once its copy finishes.
        flow.commit_cache(0, 100, "m1", 5.0)
        stamps, pieces = flow.plan_read(0, 100, "m1")
        assert (_ready(stamps), pieces) == (5.0, [])

    def test_write_invalidates_replicas(self):
        flow = SegmentMap()
        flow.write(0, 100, "m0", 1.0)
        _, pieces = flow.plan_read(0, 100, "m1")
        flow.commit_cache(0, 100, "m1", 2.0)
        flow.write(0, 100, "m0", 3.0)
        _, pieces = flow.plan_read(0, 100, "m1")
        assert pieces == [("m0", 0, 100, 3.0)]

    def test_partial_overlap_splits_segments(self):
        flow = SegmentMap()
        flow.write(0, 100, "m0", 1.0)
        flow.write(50, 150, "m1", 2.0)
        _, pieces = flow.plan_read(0, 150, "m2")
        assert sorted(pieces) == [
            ("m0", 0, 50, 1.0),
            ("m1", 50, 150, 2.0),
        ]


class TestCoherenceState:
    def test_roots_independent(self):
        state = CoherenceState()
        state.root("r1").write(0, 10, "mem_a", 1.0)
        _, copies = state.root("r2").plan_read(0, 10, "mem_b")
        assert copies == []

    def test_total_footprint(self):
        state = CoherenceState()
        state.root("r1").write(0, 10, "mem_a", 1.0)
        state.root("r2").write(0, 20, "mem_a", 1.0)
        assert state.footprint() == {"mem_a": 30}
