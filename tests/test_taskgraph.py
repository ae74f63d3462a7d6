"""Unit tests for collections, tasks, the graph, and the builder."""

import pytest

from repro.machine.kinds import ProcKind
from repro.taskgraph import (
    ArgSlot,
    Collection,
    GraphBuilder,
    Privilege,
    ShardPattern,
    TaskGraph,
    TaskKind,
    TaskLaunch,
    overlap_bytes,
)
from repro.taskgraph.graph import Dependence


class TestCollection:
    def test_self_overlap(self):
        c = Collection("a", nbytes=100)
        assert overlap_bytes(c, c) == 100

    def test_disjoint_roots_never_overlap(self):
        a = Collection("a", nbytes=100)
        b = Collection("b", nbytes=100)
        assert overlap_bytes(a, b) == 0

    def test_interval_overlap(self):
        a = Collection("a", nbytes=100, root="r", offset=0)
        b = Collection("b", nbytes=100, root="r", offset=60)
        assert overlap_bytes(a, b) == 40

    def test_adjacent_do_not_overlap(self):
        a = Collection("a", nbytes=50, root="r", offset=0)
        b = Collection("b", nbytes=50, root="r", offset=50)
        assert overlap_bytes(a, b) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Collection("a", nbytes=-1)


class TestArgSlot:
    def test_halo_pattern_requires_width(self):
        with pytest.raises(ValueError):
            ArgSlot("g", Privilege.READ, ShardPattern.BLOCK_HALO)

    def test_replicated_flag(self):
        slot = ArgSlot("t", Privilege.READ, ShardPattern.REPLICATED)
        assert slot.replicated


class TestShardIntervals:
    @pytest.fixture
    def launch(self):
        coll = Collection("grid", nbytes=1000)
        kind = TaskKind(
            "k",
            slots=(
                ArgSlot("block", Privilege.READ),
                ArgSlot(
                    "halo", Privilege.READ, ShardPattern.BLOCK_HALO, 50
                ),
                ArgSlot(
                    "ghost_lo", Privilege.READ, ShardPattern.STRIP_LO_OUT, 50
                ),
                ArgSlot(
                    "bound_hi", Privilege.WRITE, ShardPattern.STRIP_HI_IN, 50
                ),
                ArgSlot("all", Privilege.READ, ShardPattern.REPLICATED),
            ),
        )
        return TaskLaunch(
            uid="k#0", kind=kind, args=(coll,) * 5, size=4, flops=1.0
        )

    def test_block_partitions_evenly(self, launch):
        intervals = [launch.shard_interval(0, p) for p in range(4)]
        assert intervals == [(0, 250), (250, 500), (500, 750), (750, 1000)]

    def test_block_halo_widens_reads(self, launch):
        assert launch.shard_interval(1, 1) == (200, 550)

    def test_block_halo_clamps_at_boundary(self, launch):
        assert launch.shard_interval(1, 0) == (0, 300)

    def test_block_halo_write_is_exact_share(self, launch):
        assert launch.shard_interval(1, 1, for_write=True) == (250, 500)

    def test_strip_lo_out_is_neighbor_edge(self, launch):
        assert launch.shard_interval(2, 1) == (200, 250)

    def test_strip_lo_out_empty_at_boundary(self, launch):
        lo, hi = launch.shard_interval(2, 0)
        assert hi - lo == 0

    def test_strip_hi_in_inside_share(self, launch):
        assert launch.shard_interval(3, 1) == (450, 500)

    def test_replicated_full(self, launch):
        assert launch.shard_interval(4, 2) == (0, 1000)

    def test_neighbor_halo_covers_strip(self, launch):
        """Point 1's lo-out ghost equals point 0's hi-in strip — the halo
        exchange identity the stencil apps rely on."""
        ghost = launch.shard_interval(2, 1)
        bound = launch.shard_interval(3, 0)
        assert ghost == bound


class TestTaskKind:
    def test_duplicate_slot_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskKind(
                "k",
                slots=(ArgSlot("a"), ArgSlot("a")),
            )

    def test_needs_variant(self):
        with pytest.raises(ValueError):
            TaskKind("k", slots=(ArgSlot("a"),), variants=frozenset())

    def test_has_variant(self):
        kind = TaskKind(
            "k", slots=(ArgSlot("a"),), variants=frozenset({ProcKind.CPU})
        )
        assert kind.has_variant(ProcKind.CPU)
        assert not kind.has_variant(ProcKind.GPU)


class TestBuilderDependences:
    def test_raw_dependence(self):
        b = GraphBuilder("g")
        c = b.collection("c", nbytes=100)
        w = b.task_kind("w", slots=[("c", Privilege.WRITE)])
        r = b.task_kind("r", slots=[("c", Privilege.READ)])
        lw = b.launch(w, [c])
        lr = b.launch(r, [c])
        g = b.build()
        assert any(
            d.src == lw.uid and d.dst == lr.uid for d in g.dependences
        )

    def test_no_war_by_default(self):
        b = GraphBuilder("g")
        c = b.collection("c", nbytes=100)
        r = b.task_kind("r", slots=[("c", Privilege.READ)])
        w = b.task_kind("w", slots=[("c", Privilege.WRITE)])
        b.launch(r, [c])
        lw = b.launch(w, [c])
        g = b.build()
        assert not g.predecessors(lw.uid)

    def test_war_when_enabled(self):
        b = GraphBuilder("g", anti_dependences=True)
        c = b.collection("c", nbytes=100)
        r = b.task_kind("r", slots=[("c", Privilege.READ)])
        w = b.task_kind("w", slots=[("c", Privilege.WRITE)])
        lr = b.launch(r, [c])
        lw = b.launch(w, [c])
        g = b.build()
        assert any(
            d.src == lr.uid and d.dst == lw.uid for d in g.dependences
        )

    def test_waw_dependence(self):
        b = GraphBuilder("g")
        c = b.collection("c", nbytes=100)
        w = b.task_kind("w", slots=[("c", Privilege.WRITE)])
        l1 = b.launch(w, [c])
        l2 = b.launch(w, [c])
        g = b.build()
        assert any(
            d.src == l1.uid and d.dst == l2.uid for d in g.dependences
        )

    def test_overlap_induces_dependence(self):
        b = GraphBuilder("g")
        left = b.collection("left", nbytes=60, root="r", offset=0)
        right = b.collection("right", nbytes=60, root="r", offset=40)
        w = b.task_kind("w", slots=[("c", Privilege.WRITE)])
        r = b.task_kind("r", slots=[("c", Privilege.READ)])
        lw = b.launch(w, [left])
        lr = b.launch(r, [right])
        g = b.build()
        assert any(
            d.src == lw.uid and d.dst == lr.uid for d in g.dependences
        )

    def test_disjoint_no_dependence(self):
        b = GraphBuilder("g")
        left = b.collection("left", nbytes=50, root="r", offset=0)
        right = b.collection("right", nbytes=50, root="r", offset=50)
        w = b.task_kind("w", slots=[("c", Privilege.WRITE)])
        r = b.task_kind("r", slots=[("c", Privilege.READ)])
        b.launch(w, [left])
        lr = b.launch(r, [right])
        g = b.build()
        assert not g.predecessors(lr.uid)

    def test_partition_with_halo_overlaps(self):
        b = GraphBuilder("g")
        parts = b.partition("root", nbytes=1000, parts=4, halo_bytes=20)
        assert overlap_bytes(parts[0], parts[1]) == 40

    def test_unknown_collection_rejected(self):
        b = GraphBuilder("g")
        k = b.task_kind("k", slots=[("c", Privilege.READ)])
        stray = Collection("stray", nbytes=10)
        with pytest.raises(ValueError, match="unknown collection"):
            b.launch(k, [stray])

    def test_redeclaration_conflict_rejected(self):
        b = GraphBuilder("g")
        b.collection("c", nbytes=10)
        with pytest.raises(ValueError, match="re-declared"):
            b.collection("c", nbytes=20)


class TestTaskGraph:
    def test_cycle_rejected(self):
        coll = Collection("c", nbytes=10)
        kind = TaskKind("k", slots=(ArgSlot("c", Privilege.READ_WRITE),))
        l1 = TaskLaunch(uid="a", kind=kind, args=(coll,), sequence=0)
        l2 = TaskLaunch(uid="b", kind=kind, args=(coll,), sequence=1)
        deps = [
            Dependence("a", "b", "c", "c"),
            Dependence("b", "a", "c", "c"),
        ]
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph("g", [l1, l2], deps)

    def test_topological_order_respects_deps(self, diamond_graph):
        order = [t.uid for t in diamond_graph.topological_order()]
        for dep in diamond_graph.dependences:
            assert order.index(dep.src) < order.index(dep.dst)

    def test_collection_argument_count(self, diamond_graph):
        # source(1) + left(2) + right(2) + sink(3) slots
        assert diamond_graph.num_collection_arguments() == 8

    def test_kind_flops_totals(self, diamond_graph):
        flops = diamond_graph.kind_flops()
        assert flops["left"] == pytest.approx(2 * 4e8)

    def test_critical_path_positive(self, diamond_graph):
        assert diamond_graph.critical_path_flops() > 0

    def test_describe(self, diamond_graph):
        text = diamond_graph.describe()
        assert "sink" in text and "launches" in text


class TestLaunchShapes:
    """Shape ids key every per-(launch, decision) cache: identical
    launches must share one, and any difference in what per-decision
    work reads must split them."""

    def _pair_ids(self, change: str):
        """Shape ids of two launches that differ in uid, sequence and
        the named attribute."""
        b = GraphBuilder("shapes")
        field = b.collection("field", nbytes=1 << 12)
        slots = [("data", Privilege.READ_WRITE)]
        base = {
            "kind": b.task_kind("k", slots=slots),
            "args": [field],
            "size": 4,
            "flops": 1e6,
        }
        overrides = {
            "nothing": {},
            "kind": {"kind": b.task_kind("twin", slots=slots)},
            "size": {"size": 8},
            "flops": {"flops": 2e6},
            # Same interval under another root, and vice versa.
            "root": {
                "args": [
                    b.collection("other", nbytes=1 << 12, root="elsewhere")
                ]
            },
            "interval": {
                "args": [
                    b.collection(
                        "half", nbytes=1 << 11, root="field", offset=1 << 11
                    )
                ]
            },
        }
        first = b.launch(**base)
        second = b.launch(**{**base, **overrides[change]})
        ids = b.build().shape_ids()
        return ids[first.uid], ids[second.uid]

    def test_uid_and_sequence_do_not_split(self):
        first, second = self._pair_ids("nothing")
        assert first == second

    @pytest.mark.parametrize(
        "change", ["kind", "size", "flops", "root", "interval"]
    )
    def test_any_read_attribute_splits(self, change):
        first, second = self._pair_ids(change)
        assert first != second

    def test_ids_are_dense_in_program_order(self):
        b = GraphBuilder("dense")
        coll = b.collection("c", nbytes=64)
        kind = b.task_kind("k", slots=[("c", Privilege.READ_WRITE)])
        launches = [
            b.launch(kind, [coll], size=size) for size in (2, 1, 2, 3, 1)
        ]
        ids = b.build().shape_ids()
        assert [ids[launch.uid] for launch in launches] == [0, 1, 0, 2, 1]
