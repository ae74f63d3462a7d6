"""Property-based tests on mappings and the search-space codec."""

from hypothesis import given
from hypothesis import strategies as st

from repro.machine import single_node
from repro.machine.kinds import MemKind, ProcKind
from repro.mapping import Mapping, MappingDecision, SearchSpace, is_valid
from repro.taskgraph import GraphBuilder, Privilege
from repro.util.rng import RngStream

_MACHINE = single_node(cpus=4, gpus=1)


def _graph():
    b = GraphBuilder("prop")
    c1 = b.collection("c1", nbytes=1 << 20)
    c2 = b.collection("c2", nbytes=1 << 18)
    k1 = b.task_kind(
        "k1", slots=[("a", Privilege.READ_WRITE), ("b", Privilege.READ)]
    )
    k2 = b.task_kind("k2", slots=[("a", Privilege.READ)])
    b.launch(k1, [c1, c2], size=2, flops=1e6)
    b.launch(k2, [c1], size=2, flops=1e6)
    return b.build()


_GRAPH = _graph()
_SPACE = SearchSpace(_GRAPH, _MACHINE)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_mappings_always_valid(seed):
    mapping = _SPACE.random_mapping(RngStream(seed))
    assert is_valid(_GRAPH, _MACHINE, mapping)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_encode_decode_roundtrip(seed):
    mapping = _SPACE.random_mapping(RngStream(seed))
    assert _SPACE.decode(_SPACE.encode(mapping)) == mapping


_VECTOR_LEN = len(_SPACE.vector_dims())


@given(
    st.lists(
        st.integers(min_value=0, max_value=1000),
        min_size=_VECTOR_LEN,
        max_size=_VECTOR_LEN,
    )
)
def test_decode_total(vector):
    """Any integer vector decodes into a structurally complete mapping."""
    mapping = _SPACE.decode(vector)
    assert set(mapping.kind_names()) == {"k1", "k2"}
    for name in mapping.kind_names():
        decision = mapping.decision(name)
        assert decision.num_slots == _GRAPH.kind(name).num_slots


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(list(MemKind)),
    st.integers(min_value=0, max_value=1),
)
def test_functional_update_changes_only_target(seed, mem, slot):
    mapping = _SPACE.random_mapping(RngStream(seed))
    new = mapping.with_mem("k1", slot, mem)
    assert new.decision("k2") == mapping.decision("k2")
    assert new.decision("k1").mem_kinds[slot] is mem


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mapping_key_is_identity(seed):
    a = _SPACE.random_mapping(RngStream(seed))
    b = _SPACE.random_mapping(RngStream(seed))
    assert a == b and a.key() == b.key() and hash(a) == hash(b)


def _update_graph():
    """Kinds declared out of name order, so insertion order and the
    sorted kind order differ."""
    b = GraphBuilder("updates")
    c1 = b.collection("c1", nbytes=1 << 20)
    c2 = b.collection("c2", nbytes=1 << 18)
    zeta = b.task_kind(
        "zeta", slots=[("a", Privilege.READ_WRITE), ("b", Privilege.READ)]
    )
    alpha = b.task_kind("alpha", slots=[("a", Privilege.READ)])
    mid = b.task_kind(
        "mid",
        slots=[("a", Privilege.READ), ("b", Privilege.READ), ("c", Privilege.READ)],
    )
    b.launch(zeta, [c1, c2], size=2, flops=1e6)
    b.launch(alpha, [c1], size=2, flops=1e6)
    b.launch(mid, [c1, c2, c1], size=2, flops=1e6)
    return b.build()


_UPDATE_SPACE = SearchSpace(_update_graph(), _MACHINE)
_UPDATE_KINDS = sorted(_UPDATE_SPACE.kind_names())


@st.composite
def _decisions(draw, kind_name):
    dims = _UPDATE_SPACE.dims(kind_name)
    return MappingDecision(
        distribute=draw(st.booleans()),
        proc_kind=draw(st.sampled_from(list(ProcKind))),
        mem_kinds=tuple(
            draw(st.sampled_from(list(MemKind))) for _ in range(dims.num_slots)
        ),
    )


@st.composite
def _updates(draw):
    """One ``with_*`` update as (method name, positional arguments)."""
    op = draw(st.sampled_from(["distribute", "proc", "mem", "decision", "many"]))
    kind = draw(st.sampled_from(_UPDATE_KINDS))
    if op == "distribute":
        return "with_distribute", (kind, draw(st.booleans()))
    if op == "proc":
        return "with_proc", (kind, draw(st.sampled_from(list(ProcKind))))
    if op == "mem":
        slot = draw(st.integers(0, _UPDATE_SPACE.dims(kind).num_slots - 1))
        return "with_mem", (kind, slot, draw(st.sampled_from(list(MemKind))))
    if op == "decision":
        return "with_decision", (kind, draw(_decisions(kind)))
    kinds = draw(st.lists(st.sampled_from(_UPDATE_KINDS), unique=True))
    return "with_decisions", ({k: draw(_decisions(k)) for k in kinds},)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    updates=st.lists(_updates(), max_size=12),
)
def test_derived_mapping_matches_fresh_build(seed, updates):
    """A mapping derived through any chain of updates shares its parent's
    kind order and patches its key, and must be indistinguishable from
    the same decisions built fresh — the key reaches every report."""
    start = _UPDATE_SPACE.random_mapping(RngStream(seed), valid=False)
    start_key = start.key()
    mapping = start
    for method, args in updates:
        mapping = getattr(mapping, method)(*args)
        fresh = Mapping({name: mapping.decision(name) for name in _UPDATE_KINDS})
        assert mapping.key() == fresh.key()
        assert hash(mapping) == hash(fresh)
        assert mapping == fresh
        assert mapping.kind_names() == fresh.kind_names() == tuple(_UPDATE_KINDS)
        assert list(mapping) == list(fresh)
        assert list(mapping.items()) == list(fresh.items())
    assert start.key() == start_key
