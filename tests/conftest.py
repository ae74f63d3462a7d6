"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.machine import Machine, lassen, shepard, single_node
from repro.mapping import SearchSpace
from repro.runtime import SimConfig, Simulator
from repro.taskgraph import ArgSlot, GraphBuilder, Privilege, ShardPattern
from repro.util.rng import RngStream


@pytest.fixture
def mini_machine() -> Machine:
    """A small single-node machine (1 socket, 4 cores, 1 GPU)."""
    return single_node(cpus=4, gpus=1)


@pytest.fixture
def shepard1() -> Machine:
    return shepard(1)


@pytest.fixture
def shepard2() -> Machine:
    return shepard(2)


@pytest.fixture
def lassen1() -> Machine:
    return lassen(1)


def build_diamond_graph(iterations: int = 2, nbytes: int = 1 << 24):
    """A small produce/consume diamond used across tests.

    ``source`` writes a grid; ``left`` and ``right`` read disjoint halves
    (but halo-overlap each other); ``sink`` reads both outputs.
    """
    b = GraphBuilder("diamond")
    grid = b.collection("grid", nbytes=nbytes)
    left_out = b.collection("left_out", nbytes=nbytes // 2)
    right_out = b.collection("right_out", nbytes=nbytes // 2)
    acc = b.collection("acc", nbytes=1 << 12)

    source = b.task_kind(
        "source", slots=[ArgSlot("grid", Privilege.WRITE)]
    )
    left = b.task_kind(
        "left",
        slots=[
            ArgSlot(
                "grid",
                Privilege.READ,
                ShardPattern.BLOCK_HALO,
                halo_bytes=nbytes // 64,
            ),
            ArgSlot("out", Privilege.WRITE),
        ],
    )
    right = b.task_kind(
        "right",
        slots=[
            ArgSlot(
                "grid",
                Privilege.READ,
                ShardPattern.BLOCK_HALO,
                halo_bytes=nbytes // 64,
            ),
            ArgSlot("out", Privilege.WRITE),
        ],
    )
    sink = b.task_kind(
        "sink",
        slots=[
            ArgSlot("a", Privilege.READ),
            ArgSlot("b", Privilege.READ),
            ArgSlot("acc", Privilege.READ_WRITE),
        ],
    )
    for _ in range(iterations):
        b.launch(source, [grid], size=4, flops=2e8)
        b.launch(left, [grid, left_out], size=4, flops=4e8)
        b.launch(right, [grid, right_out], size=4, flops=4e8)
        b.launch(sink, [left_out, right_out, acc], size=1, flops=1e7)
    return b.build()


def build_mixed_shape_graph(nbytes: int = 1 << 22):
    """A graph whose same-kind launches differ in shape.

    ``produce`` writes two different collections of the ``field`` root,
    at two sizes and two flop counts; each of its launches differs from
    the first in exactly one of those.  ``consume`` reads the whole
    field back through a halo and accumulates into ``out``.  Every
    bundled app launches a kind over identical arguments, so this is the
    input that catches a launch-shape key which shares too much.
    """
    b = GraphBuilder("mixed-shapes")
    low = b.collection("field_lo", nbytes=nbytes // 2, root="field")
    high = b.collection(
        "field_hi", nbytes=nbytes // 2, root="field", offset=nbytes // 2
    )
    whole = b.collection("field_all", nbytes=nbytes, root="field")
    out = b.collection("out", nbytes=nbytes // 4)
    produce = b.task_kind("produce", slots=[ArgSlot("dst", Privilege.WRITE)])
    consume = b.task_kind(
        "consume",
        slots=[
            ArgSlot(
                "src",
                Privilege.READ,
                ShardPattern.BLOCK_HALO,
                halo_bytes=nbytes // 64,
            ),
            ArgSlot("out", Privilege.READ_WRITE),
        ],
    )
    for _ in range(2):
        b.launch(produce, [low], size=4, flops=1e8)
        b.launch(produce, [high], size=4, flops=1e8)
        b.launch(produce, [low], size=8, flops=1e8)
        b.launch(produce, [low], size=4, flops=3e8)
        b.launch(consume, [whole, out], size=8, flops=2e8)
    return b.build()


@pytest.fixture
def diamond_graph():
    return build_diamond_graph()


@pytest.fixture
def diamond_space(diamond_graph, mini_machine) -> SearchSpace:
    return SearchSpace(diamond_graph, mini_machine)


@pytest.fixture
def diamond_sim(diamond_graph, mini_machine) -> Simulator:
    return Simulator(
        diamond_graph, mini_machine, SimConfig(noise_sigma=0.03, seed=7)
    )


@pytest.fixture
def rng() -> RngStream:
    return RngStream(1234)
