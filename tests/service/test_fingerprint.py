"""The cache-key contract: canonically-equivalent workloads hash to the
same fingerprint, inequivalent ones do not."""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Canonicalizer
from repro.analysis.symmetry import MachineSymmetry
from repro.machine import shepard, single_node
from repro.mapping import SearchSpace
from repro.mapping.io import mapping_to_doc
from repro.service.fingerprint import (
    spec_fingerprint,
    workload_fingerprint,
)
from repro.service.spec import JobSpec
from repro.taskgraph import ArgSlot, GraphBuilder, Privilege
from repro.util.rng import RngStream


def _graph(kinds: int = 2, name: str = "fp"):
    b = GraphBuilder(name)
    data = b.collection("data", nbytes=1 << 20)
    for i in range(kinds):
        kind = b.task_kind(
            f"k{i}", slots=[ArgSlot("d", Privilege.READ_WRITE)]
        )
        b.launch(kind, [data], size=4, flops=1e6)
    return b.build()


_CONFIG = {"algorithm": "ccd", "seed": 0, "max_suggestions": 100}


class TestStartMappingEquivalence:
    """Equivalent start mappings — same fingerprint."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_canonical_fold_collapses_fingerprint(self, seed):
        """A start mapping and its canonicalized form (dead distribute
        bits and dead memory coordinates folded) are one workload."""
        graph, machine = _graph(), shepard(2)
        mapping = SearchSpace(graph, machine).random_mapping(
            RngStream(seed)
        )
        folded = Canonicalizer(graph, machine).canonical(mapping)
        fps = {
            workload_fingerprint(
                graph, machine, _CONFIG, mapping_to_doc(m)
            )
            for m in (mapping, folded)
        }
        assert len(fps) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_machine_relabeling_collapses_fingerprint(self, seed):
        """Relabeling kinds across a verified machine automorphism
        cannot split the cache."""
        graph, machine = _graph(), shepard(2)
        mapping = SearchSpace(graph, machine).random_mapping(
            RngStream(seed)
        )
        base = workload_fingerprint(
            graph, machine, _CONFIG, mapping_to_doc(mapping)
        )
        for rel in MachineSymmetry(graph, machine).automorphisms():
            relabeled = rel.apply(mapping)
            assert (
                workload_fingerprint(
                    graph, machine, _CONFIG, mapping_to_doc(relabeled)
                )
                == base
            )

    def test_dead_distribute_bit_folded(self):
        """On a single node every distribute bit is provably dead:
        flipping one must not change the fingerprint."""
        graph, machine = _graph(), single_node(cpus=4, gpus=1)
        mapping = SearchSpace(graph, machine).default_mapping()
        doc = mapping_to_doc(mapping)
        flipped = json.loads(json.dumps(doc))
        flipped["k0"]["distribute"] = not flipped["k0"]["distribute"]
        assert workload_fingerprint(
            graph, machine, _CONFIG, doc
        ) == workload_fingerprint(graph, machine, _CONFIG, flipped)

    def test_live_decision_changes_fingerprint(self):
        """A semantically different start (different processor kind)
        is a different workload."""
        graph, machine = _graph(), shepard(2)
        space = SearchSpace(graph, machine)
        docs = [
            mapping_to_doc(
                space.default_mapping().with_proc("k0", proc)
            )
            for proc in space.searched_proc_options("k0")
        ]
        fps = {
            workload_fingerprint(graph, machine, _CONFIG, d)
            for d in docs
        }
        assert len(fps) == len(docs)


class TestSubmissionNormalization:
    """Textual differences in the submitted document never split the
    cache; semantic differences always do."""

    def test_reordered_keys_and_explicit_defaults_hash_equal(self):
        terse = {"app": "stencil", "machine": "shepard"}
        explicit = JobSpec.from_doc(terse).to_doc()
        shuffled_items = list(explicit.items())
        random.Random(7).shuffle(shuffled_items)
        shuffled = dict(shuffled_items)
        fps = {
            spec_fingerprint(JobSpec.from_doc(d))
            for d in (terse, explicit, shuffled)
        }
        assert len(fps) == 1

    def test_execution_knobs_do_not_enter_fingerprint(self):
        base = JobSpec(app="stencil")
        for changes in (
            {"incremental": False},
            {"checkpoint_every": 1},
        ):
            assert spec_fingerprint(
                base.with_(**changes)
            ) == spec_fingerprint(base)

    def test_semantic_knobs_enter_fingerprint(self):
        base = JobSpec(app="stencil")
        for changes in (
            {"seed": 1},
            {"algorithm": "random"},
            {"max_suggestions": 99},
            {"noise_sigma": 0.1},
            {"spill": False},
            {"static_prune": False},
            {"bound_prune": False},
            {"machine": "lassen"},
            {"nodes": 2},
            {"input": "500x500"},
        ):
            assert spec_fingerprint(
                base.with_(**changes)
            ) != spec_fingerprint(base)

    def test_different_graphs_hash_differently(self):
        machine = shepard(1)
        fps = {
            workload_fingerprint(_graph(kinds=k), machine, _CONFIG)
            for k in (1, 2, 3)
        }
        assert len(fps) == 3

    def test_fingerprint_is_stable_across_calls(self):
        spec = JobSpec(app="stencil", input="500x500")
        assert spec_fingerprint(spec) == spec_fingerprint(spec)
