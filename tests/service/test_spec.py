"""JobSpec validation, normalization, and materialisation."""

from __future__ import annotations

import pytest

from repro.service.spec import (
    EXECUTION_FIELDS,
    MAX_NODES,
    MAX_SUGGESTIONS,
    SEMANTIC_FIELDS,
    JobSpec,
)


class TestValidation:
    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            JobSpec(app="nope")

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            JobSpec(app="stencil", machine="nope")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown search algorithm"):
            JobSpec(app="stencil", algorithm="nope")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("nodes", 0),
            ("max_suggestions", 0),
            ("noise_sigma", -0.1),
            ("checkpoint_every", -1),
        ],
    )
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            JobSpec(app="stencil", **{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("spill", "false"),
            ("bound_prune", "false"),
            ("incremental", 0),
            ("nodes", 2.5),
            ("nodes", True),
            ("seed", 1.5),
            ("max_suggestions", "10"),
            ("noise_sigma", "0.04"),
            ("noise_sigma", False),
        ],
    )
    def test_doc_fields_keep_their_json_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            JobSpec.from_doc({"app": "stencil", field: value})

    def test_node_count_is_bounded(self):
        spec = JobSpec.from_doc({"app": "stencil", "nodes": MAX_NODES})
        assert spec.nodes == MAX_NODES
        with pytest.raises(ValueError, match="nodes"):
            JobSpec.from_doc({"app": "stencil", "nodes": MAX_NODES + 1})

    def test_workers_field_is_refused(self):
        """Every tune runs in one process: a document carrying the
        former ``workers`` knob, even at its old default, is refused
        like any other unknown field."""
        for value in (1, 2):
            with pytest.raises(ValueError, match=r"unknown job-spec field.*workers"):
                JobSpec.from_doc({"app": "stencil", "workers": value})

    @pytest.mark.parametrize("field", ["max_suggestions", "checkpoint_every"])
    def test_budget_and_checkpoint_interval_are_bounded(self, field):
        spec = JobSpec.from_doc({"app": "stencil", field: MAX_SUGGESTIONS})
        assert getattr(spec, field) == MAX_SUGGESTIONS
        with pytest.raises(ValueError, match=field):
            JobSpec.from_doc({"app": "stencil", field: MAX_SUGGESTIONS + 1})

    def test_unknown_doc_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job-spec field"):
            JobSpec.from_doc({"app": "stencil", "bogus": 1})

    def test_missing_app_rejected(self):
        with pytest.raises(ValueError, match="requires an 'app'"):
            JobSpec.from_doc({"machine": "shepard"})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_doc([1, 2])

    def test_wrong_format_marker_rejected(self):
        with pytest.raises(ValueError, match="unsupported job-spec"):
            JobSpec.from_doc({"app": "stencil", "format": "v999"})


class TestRoundtrip:
    def test_doc_roundtrip_is_identity(self):
        spec = JobSpec(
            app="stencil",
            input="500x500",
            machine="lassen",
            nodes=2,
            algorithm="cd",
            seed=7,
            max_suggestions=123,
            incremental=False,
        )
        assert JobSpec.from_doc(spec.to_doc()) == spec

    def test_doc_is_fully_explicit(self):
        doc = JobSpec(app="stencil").to_doc()
        for name in SEMANTIC_FIELDS + EXECUTION_FIELDS:
            assert name in doc

    def test_field_partition_is_total(self):
        """Every spec field is classified semantic or execution —
        an unclassified field could silently poison the cache."""
        import dataclasses

        names = {f.name for f in dataclasses.fields(JobSpec)}
        assert names == set(SEMANTIC_FIELDS) | set(EXECUTION_FIELDS)


class TestBuild:
    def test_build_materialises_graph_machine_space(self):
        app, graph, machine, space = JobSpec(
            app="stencil", input="500x500"
        ).build()
        assert graph.launches
        assert machine.name.startswith("shepard")
        assert space.kind_names()

    def test_build_rejects_bad_input_label(self):
        with pytest.raises(ValueError):
            JobSpec(app="stencil", input="garbage").build()

    def test_build_rejects_bad_gen_params(self):
        with pytest.raises(ValueError):
            JobSpec(app="stencil", gen_params={"bogus_knob": 3}).build()

    def test_build_rejects_graph_without_launches(self):
        """Zero iterations leave the circuit graph empty; no mapping can
        cover it, so the spec fails to build instead of queueing a job
        that can only fail."""
        spec = JobSpec(app="circuit", gen_params={"iterations": 0})
        with pytest.raises(ValueError, match="launches no tasks"):
            spec.build()

    def test_label_mentions_app_and_machine(self):
        label = JobSpec(app="stencil", machine="lassen").label()
        assert "stencil" in label and "lassen" in label
