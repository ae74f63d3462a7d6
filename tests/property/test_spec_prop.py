"""``JobSpec.from_doc`` over arbitrary JSON field values.

A submitted document either parses or is refused with ``ValueError``
(the service's 400) — never another exception, and never by coercing a
value of the wrong JSON type.  Whatever parses survives a round trip
through its normalized document unchanged.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.spec import EXECUTION_FIELDS, SEMANTIC_FIELDS, JobSpec

INT_FIELDS = ("nodes", "seed", "max_suggestions", "checkpoint_every")
FLAG_FIELDS = ("spill", "static_prune", "bound_prune", "incremental")


def _containers(children):
    lists = st.lists(children, max_size=3)
    return lists | st.dictionaries(st.text(max_size=5), children, max_size=3)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
json_values = st.recursive(scalars, _containers, max_leaves=6)
#: Values a valid document might carry, so that many examples parse.
WORDS = ["stencil", "circuit", "shepard", "lassen", "ccd", "cd", "500x500"]
plausible = st.one_of(st.sampled_from(WORDS), st.integers(0, 30), st.floats(0.0, 1.0))
FIELDS = SEMANTIC_FIELDS + EXECUTION_FIELDS + ("format",)
fields = st.dictionaries(st.sampled_from(FIELDS), json_values | plausible, max_size=5)
docs = fields.map(lambda doc: {"app": "stencil", **doc})


@given(docs)
@settings(max_examples=300, deadline=None)
def test_from_doc_parses_or_refuses(doc):
    try:
        spec = JobSpec.from_doc(doc)
    except ValueError:
        return
    for name in INT_FIELDS:
        if name in doc:
            assert type(doc[name]) is int and getattr(spec, name) == doc[name]
    for name in FLAG_FIELDS:
        if name in doc:
            assert type(doc[name]) is bool and getattr(spec, name) is doc[name]
    if "noise_sigma" in doc:
        assert type(doc["noise_sigma"]) in (int, float)
    assert JobSpec.from_doc(spec.to_doc()) == spec
