"""Property tests for the lazy best-bound-first settle order.

``best_bound_first`` keys each pruned candidate by its quick bound and
prices the full bound only when the candidate reaches the front.  The
eager stable sort by full bound below is the reference it must match
exactly: ties keep pruning order, unboundable entries come first.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.oracle import best_bound_first

#: Few distinct values, so ties and repeats are common.
values_st = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])

#: One ledger entry: ``None`` (no sound bound) or ``(quick, full)``
#: with ``quick <= full``.
entry_st = st.one_of(
    st.none(),
    st.tuples(values_st, values_st).map(lambda t: (min(t), max(t))),
)

ledgers_st = st.lists(entry_st, max_size=24)


def eager_order(ledger):
    """The reference: stable sort by full bound, unboundable first."""
    return sorted(
        range(len(ledger)),
        key=lambda i: -math.inf if ledger[i] is None else ledger[i][1],
    )


def lazy_order(ledger, cutoff=lambda: math.inf, refined=None):
    def quick(i):
        return None if ledger[i] is None else ledger[i][0]

    def full(i):
        if refined is not None:
            refined.append(i)
        return ledger[i][1]

    return best_bound_first(range(len(ledger)), quick, full, cutoff)


def full_key(entry):
    return -math.inf if entry is None else entry[1]


@given(ledgers_st)
def test_pop_order_matches_eager_stable_sort(ledger):
    refined = []
    assert list(lazy_order(ledger, refined=refined)) == eager_order(ledger)
    # Each boundable entry is refined exactly once; None never is.
    assert sorted(refined) == [
        i for i, entry in enumerate(ledger) if entry is not None
    ]


@given(ledgers_st, values_st)
def test_fixed_cutoff_yields_eager_prefix_and_skips_walks(ledger, cutoff):
    refined = []
    got = list(lazy_order(ledger, lambda: cutoff, refined))
    expected = [i for i in eager_order(ledger) if full_key(ledger[i]) <= cutoff]
    assert got == expected
    # Entries whose quick bound is already past the cutoff never walk.
    assert all(ledger[i][0] <= cutoff for i in refined)


@given(ledgers_st, st.lists(values_st, min_size=1, max_size=24))
def test_tightening_cutoff_matches_settle_loop(ledger, drops):
    """The settle loop's threshold only tightens as candidates settle:
    the lazy order stops exactly where the eager loop would break."""
    cutoffs = sorted(drops, reverse=True)
    taken = []

    def cutoff():
        return cutoffs[min(len(taken), len(cutoffs) - 1)]

    for i in lazy_order(ledger, cutoff):
        taken.append(i)

    expected = []
    for i in eager_order(ledger):
        if full_key(ledger[i]) > cutoffs[min(len(expected), len(cutoffs) - 1)]:
            break
        expected.append(i)
    assert taken == expected
