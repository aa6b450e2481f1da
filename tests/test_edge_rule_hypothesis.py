"""Property test of the standardization edge rule behind descent_classes.

For a word w and a letter i with f_i(w) defined, f_i keeps the
standardization of w exactly when no i+1 comes before the last i of w;
descent_classes must keep the edge w -i-> f_i(w) internal in exactly those
cases.
"""

import pytest

from qcrystals.crystal import f_word
from qcrystals.decomposition import descent_classes
from qcrystals.tableaux import standardize_word

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

words = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=12).map(tuple)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(words)
def test_internal_iff_standardization_is_kept(case):
    n, w = case
    for i in range(1, n):
        v = f_word(w, i)
        if v is None:
            continue
        _, _, internal, _ = descent_classes([w, v], [(0, 1, i)])
        assert bool(internal) == (standardize_word(v) == standardize_word(w))
