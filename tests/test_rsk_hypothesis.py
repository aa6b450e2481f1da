"""Property test of row insertion and reverse bumping on long words.

rsk_inverse(rsk(w)) == w for words of up to 40 letters over up to 20,
whose rows are longer than any the theorem suite builds (it inserts words
of at most 9 letters).
"""

import pytest

from qcrystals.rsk import rsk, rsk_inverse

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

words = st.integers(1, 20).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=1, max_size=40).map(tuple))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(words)
def test_reverse_bumping_undoes_insertion(w):
    assert rsk_inverse(rsk(w)) == w
