"""descent_classes on malformed graphs against an oracle built on networkx.

A real crystal gives every descent class exactly one source, so its classes
never show how descent_classes words a class with several. Here the words
and the sorted edges (u < v in each) are drawn at random. The oracle tests
the edge rule on the word itself, takes the weakly connected components of
the internal edges with networkx and counts, in each, the vertices no
internal edge enters; it shares no traversal with the function under test.
"""

import random
from collections import Counter

import pytest

from qcrystals.decomposition import descent_classes
from qcrystals.errors import InternalError
from qcrystals.tableaux import descent_composition

nx = pytest.importorskip("networkx")


def _crosses(w, i) -> bool:
    """Whether some i+1 comes before some i in w."""
    return i + 1 in w and i in w[w.index(i + 1):]


def oracle(words, edges):
    internal = [(u, v, i) for u, v, i in edges if not _crosses(words[u], i)]
    g = nx.DiGraph()
    g.add_nodes_from(range(len(words)))
    g.add_edges_from((u, v) for u, v, _ in internal)
    classes = sorted(sorted(c) for c in nx.weakly_connected_components(g))
    for members in classes:
        sources = [v for v in members if g.in_degree(v) == 0]
        if len(sources) > 1:
            alpha = descent_composition((words[members[0]],))
            return f"descent class {alpha} has {len(sources)} sources"
    class_of = [0] * len(words)
    for k, members in enumerate(classes):
        for v in members:
            class_of[v] = k
    return classes, class_of, internal, [members[0] for members in classes]


def _malformed_graph(rng):
    """Random words over a few letters and random sorted edges u -i-> v, u < v."""
    n = rng.randint(1, 10)
    letters = rng.randint(1, 3)
    words = [tuple(rng.randint(1, letters) for _ in range(rng.randint(1, 4)))
             for _ in range(n)]
    edges = {(*sorted(rng.sample(range(n), 2)), rng.randint(1, letters))
             for _ in range(rng.randint(0, 2 * n)) if n > 1}
    return words, sorted(edges)


def _outcome(words, edges):
    try:
        return descent_classes(words, edges)
    except InternalError as exc:
        return str(exc)


def test_descent_classes_agree_with_the_component_oracle():
    rng = random.Random(25)
    kinds = Counter()
    for _ in range(6_000):
        words, edges = _malformed_graph(rng)
        expected = oracle(words, edges)
        assert _outcome(words, edges) == expected, (words, edges)
        kinds[isinstance(expected, str)] += 1
    # both outcomes are common enough to be tested
    assert min(kinds[True], kinds[False]) > 1_000, kinds
