"""Every descent class against its one-row model, with networkx as the oracle.

The source paper shows that a class of type alpha (s parts, alphabet n) is
isomorphic, as an oriented graph, to the crystal of one-row tableaux of size
|alpha| over 1..n-s+1 (canonical_quasicrystal). nx.is_isomorphic checks
this for every class of every crystal of size at most 5 with n at most 5,
independently of the constructive map in verify_subcomponent_iso.
"""

import pytest

from qcrystals.crystal import generate_crystal
from qcrystals.decomposition import canonical_quasicrystal, decompose
from qcrystals.tableaux import partitions_of

nx = pytest.importorskip("networkx")


def _digraph(vertices, edges):
    g = nx.DiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from((u, v) for u, v, _ in edges)
    return g


@pytest.mark.parametrize("shape", [s for m in range(1, 6) for s in partitions_of(m)],
                         ids=str)
def test_every_class_is_its_one_row_crystal(shape):
    classes = 0
    for n in range(len(shape), 6):
        G = generate_crystal(shape, n)
        for sub in decompose(G):
            model = canonical_quasicrystal(sub.alpha, n)
            assert nx.is_isomorphic(
                _digraph(sub.vertex_indices, sub.edges),
                _digraph(range(len(model.vertices)), model.edges))
            classes += 1
    assert classes > 0
