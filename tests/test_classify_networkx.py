"""classify_subgraph against an oracle built on networkx.

The oracle restates the four verdicts with networkx's own components,
degrees, bipartite test and bridge test, so it shares no traversal with the
classifier under test.
"""

import random

import pytest

from qcrystals.skeleton import (
    CHAINS, EVEN_CYCLES, OTHER, SINGLETONS,
    check_skeleton_strata, classify_subgraph, induced_by_descent_count,
    skeleton_stable,
)
from qcrystals.tableaux import partitions_of

nx = pytest.importorskip("networkx")


def _even_cycle_union(g) -> bool:
    return (g.number_of_nodes() > 1 and min(d for _, d in g.degree()) >= 2
            and nx.is_bipartite(g) and not nx.has_bridges(g))


def _component_kind(g, d, comp) -> str:
    h = g.subgraph(comp)
    if len(comp) == 1:
        return SINGLETONS
    if nx.is_tree(h) and max(deg for _, deg in h.degree()) <= 2:
        return CHAINS
    if _even_cycle_union(h):
        return EVEN_CYCLES
    rest = [v for v in comp if d.in_degree(v) and d.out_degree(v)]
    if rest and len(rest) < len(comp):
        r = g.subgraph(rest)
        pieces = list(nx.connected_components(r))
        if (len(comp) - len(rest) <= 2 * len(pieces)
                and all(_even_cycle_union(r.subgraph(p)) for p in pieces)):
            return EVEN_CYCLES
    return OTHER


def oracle(vertices, edges) -> str:
    d = nx.DiGraph()
    d.add_nodes_from(vertices)
    d.add_edges_from(edges)
    g = d.to_undirected()
    kinds = {_component_kind(g, d, comp) for comp in nx.connected_components(g)}
    if kinds <= {SINGLETONS}:
        return SINGLETONS
    if kinds <= {SINGLETONS, CHAINS}:
        return CHAINS
    if kinds <= {EVEN_CYCLES}:
        return EVEN_CYCLES
    return OTHER


def _random_digraph(rng):
    """A loop-free digraph: sparse random, or cycles with attached ends."""
    edges = set()
    if rng.random() < 0.4:
        n = rng.randint(1, 10)
        p = rng.choice([0.1, 0.2, 0.35])
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    edges.add((a, b) if rng.random() < 0.5 else (b, a))
                    if rng.random() < 0.2:  # joined in both directions
                        edges.add((b, a) if (a, b) in edges else (a, b))
        return tuple(range(n)), edges
    n = 0
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(3, 8)
        cycle = list(range(n, n + length))
        n += length
        directed = rng.random() < 0.6
        for k in range(length):
            a, b = cycle[k], cycle[(k + 1) % length]
            if directed or rng.random() < 0.5:
                edges.add((a, b))
            else:
                edges.add((b, a))
            if rng.random() < 0.1:
                edges.add((b, a))
        if n > length and rng.random() < 0.2:  # tie to an earlier cycle
            edges.add((rng.randrange(n - length), cycle[0]))
    for _ in range(rng.randint(0, 3)):  # attached sources and sinks
        t = rng.randrange(n)
        edges.add((n, t) if rng.random() < 0.5 else (t, n))
        n += 1
    if rng.random() < 0.2:  # a chord
        a, b = rng.sample(range(n), 2)
        edges.add((a, b))
    return tuple(range(n)), edges


def test_random_digraphs_match_oracle():
    rng = random.Random(20230714)
    seen = set()
    for _ in range(6000):
        vertices, edges = _random_digraph(rng)
        # shuffle the vertex order so the classifier's indices differ from labels
        vertices = tuple(rng.sample(vertices, len(vertices)))
        expected = oracle(vertices, edges)
        assert classify_subgraph(vertices, edges) == expected, (vertices, edges)
        seen.add(expected)
    assert seen == {SINGLETONS, CHAINS, EVEN_CYCLES, OTHER}


def test_hand_built_cases_match_oracle():
    square = {(0, 1), (1, 2), (2, 3), (3, 0)}
    cases = [
        ((0, 1), {(0, 1), (1, 0)}),                  # a pair joined both ways
        (tuple(range(5)), square | {(4, 0)}),        # square with a source
        (tuple(range(6)), square | {(4, 0), (2, 5)}),  # and a sink
        (tuple(range(3)), {(0, 1), (1, 2), (2, 0)}),  # odd cycle
        (tuple(range(6)), square | {(3, 4), (4, 5), (5, 3)}),  # even and odd
        (tuple(range(7)), square | {(3, 4), (4, 5), (5, 6), (6, 3)}),  # bridge-free
    ]
    for vertices, edges in cases:
        assert classify_subgraph(vertices, edges) == oracle(vertices, edges)


def test_skeleton_strata_match_oracle_up_to_size_seven():
    for m in range(1, 8):
        for shape in partitions_of(m):
            skel = skeleton_stable(shape)
            verdicts = dict(check_skeleton_strata(shape).details)
            for d, kind in verdicts.items():
                vertices, edges = induced_by_descent_count(skel, d)
                assert oracle(vertices, edges) == kind, (shape, d)
