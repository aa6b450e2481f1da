"""decompose and build_skeleton against slow oracles.

decompose splits crystals with the standardization edge rule
(decomposition.descent_classes). The slow oracle here does what the package
did before: it computes every vertex's descent composition, groups the
vertices by it and splits each group into weakly connected components;
decompose must agree with it exactly, edge order included. build_skeleton
builds no crystal: it takes single f_i and e_i steps from band fillings. It
must equal, vertices, edges and labels, both the skeleton that collapses the
oracle's classes through standardize_tableau and the crystal route of
verify.skeleton_suite.
"""

import pytest

from qcrystals import decomposition, skeleton, tableaux, verify
from qcrystals.crystal import generate_crystal
from qcrystals.decomposition import Subcomponent, decompose, descent_classes
from qcrystals.errors import InternalError, InvalidParameters
from qcrystals.skeleton import (
    build_skeleton, max_descent_composition_length, skeleton_stable,
)
from qcrystals.tableaux import (
    descent_composition, enumerate_syt, partitions_of,
    standardize_tableau, standardize_word, syt_descent_compositions,
)


def decompose_by_composition(G):
    """Group by descent composition, split into components (slow oracle)."""
    alpha_of = [descent_composition(T) for T in G.vertices]
    internal = [e for e in G.edges if alpha_of[e[0]] == alpha_of[e[1]]]
    neighbours = [[] for _ in G.vertices]
    for u, v, _ in internal:
        neighbours[u].append(v)
        neighbours[v].append(u)
    component_of = [-1] * len(G.vertices)
    components = []
    for start in range(len(G.vertices)):
        if component_of[start] >= 0:
            continue
        component_of[start] = len(components)
        stack, members = [start], {start}
        while stack:
            for v in neighbours[stack.pop()]:
                if component_of[v] < 0:
                    component_of[v] = len(components)
                    members.add(v)
                    stack.append(v)
        components.append(members)
    edges_of = [[] for _ in components]
    for edge in internal:
        edges_of[component_of[edge[0]]].append(edge)
    subs = []
    for members, edges in zip(components, edges_of):
        sources = sorted(members - {v for _, v, _ in edges})
        assert len(sources) == 1
        s = sources[0]
        subs.append(Subcomponent(alpha_of[s], G.vertices[s], s,
                                 frozenset(members), tuple(edges)))
    return sorted(subs, key=lambda sub: sub.source_index)


def skeleton_by_composition(shape, n):
    """The skeleton built on tableau vertices and the slow oracle's classes."""
    G = generate_crystal(shape, n)
    subs = decompose_by_composition(G)
    class_of = {v: k for k, sub in enumerate(subs) for v in sub.vertex_indices}
    std_of = [standardize_tableau(sub.source) for sub in subs]
    edges = {}
    for u, v, i in G.edges:
        if class_of[u] != class_of[v]:
            key = (std_of[class_of[u]], std_of[class_of[v]])
            if key not in edges or i < edges[key]:
                edges[key] = i
    vertices = tuple(T for T, comp in zip(enumerate_syt(shape),
                                          syt_descent_compositions(shape))
                     if len(comp) <= n)
    return vertices, edges


SMALL = [(shape, n) for m in range(1, 7) for shape in partitions_of(m)
         for n in range(1, m + 3)]


@pytest.mark.parametrize("shape", [s for m in range(1, 7) for s in partitions_of(m)],
                         ids=str)
def test_decompose_equals_composition_grouping(shape):
    for n in range(1, sum(shape) + 3):
        G = generate_crystal(shape, n)
        assert decompose(G) == decompose_by_composition(G)


@pytest.mark.parametrize("shape", [s for m in range(1, 8) for s in partitions_of(m)],
                         ids=str)
def test_build_skeleton_equals_composition_grouping(shape):
    for n in range(1, max_descent_composition_length(shape) + 2):
        skel = build_skeleton(shape, n)
        vertices, edges = skeleton_by_composition(shape, n)
        assert skel.vertices == vertices
        assert skel.edges == edges


@pytest.mark.parametrize("shape", [s for m in range(1, 9) for s in partitions_of(m)],
                         ids=str)
def test_build_skeleton_equals_the_crystal_route(shape):
    S = max_descent_composition_length(shape)
    for n in range(1, S + 3):
        skel = build_skeleton(shape, n)
        assert (skel.vertices, skel.edges) == verify._skeleton_by_crystal(shape, n)
    stable = skeleton_stable(shape)
    assert (stable.vertices, stable.edges) == verify._skeleton_by_crystal(shape, S + 1)


def test_classes_are_standardization_fibres():
    for shape, n in SMALL:
        G = generate_crystal(shape, n)
        _, class_of, _, _ = descent_classes(G.words, G.edges)
        fibre_of = {}
        for k, w in zip(class_of, G.words):
            assert fibre_of.setdefault(standardize_word(w), k) == k
        assert len(fibre_of) == len(set(class_of))


def test_internal_edges_follow_the_rule():
    words = [(1, 2, 1), (2, 2, 1), (1, 2, 2), (1, 1, 2), (1, 2, 2)]
    edges = [(0, 1, 1), (3, 4, 1)]
    # 2 comes before the last 1 of 121; 112 has every 1 before its 2
    trees, class_of, internal, sources = descent_classes(words, edges)
    assert internal == [(3, 4, 1)]
    assert trees == [[0], [1], [2], [3, 4]]
    assert class_of == [0, 1, 2, 3, 3]
    assert sources == [0, 1, 2, 3]


def test_two_sources_name_the_class_with_the_lowest_vertex():
    words = [(1, 1), (1, 1), (1, 2), (1, 1, 1), (1, 1, 1), (1, 1, 2)]
    # 3 and 4 both enter 5: the class {3, 4, 5} has two sources
    edges = [(3, 5, 1), (4, 5, 1)]
    with pytest.raises(InternalError, match=r"descent class \(2,\) has 2 sources"):
        descent_classes(words, [(0, 2, 1), (1, 2, 1)] + edges)
    with pytest.raises(InternalError, match=r"descent class \(3,\) has 2 sources"):
        descent_classes(words, [(0, 2, 1)] + edges)


def _count_descent_compositions(monkeypatch):
    calls = []
    original = tableaux.descent_composition

    def counted(T):
        calls.append(T)
        return original(T)

    for module in (tableaux, decomposition, skeleton):
        monkeypatch.setattr(module, "descent_composition", counted)
    return calls


@pytest.mark.parametrize("shape, n", [((4, 2, 1), 5), ((3, 3), 4), ((2, 2, 1), 6), ((5,), 4)])
def test_descent_composition_at_most_once_per_class(monkeypatch, shape, n):
    G = generate_crystal(shape, n)
    calls = _count_descent_compositions(monkeypatch)
    subs = decompose(G)
    assert len(calls) <= len(subs)
    calls.clear()
    build_skeleton(shape, n)
    assert len(calls) <= len(subs)


def test_skeleton_stable_builds_once_at_the_bound(monkeypatch):
    built = []
    build = skeleton.build_skeleton

    def recording(shape, n):
        built.append(n)
        return build(shape, n)

    monkeypatch.setattr(skeleton, "build_skeleton", recording)
    skeleton_stable((3, 2, 1))
    assert built == [max_descent_composition_length((3, 2, 1))]


def test_build_skeleton_keeps_the_input_checks():
    with pytest.raises(InvalidParameters):
        build_skeleton((3, 2), 0)
    with pytest.raises(InvalidParameters):
        build_skeleton((2, 3), 3)
    skel = build_skeleton((2, 2, 1), 2)
    assert skel.vertices == () and skel.edges == {}
