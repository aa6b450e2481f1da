from collections import Counter

import pytest

from qcrystals import skeleton, verify
from qcrystals.crystal import generate_crystal
from qcrystals.decomposition import decompose
from qcrystals.errors import EmptyInput, InvalidParameters
from qcrystals.skeleton import (
    CHAINS, EVEN_CYCLES, OTHER, SINGLETONS,
    build_skeleton, check_dual_equivalence_conjecture, check_evac_duality,
    check_reordering_conjecture, check_skeleton_strata, classify_subgraph,
    dual_equivalence_graph, dual_equivalence_involution,
    induced_by_descent_count, max_descent_composition_length, skeleton_stable,
)
from qcrystals.tableaux import (
    compositions_of, descent_composition, enumerate_syt, partitions_of,
    sources_of_type, syt_descent_compositions,
)


def T(*rows):
    return tuple(tuple(r) for r in rows)


class TestBuildSkeleton:
    def test_vertices_and_strata_of_43(self):
        skel = build_skeleton((4, 3), 4)
        assert len(skel.vertices) == 14
        strata = Counter(len(descent_composition(v)) - 1 for v in skel.vertices)
        assert strata == {1: 2, 2: 8, 3: 4}
        assert len(skel.edges) == 32

    def test_one_row_shape(self):
        skel = build_skeleton((5,), 3)
        assert len(skel.vertices) == 1 and not skel.edges

    def test_stable_at_bound(self):
        assert build_skeleton((4, 3), 4) == build_skeleton((4, 3), 5)

    def test_alphabet_bound_must_be_an_integer(self):
        # 1.5 once gave an empty skeleton with max_entry 1.5
        for bound in (1.5, None):
            with pytest.raises(InvalidParameters, match="expected integers for max_entry"):
                build_skeleton((2, 1), bound)
        with pytest.raises(InvalidParameters, match="max_entry must be >= 1"):
            build_skeleton((2, 1), 0)

    def test_edges_follow_crystal_edges(self):
        # every skeleton edge comes from some crystal edge between classes
        skel = build_skeleton((3, 2), 3)
        G = generate_crystal((3, 2), 3)
        subs = decompose(G)
        class_of = {}
        for k, sub in enumerate(subs):
            for v in sub.vertex_indices:
                class_of[v] = k
        crossing = {(class_of[u], class_of[v]) for u, v, _ in G.edges
                    if class_of[u] != class_of[v]}
        assert len(crossing) == len(skel.edges)


class TestSkeletonStable:
    def test_bound_of_43(self):
        skel = skeleton_stable((4, 3))
        assert skel.stable_bound == 4 == max_descent_composition_length((4, 3))

    def test_bound_is_the_longest_descent_composition(self):
        for m in range(1, 9):
            for shape in partitions_of(m):
                longest = max(len(c) for c in syt_descent_compositions(shape))
                assert max_descent_composition_length(shape) == longest
        with pytest.raises(InvalidParameters):
            max_descent_composition_length((2, 3))

    @pytest.mark.parametrize("call", [skeleton_stable, check_skeleton_strata,
                                      max_descent_composition_length])
    def test_empty_shape(self, call):
        with pytest.raises(EmptyInput, match="empty tableau"):
            call(())

    def test_column_shape_single_vertex(self):
        skel = skeleton_stable((1, 1, 1, 1))
        assert skel.stable_bound == 4
        assert len(skel.vertices) == 1 and not skel.edges

    def test_census_of_321(self):
        skel = skeleton_stable((3, 2, 1))
        assert len(skel.vertices) == 16
        assert len(skel.edges) == 26
        v2, e2 = induced_by_descent_count(skel, 2)
        v3, e3 = induced_by_descent_count(skel, 3)
        assert (len(v2), len(e2)) == (8, 8)
        assert (len(v3), len(e3)) == (8, 6)
        assert classify_subgraph(v2, e2) == EVEN_CYCLES
        assert classify_subgraph(v3, e3) == CHAINS

    @pytest.mark.parametrize("operator", ["lowering_positions", "raising_positions"])
    def test_the_suite_catches_a_broken_local_rule(self, monkeypatch, operator):
        assert verify.skeleton_suite(5).passed
        # drop every f_i step, or every e_i step, of the local rule
        monkeypatch.setattr(skeleton, operator, lambda w, n: [-1] * (n + 1))
        failures = dict(verify.skeleton_suite(5).details)["failures"]
        assert ("local rule vs crystal route", (2, 2), 3) in failures
        # the crystal route itself still shows stability and restriction
        assert {f[0] for f in failures} == {"local rule vs crystal route"}

    def test_restriction_below_bound(self):
        stable = skeleton_stable((3, 2))
        small = build_skeleton((3, 2), 2)
        keep = set(small.vertices)
        assert keep == {v for v in stable.vertices
                        if len(descent_composition(v)) <= 2}
        induced = {p: l for p, l in stable.edges.items()
                   if p[0] in keep and p[1] in keep}
        assert small.edges == induced


class TestClassification:
    def test_two_vertex_chain(self):
        a, b = T([1, 2], [3]), T([1, 3], [2])
        assert classify_subgraph((a, b), {(a, b): 1}) == CHAINS

    def test_isolated_vertices(self):
        a, b = T([1, 2], [3]), T([1, 3], [2])
        assert classify_subgraph((a, b), {}) == SINGLETONS

    def test_even_cycle_with_attachments(self):
        skel = skeleton_stable((4, 1, 1))
        vertices, edges = induced_by_descent_count(skel, 2)
        assert len(vertices) == 10
        assert classify_subgraph(vertices, edges) == EVEN_CYCLES

    def test_odd_cycle_is_other(self):
        verts = ("a", "b", "c")
        edges = {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1}
        assert classify_subgraph(verts, edges) == OTHER

    def test_one_pass_strata_equal_the_induced_subgraphs(self):
        # the oracle filters the vertices and the edges once per descent count
        for m in range(1, 9):
            for shape in partitions_of(m):
                skel = skeleton_stable(shape)
                d_of = {T: len(descent_composition(T)) - 1 for T in skel.vertices}
                expected = []
                for d in range(-1, m + 1):
                    keep = {T for T in skel.vertices if d_of[T] == d}
                    edges = {pair: label for pair, label in skel.edges.items()
                             if pair[0] in keep and pair[1] in keep}
                    induced = (tuple(sorted(keep)), edges)
                    assert induced_by_descent_count(skel, d) == induced, (shape, d)
                    if keep:
                        expected.append((d, classify_subgraph(*induced)))
                assert check_skeleton_strata(shape).details == tuple(expected)

    def test_never_other_up_to_size_six(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                report = check_skeleton_strata(shape)
                assert report.passed, report


class TestDualEquivalence:
    def test_superstandard_edges_of_43(self):
        g = dual_equivalence_graph((4, 3))
        a, b = T([1, 2, 3, 4], [5, 6, 7]), T([1, 2, 3, 5], [4, 6, 7])
        labels = {i for u, v, i in g.edges if {u, v} == {a, b}}
        assert labels == {4, 5}

    def test_involutions(self):
        for shape in [(3, 2), (2, 2, 1), (4, 3)]:
            m = sum(shape)
            for t in enumerate_syt(shape):
                for i in range(2, m):
                    image = dual_equivalence_involution(t, i)
                    assert dual_equivalence_involution(image, i) == t

    def test_one_row_no_edges(self):
        assert not dual_equivalence_graph((6,)).edges

    def test_involution_index_out_of_range(self):
        t = T([1, 2, 4], [3])
        for i in (1, 4, 0):
            with pytest.raises(InvalidParameters):
                dual_equivalence_involution(t, i)

    def test_involution_rejects_non_standard(self):
        # each holds 1, 2 and 3 without being standard
        for t in (T([1, 2], [2, 3]), T([1, 3], [2, 4], [5, 5]), T([2, 1], [3, 4])):
            with pytest.raises(InvalidParameters):
                dual_equivalence_involution(t, 2)

    def test_edge_census_of_43(self):
        g = dual_equivalence_graph((4, 3))
        assert len(g.edges) == 25
        assert len(g.unordered_pairs()) == 17

    def test_involution_index_must_be_an_integer(self):
        for i in (2.0, "2"):
            with pytest.raises(InvalidParameters):
                dual_equivalence_involution(T([1, 2], [3]), i)

    def test_word_graph_equals_involution_graph_through_size_8(self):
        for m in range(1, 9):
            for shape in partitions_of(m):
                edges = set()
                for t in enumerate_syt(shape):
                    for i in range(2, m):
                        image = dual_equivalence_involution(t, i)
                        if image != t:
                            edges.add((*sorted((t, image)), i))
                g = dual_equivalence_graph(shape)
                assert g.vertices == tuple(enumerate_syt(shape))
                assert g.edges == edges, shape

    def test_graph_and_containment_need_no_per_tableau_involution(self, monkeypatch):
        graph = dual_equivalence_graph((3, 2, 1))
        report = check_dual_equivalence_conjecture((3, 2, 1))

        def refuse(*args):
            raise AssertionError("took the per-tableau route")
        monkeypatch.setattr(skeleton, "_involution", refuse)
        assert dual_equivalence_graph((3, 2, 1)) == graph
        assert check_dual_equivalence_conjecture((3, 2, 1)) == report

    def test_containment_lists_the_standard_tableaux_once(self, monkeypatch):
        listings = []
        for name in ("_standard_fill",):
            def counted(*args, _list=getattr(skeleton, name)):
                listings.append(args)
                return _list(*args)
            monkeypatch.setattr(skeleton, name, counted)
        assert check_dual_equivalence_conjecture((4, 2, 1)).passed
        assert len(listings) == 1


class TestDualEquivalenceConjecture:
    def test_all_small_shapes(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                assert check_dual_equivalence_conjecture(shape).passed

    def test_seven_extra_edges_for_43(self):
        report = check_dual_equivalence_conjecture((4, 3))
        details = dict((k, v) for k, v in report.details)
        assert report.passed
        assert details["skeleton_only_pairs"] == 7

    def test_tiny_shape(self):
        report = check_dual_equivalence_conjecture((2, 1))
        assert report.passed


class TestReorderingConjecture:
    def test_small_sizes(self):
        for m in range(1, 7):
            assert check_reordering_conjecture(m).passed

    def test_partitions_occur_through_highest_weight(self):
        report = check_reordering_conjecture(5)
        assert report.passed

    def test_report_details(self):
        report = check_reordering_conjecture(4)
        details = dict((k, v) for k, v in report.details)
        assert details["compositions_checked"] == 8
        assert details["missing"] == ()

    def test_report_equals_the_sources_of_type_route(self):
        # the report tests membership in the descent-composition table; the
        # old route built the band fillings of each composition instead
        for m in range(1, 9):
            missing = tuple(alpha for alpha in compositions_of(m)
                            if not sources_of_type(tuple(sorted(alpha, reverse=True)), alpha))
            report = check_reordering_conjecture(m)
            assert report.passed == (not missing)
            assert report.details == (("compositions_checked", 2 ** (m - 1)),
                                      ("missing", missing))


class TestEvacDuality:
    def test_43(self):
        report = check_evac_duality((4, 3), 4)
        assert report.passed
        pairs = dict(report.details)["class_pairs"]
        # the two repeated-type classes are either swapped or fixed setwise
        G = generate_crystal((4, 3), 4)
        subs = decompose(G)
        repeated = [k for k, s in enumerate(subs) if s.alpha == (2, 3, 2)]
        image = {a: b for a, b in pairs}
        assert sorted(image[k] for k in repeated) == repeated

    def test_symmetric_singleton_fixed(self):
        # a class with full-alphabet type and symmetric composition maps to itself
        report = check_evac_duality((2, 1, 1), 3)
        assert report.passed
        G = generate_crystal((2, 1, 1), 3)
        subs = decompose(G)
        image = {a: b for a, b in dict(report.details)["class_pairs"]}
        fixed = [k for k, sub in enumerate(subs)
                 if sub.alpha == tuple(reversed(sub.alpha)) and sub.size == 1]
        assert fixed  # the type (1,2,1) gives one
        for k in fixed:
            assert image[k] == k

    def test_exhaustive_small(self):
        for m in range(1, 6):
            for shape in partitions_of(m):
                for n in range(len(shape), 5):
                    assert check_evac_duality(shape, n).passed
