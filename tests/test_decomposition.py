from collections import Counter
from dataclasses import replace

import pytest

from qcrystals import decomposition, skeleton, symfunc, tableaux
from qcrystals.crystal import generate_crystal, word_crystal_component
from qcrystals.decomposition import (
    QuasicrystalClass, canonical_quasicrystal, count_bm, count_ssyt_formula,
    decompose, descent_classes, descent_count_census, kostka, subcomponent_longest_path,
    subcomponent_sink, verify_subcomponent_iso, weight_matching_bijection,
    weight_multiplicity_in_subcomponent,
)
from qcrystals.errors import EmptyInput, InternalError, InvalidParameters
from qcrystals.skeleton import (
    check_descent_composition_conditions, check_reordering_conjecture,
)
from qcrystals.tableaux import (
    compositions_of, descent_composition, enumerate_ssyt, highest_weight_tableau,
    hook_content_count, hook_length_count, partitions_of,
    syt_descent_compositions, weight_of,
)


def T(*rows):
    return tuple(tuple(r) for r in rows)


FIG2_EXPANSION = {
    (4, 3): 1, (3, 4): 1, (3, 3, 1): 1, (2, 4, 1): 1, (3, 2, 2): 1,
    (2, 3, 2): 2, (2, 2, 3): 1, (1, 4, 2): 1, (1, 3, 3): 1, (2, 2, 2, 1): 1,
    (1, 3, 2, 1): 1, (1, 2, 3, 1): 1, (1, 2, 2, 2): 1,
}


class TestDecompose:
    def test_classes_of_43(self):
        G = generate_crystal((4, 3), 4)
        subs = decompose(G)
        assert len(subs) == 14
        assert dict(Counter(s.alpha for s in subs)) == FIG2_EXPANSION

    def test_one_row_shape_single_class(self):
        G = generate_crystal((5,), 3)
        subs = decompose(G)
        assert len(subs) == 1
        assert subs[0].size == len(G.vertices)

    def test_small_shape(self):
        G = generate_crystal((2, 1), 3)
        subs = decompose(G)
        assert sorted(s.alpha for s in subs) == [(1, 2), (2, 1)]
        assert len(G.vertices) == 8

    def test_partition_property(self):
        G = generate_crystal((3, 2), 4)
        subs = decompose(G)
        covered = sorted(v for s in subs for v in s.vertex_indices)
        assert covered == list(range(len(G.vertices)))

    def test_sources_have_class_weight(self):
        G = generate_crystal((3, 2), 4)
        for sub in decompose(G):
            source = sub.source
            assert weight_of(source, len(sub.alpha)) == sub.alpha
            assert descent_composition(source) == sub.alpha

    def test_class_with_two_sources_is_an_internal_error(self):
        G = generate_crystal((2,), 3)
        target = G.index_of(T([2, 2]))
        H = replace(G, edges=tuple(e for e in G.edges if e[1] != target))
        with pytest.raises(InternalError, match="has 2 sources"):
            decompose(H)


    @pytest.mark.parametrize("w", [(2, 1), ()])
    def test_word_crystal_is_refused(self, w):
        with pytest.raises(InvalidParameters, match="not a word crystal"):
            decompose(word_crystal_component(w, 3))

    @pytest.mark.parametrize("G", [None, "x", 1.5, ()], ids=repr)
    def test_a_non_graph_is_refused(self, G):
        with pytest.raises(InvalidParameters, match="needs a tableau crystal"):
            decompose(G)

    def test_unseeded_masks_give_the_same_classes(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                for n in range(1, 7):
                    G = generate_crystal(shape, n)
                    H = replace(G, edges=G.edges)
                    assert "_crossings" not in vars(H)
                    assert decompose(H) == decompose(G), (shape, n)  # dataclass fields

    def test_only_the_class_sources_are_cut_into_rows(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                for n in range(1, 7):
                    G = generate_crystal(shape, n)
                    subs = decompose(G)
                    assert "vertices" not in vars(G), (shape, n)
                    assert [s.source for s in subs] == \
                        [G.vertices[s.source_index] for s in subs], (shape, n)

    def test_a_real_crystal_never_walks_its_classes(self, monkeypatch):
        # the traversal only words the error for a class with two sources
        def refuse(roots, adjacency):
            raise AssertionError("bfs_forest called on a real crystal")

        monkeypatch.setattr(decomposition, "bfs_forest", refuse)
        for m in range(1, 7):
            for shape in partitions_of(m):
                for n in range(1, 7):
                    subs = decompose(generate_crystal(shape, n))
                    assert sum(sub.size for sub in subs) == \
                        count_ssyt_formula(shape, n), (shape, n)


class TestDescentClassesForwardPass:
    def test_two_merged_classes_name_the_lowest(self):
        # sources 1 and 2 meet at 5 before sources 0 and 3 meet at 4
        words = [(1, 1, 1), (1, 1), (1, 1), (1, 1, 1), (1, 1, 1), (1, 1)]
        edges = [(0, 4, 1), (1, 5, 1), (2, 5, 1), (3, 4, 1)]
        with pytest.raises(InternalError, match=r"descent class \(3,\) has 2 sources"):
            descent_classes(words, edges)

    def test_three_sources_are_counted(self):
        words = [(1,), (2, 1), (1, 1), (1, 2)]
        edges = [(0, 3, 1), (1, 3, 1), (2, 3, 1)]
        # a 2 before the last 1 of (2, 1) makes its edge external
        with pytest.raises(InternalError, match=r"descent class \(1,\) has 2 sources"):
            descent_classes(words, edges)
        words[1] = (1,)
        with pytest.raises(InternalError, match=r"descent class \(1,\) has 3 sources"):
            descent_classes(words, edges)

    def test_chained_joins_count_every_source(self):
        # 0 and 2 join at 4, then 1 and 3 at 5, then 3 and 2 at 6: one class, four sources
        words = [(1, 1)] * 7
        edges = [(0, 4, 1), (1, 5, 1), (2, 4, 1), (2, 6, 1), (3, 5, 1), (3, 6, 1)]
        with pytest.raises(InternalError, match=r"descent class \(2,\) has 4 sources"):
            descent_classes(words, edges)

    def test_classes_list_their_vertices_in_order(self):
        G = generate_crystal((3, 2), 4)
        classes, class_of, internal, sources = descent_classes(G.words, G.edges)
        assert sources == sorted(sources) == [members[0] for members in classes]
        assert all(members == sorted(members) for members in classes)
        assert [class_of[v] for members in classes for v in members] == \
            [k for k, members in enumerate(classes) for _ in members]
        assert internal == [e for e in G.edges if class_of[e[0]] == class_of[e[1]]]


class TestSinkAndHeight:
    def test_sink_of_whole_shape_class(self):
        G = generate_crystal((4, 3), 4)
        sub = next(s for s in decompose(G) if s.alpha == (4, 3))
        assert sub.source == highest_weight_tableau((4, 3))
        assert subcomponent_sink(sub, 4) == T([3, 3, 3, 3], [4, 4, 4])

    def test_full_alphabet_class_is_singleton(self):
        # with the alphabet as short as the class type, the shift is zero
        G = generate_crystal((2, 1), 2)
        subs = decompose(G)
        assert [s.size for s in subs] == [1, 1]
        for sub in subs:
            assert subcomponent_sink(sub, 2) == sub.source

    def test_sink_has_no_outgoing_class_edges(self):
        G = generate_crystal((3, 2), 4)
        for sub in decompose(G):
            sink = subcomponent_sink(sub, 4)
            k = G.index_of(sink)
            assert not any(v in sub.vertex_indices for v in G.out_edges(k).values())

    def test_height_law(self):
        G = generate_crystal((4, 3), 4)
        for sub in decompose(G):
            assert subcomponent_longest_path(sub) == 7 * (4 - len(sub.alpha))


class TestCanonicalClass:
    def test_chain_model(self):
        model = canonical_quasicrystal((2, 3, 2), 4)
        assert len(model.vertices) == 8
        assert len(model.edges) == 7

    def test_full_alphabet_singleton(self):
        model = canonical_quasicrystal((1, 2), 2)
        assert len(model.vertices) == 1

    def test_two_part_model(self):
        model = canonical_quasicrystal((4, 3), 4)
        assert len(model.vertices) == 36

    def test_too_many_parts(self):
        with pytest.raises(InvalidParameters):
            canonical_quasicrystal((1, 1, 1), 2)

    def test_alphabet_must_be_an_integer(self):
        with pytest.raises(InvalidParameters, match="expected integers"):
            canonical_quasicrystal((1, 2), "3")

    def test_signature_helper(self):
        sig = QuasicrystalClass(m=7, s=3, n=4)
        assert sig.height == 8
        assert sig.vertex_count == 8


class TestIsomorphism:
    def test_every_class_of_43(self):
        G = generate_crystal((4, 3), 4)
        for sub in decompose(G):
            ok, witness = verify_subcomponent_iso(G, sub, 4)
            assert ok, witness

    def test_repeated_type_classes_are_isomorphic(self):
        G = generate_crystal((4, 3), 4)
        pair = [s for s in decompose(G) if s.alpha == (2, 3, 2)]
        assert len(pair) == 2
        phi = weight_matching_bijection(G, pair[0], pair[1], 4)
        assert {(phi[u], phi[v], i) for u, v, i in pair[0].edges} == set(pair[1].edges)

    def test_singleton_class(self):
        G = generate_crystal((2, 1), 2)
        for sub in decompose(G):
            ok, _ = verify_subcomponent_iso(G, sub, 2)
            assert ok


class TestCountBm:
    def test_formula_value(self):
        assert count_bm(10, 5) == 1001

    def test_single_column_alphabet(self):
        assert count_bm(6, 1) == 1

    def test_matches_enumeration(self):
        assert count_bm(7, 2) == len(enumerate_ssyt((7,), 2)) == 8
        assert count_bm(10, 5) == len(enumerate_ssyt((10,), 5))


class TestCountFormula:
    def test_counting_shape_43(self):
        assert [count_ssyt_formula((4, 3), n) for n in (4, 5, 6, 7)] == \
            [140, 560, 1764, 4704]

    def test_descent_census_43(self):
        assert descent_count_census((4, 3)) == {1: 2, 2: 8, 3: 4}

    def test_census_by_inversion_matches_the_standard_tableaux(self):
        for m in range(1, 10):
            for shape in partitions_of(m):
                tally = Counter(len(c) - 1 for c in syt_descent_compositions(shape))
                assert descent_count_census(shape) == tally

    def test_census_lists_no_tableau(self, monkeypatch):
        # the counts, kostka, the F-table and the checkers that read it
        def refuse(shape):
            raise AssertionError("standard tableaux listed")

        for module in (tableaux, decomposition, skeleton, symfunc):
            for name in ("syt_descent_compositions", "enumerate_syt", "_standard_fill"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        census = descent_count_census((8, 6, 4, 2))
        assert sum(census.values()) == hook_length_count((8, 6, 4, 2)) == 55099278
        assert min(census) == 3 and max(census) == 12
        assert count_ssyt_formula((5, 5, 5, 5), 4) == 1
        assert count_ssyt_formula((5, 5, 5, 5), 5) == hook_content_count((5, 5, 5, 5), 5)
        assert kostka((5, 5, 5, 5), (5, 5, 5, 5)) == 1
        assert kostka((8, 6, 4, 2), (4,) * 5) == 219
        assert kostka((8, 6, 4, 2), (1,) * 20) == 55099278
        f = symfunc.schur_to_f((6, 5, 4, 3))
        assert len(f.terms) == 61726
        assert sum(f.terms.values()) == hook_length_count((6, 5, 4, 3))
        assert check_reordering_conjecture(8).passed
        report = check_descent_composition_conditions((4, 3), (2, 3, 2))
        assert dict(report.details)["multiplicity"] == 2

    def test_zero_below_length(self):
        assert count_ssyt_formula((2, 1, 1), 2) == 0

    def test_matches_enumeration(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                for n in range(1, 6):
                    assert count_ssyt_formula(shape, n) == \
                        len(enumerate_ssyt(shape, n))


class TestKostka:
    def test_highest_weight_is_unique(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                assert kostka(shape, shape) == 1

    def test_standard_weight(self):
        assert kostka((2, 1), (1, 1, 1)) == 2

    def test_zero_parts_ignored(self):
        assert kostka((2, 1), (1, 0, 1, 1)) == kostka((2, 1), (1, 1, 1))

    def test_against_brute_force_small(self):
        from qcrystals.tableaux import compositions_of
        for m in range(1, 6):
            for shape in partitions_of(m):
                tally = Counter(weight_of(t, m) for t in enumerate_ssyt(shape, m))
                for mu in compositions_of(m):
                    padded = mu + (0,) * (m - len(mu))
                    assert kostka(shape, mu) == tally.get(padded, 0)

    def test_size_mismatch(self):
        with pytest.raises(InvalidParameters):
            kostka((2, 1), (2, 2))


class TestWeightMultiplicity:
    def test_refining_weight_occurs(self):
        assert weight_multiplicity_in_subcomponent((2, 3, 2), (2, 1, 2, 2)) == 1

    def test_class_type_itself(self):
        assert weight_multiplicity_in_subcomponent((2, 3, 2), (2, 3, 2)) == 1

    def test_non_refining_weight(self):
        assert weight_multiplicity_in_subcomponent((2, 3, 2), (3, 2, 2)) == 0

    def test_non_integer_weight_rejected(self):
        # int() would truncate (2.7, 0.9) to (2, 0), a weight of the class (2,)
        with pytest.raises(InvalidParameters):
            weight_multiplicity_in_subcomponent((2,), (2.7, 0.9))

    def test_negative_weight_rejected(self):
        # the parts sum to 3, and the candidate filling 1, 3, 3, 3 skipped the -1
        with pytest.raises(InvalidParameters, match="non-negative"):
            weight_multiplicity_in_subcomponent((1, 2), (1, -1, 3))

    def test_against_actual_classes(self):
        G = generate_crystal((3, 2), 4)
        for sub in decompose(G):
            weights = Counter(weight_of(G.vertices[v], 4)
                              for v in sub.vertex_indices)
            assert all(c == 1 for c in weights.values())
            for mu in weights:
                assert weight_multiplicity_in_subcomponent(sub.alpha, mu) == 1

    def test_accepts_class_object_or_type(self):
        G = generate_crystal((2, 1), 3)
        sub = decompose(G)[0]
        mu = weight_of(G.vertices[next(iter(sub.vertex_indices))], 3)
        assert weight_multiplicity_in_subcomponent(sub, mu) == \
            weight_multiplicity_in_subcomponent(sub.alpha, mu) == 1


class TestFullInvariantDomain:
    def test_decomposition_suite_at_stated_bounds(self):
        # partition/multiplicity/sink/height/isomorphism laws, size <= 7,
        # alphabet <= 5
        from qcrystals.verify import decomposition_suite
        report = decomposition_suite(max_size=7, alphabet=5)
        assert report.passed, report.details


class TestDescentConditions:
    def test_conditions_pass_but_absent(self):
        details = dict(check_descent_composition_conditions((3, 3), (1, 2, 3)).details)
        assert all(details["conditions"])
        assert details["multiplicity"] == 0

    def test_occurs_twice(self):
        details = dict(check_descent_composition_conditions((4, 3), (2, 3, 2)).details)
        assert all(details["conditions"])
        assert details["multiplicity"] == 2

    def test_shape_itself_always_occurs(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                details = dict(check_descent_composition_conditions(shape, shape).details)
                assert details["multiplicity"] == 1

    def test_necessity_on_occurring_types(self):
        for shape in [(3, 2), (4, 3), (2, 2, 1)]:
            for alpha in set(syt_descent_compositions(shape)):
                report = check_descent_composition_conditions(shape, alpha,
                                                              n=sum(shape))
                assert all(dict(report.details)["conditions"])

    def test_every_composition_up_to_size_seven(self):
        # the conditions are necessary: none fails on a composition that
        # occurs, and the multiplicity is the census of descent compositions
        pairs = failing = 0
        for m in range(1, 8):
            for shape in partitions_of(m):
                census = Counter(syt_descent_compositions(shape))
                for alpha in compositions_of(m):
                    report = check_descent_composition_conditions(shape, alpha)
                    details = dict(report.details)
                    assert report.passed, (shape, alpha)
                    assert details["multiplicity"] == census[alpha]
                    pairs += 1
                    failing += not all(details["conditions"])
        assert (pairs, failing) == (1481, 1039)

    def test_empty_shape(self):
        # once a bare IndexError from shape[0]
        with pytest.raises(EmptyInput, match="empty tableau"):
            check_descent_composition_conditions((), (1, 2))

    def test_reordering_size_must_be_an_integer(self):
        # once a bare TypeError
        with pytest.raises(InvalidParameters):
            check_reordering_conjecture(None)

    @pytest.mark.parametrize("n", ["x", 0, -3, 1.5])
    def test_alphabet_must_be_a_positive_integer(self, n):
        with pytest.raises(InvalidParameters):
            check_descent_composition_conditions((2, 1), (2, 1), n=n)
