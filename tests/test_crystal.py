import random
from dataclasses import fields, replace
from itertools import product

import pytest

from qcrystals.crystal import (
    CrystalGraph, e_tableau, e_word, f_tableau, f_word, generate_crystal, lowering_positions,
    paren_reduce, raising_positions, word_crystal_component,
)
from qcrystals.errors import InvalidParameters
from qcrystals.tableaux import (
    enumerate_ssyt, highest_weight_tableau, hook_content_count, is_semistandard, partitions_of,
    reading_word, shape_of, weight_of,
)


def T(*rows):
    return tuple(tuple(r) for r in rows)


W = (1, 3, 3, 1, 2, 3, 3, 3, 1, 2, 2, 3, 3)


def bfs_by_operator(start, max_entry, step):
    """Slow oracle: BFS closure under step(v, i), one call per vertex and label."""
    vertices, index, edges = [start], {start: 0}, []
    for u, vertex in enumerate(vertices):
        for i in range(1, max_entry):
            v = step(vertex, i)
            if v is None:
                continue
            if v not in index:
                index[v] = len(vertices)
                vertices.append(v)
            edges.append((u, index[v], i))
    return tuple(vertices), tuple(sorted(edges))


class TestParenReduce:
    def test_worked_example(self):
        red = paren_reduce(W, 1)
        assert tuple(p + 1 for p in red.unpaired_close_positions) == (1, 4)
        assert tuple(p + 1 for p in red.unpaired_open_positions) == (10, 11)
        assert red.phi == 2 and red.epsilon == 2

    def test_all_closes(self):
        red = paren_reduce((1, 1), 1)
        assert red.unpaired_close_positions == (0, 1)
        assert red.unpaired_open_positions == ()

    def test_open_before_close_couples(self):
        red = paren_reduce((2, 1), 1)
        assert red.unpaired_close_positions == ()
        assert red.unpaired_open_positions == ()

    def test_matches_iterated_removal_oracle(self):
        # remove adjacent "()" pairs until none remain, on random words
        def oracle(w, i):
            marks = [(pos, "(" if v == i + 1 else ")")
                     for pos, v in enumerate(w) if v in (i, i + 1)]
            changed = True
            while changed:
                changed = False
                for k in range(len(marks) - 1):
                    if marks[k][1] == "(" and marks[k + 1][1] == ")":
                        del marks[k:k + 2]
                        changed = True
                        break
            closes = tuple(p for p, s in marks if s == ")")
            opens = tuple(p for p, s in marks if s == "(")
            return closes, opens

        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 4)
            w = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 10)))
            for i in range(1, n):
                red = paren_reduce(w, i)
                assert (red.unpaired_close_positions,
                        red.unpaired_open_positions) == oracle(w, i)


class TestWordOperators:
    def test_lowering_worked_example(self):
        assert f_word(W, 1) == (1, 3, 3, 2, 2, 3, 3, 3, 1, 2, 2, 3, 3)

    def test_lowering_null(self):
        assert f_word((2, 2), 1) is None

    def test_lowering_simple(self):
        assert f_word((1, 2), 1) == (2, 2)

    def test_raising_worked_example(self):
        assert e_word(W, 1) == (1, 3, 3, 1, 2, 3, 3, 3, 1, 1, 2, 3, 3)

    def test_raising_null(self):
        assert e_word((1, 1), 1) is None

    def test_inverse_pair(self):
        assert e_word(f_word(W, 1), 1) == W
        assert f_word(e_word(W, 1), 1) == W

    def test_inverse_property_random(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 4)
            w = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 9)))
            for i in range(1, n):
                down = f_word(w, i)
                if down is not None:
                    assert e_word(down, i) == w
                up = e_word(w, i)
                if up is not None:
                    assert f_word(up, i) == w

    def test_position_scans_match_the_operators(self):
        # every word of length <= 5 over 1..4: one scan per direction finds
        # the letter each f_i and e_i changes
        for length in range(1, 6):
            for w in product(range(1, 5), repeat=length):
                down, up = lowering_positions(w, 4), raising_positions(w, 4)
                for i in range(1, 4):
                    for pos, word_op, letter in ((down[i], f_word, i + 1),
                                                 (up[i], e_word, i)):
                        image = word_op(w, i)
                        if image is None:
                            assert pos == -1
                        else:
                            assert image == w[:pos] + (letter,) + w[pos + 1:]


class TestOperatorInputChecks:
    @pytest.mark.parametrize("op", [paren_reduce, f_word, e_word])
    @pytest.mark.parametrize("i", ["x", 1.5, None])
    def test_label_must_be_an_integer(self, op, i):
        with pytest.raises(InvalidParameters, match="expected integers for the operator label"):
            op((1, 2), i)

    @pytest.mark.parametrize("op", [paren_reduce, f_word, e_word])
    @pytest.mark.parametrize("word", [(1, "a"), (2.0, 2), (1, None), (1, 2.5, 2)])
    def test_letters_must_be_integers(self, op, word):
        # f_word((1, "a"), 1) once gave (2, "a"), e_word((2.0, 2), 1) gave (1.0, 2)
        with pytest.raises(InvalidParameters, match="expected integers for letters"):
            op(word, 1)

    @pytest.mark.parametrize("op", [f_word, e_word])
    def test_any_sequence_of_integer_letters(self, op):
        assert op([1, 2, 1], 1) == op((1, 2, 1), 1)
        assert op((True, 2), 1) == op((1, 2), 1)

    @pytest.mark.parametrize("op", [f_tableau, e_tableau])
    @pytest.mark.parametrize("tableau", [((1, "a"),), ((1, 2.5),), ((1, 1), (None,))])
    def test_tableau_entries_must_be_integers(self, op, tableau):
        with pytest.raises(InvalidParameters, match="expected integers for tableau entries"):
            op(tableau, 1)

    @pytest.mark.parametrize("op", [f_tableau, e_tableau])
    def test_tableau_label_must_be_an_integer(self, op):
        with pytest.raises(InvalidParameters, match="expected integers for the operator label"):
            op(((1, 2),), "1")


class TestTableauOperators:
    SOURCE = T([1] * 6, [2] * 4, [3] * 4)

    def test_first_arrow(self):
        assert f_tableau(self.SOURCE, 1) == T([1, 1, 1, 1, 1, 2], [2] * 4, [3] * 4)

    def test_diamond_commutes(self):
        step = f_tableau(self.SOURCE, 1)
        left = f_tableau(f_tableau(step, 1), 2)
        right = f_tableau(f_tableau(step, 2), 1)
        assert left == right == T([1, 1, 1, 1, 2, 3], [2] * 4, [3] * 4)

    def test_missing_letter_is_null(self):
        assert f_tableau(T([1, 1], [3, 3]), 2) is None

    def test_raising_inverts_first_arrow(self):
        assert e_tableau(T([1, 1, 1, 1, 1, 2], [2] * 4, [3] * 4), 1) == self.SOURCE

    def test_source_has_no_raising(self):
        for i in (1, 2):
            assert e_tableau(self.SOURCE, i) is None

    def test_roundtrip_random(self):
        rng = random.Random(9)
        pool = enumerate_ssyt((3, 2, 1), 4)
        for _ in range(100):
            t = pool[rng.randrange(len(pool))]
            i = rng.randint(1, 3)
            down = f_tableau(t, i)
            if down is not None:
                assert is_semistandard(down)
                assert shape_of(down) == shape_of(t)
                assert e_tableau(down, i) == t

    def test_commutes_with_reading(self):
        for t in enumerate_ssyt((2, 2, 1), 4):
            for i in (1, 2, 3):
                down = f_tableau(t, i)
                expected = f_word(reading_word(t), i)
                assert (down is None) == (expected is None)
                if down is not None:
                    assert reading_word(down) == expected

    def test_weight_moves_by_unit_step(self):
        for t in enumerate_ssyt((3, 1), 3):
            for i in (1, 2):
                down = f_tableau(t, i)
                if down is not None:
                    before = weight_of(t, 3)
                    after = weight_of(down, 3)
                    delta = tuple(a - b for a, b in zip(after, before))
                    expected = [0, 0, 0]
                    expected[i - 1] = -1
                    expected[i] = 1
                    assert delta == tuple(expected)


class TestGenerateCrystal:
    def test_vertex_counts(self):
        assert len(generate_crystal((4, 3), 4).vertices) == 140
        assert len(generate_crystal((4, 3), 5).vertices) == 560

    def test_single_box_chain(self):
        G = generate_crystal((1,), 3)
        assert [list(row) for v in G.vertices for row in v] == [[1], [2], [3]]
        assert G.edges == ((0, 1, 1), (1, 2, 2))

    def test_empty_when_alphabet_too_small(self):
        G = generate_crystal((2, 1, 1), 2)
        assert G.vertices == () and G.source is None

    def test_alphabet_bound_must_be_an_integer(self):
        for bound in (2.5, None):
            with pytest.raises(InvalidParameters, match="expected integers for max_entry"):
                generate_crystal((2, 1), bound)
        with pytest.raises(InvalidParameters, match="max_entry must be >= 1"):
            generate_crystal((2, 1), 0)

    def test_degree_bounds_and_unique_endpoints(self):
        G = generate_crystal((2, 2), 3)
        assert len(G.sources()) == 1 and len(G.sinks()) == 1
        for v in range(len(G.vertices)):
            assert len(G.out_edges(v)) <= G.max_entry - 1
            assert len(G.in_edges(v)) <= G.max_entry - 1

    def test_vertex_set_matches_enumeration(self):
        G = generate_crystal((3, 1), 3)
        assert sorted(G.vertices) == sorted(enumerate_ssyt((3, 1), 3))

    def test_source_is_highest_weight(self):
        G = generate_crystal((3, 2), 4)
        assert G.vertices[G.source] == highest_weight_tableau((3, 2))

    def test_generation_deterministic(self):
        a = generate_crystal((3, 2), 4)
        b = generate_crystal((3, 2), 4)
        assert a.vertices == b.vertices and a.edges == b.edges

    def test_depth_law(self):
        G = generate_crystal((3, 2), 4)
        depths = G.depths()
        lam = sum(j * p for j, p in enumerate(shape_of(G.vertices[G.source]), 1))
        for k, t in enumerate(G.vertices):
            moment = sum(j * c for j, c in enumerate(weight_of(t, 4), 1))
            assert depths[k] == moment - lam

    def test_invalid_alphabet(self):
        with pytest.raises(InvalidParameters):
            generate_crystal((2, 1), 0)

    def test_replace_derives_its_own_adjacency(self):
        G = generate_crystal((2,), 3)
        before = [(dict(G.out_edges(k)), dict(G.in_edges(k)))
                  for k in range(len(G.vertices))]
        H = replace(G, edges=((0, 5, 2),))
        assert H.out_edges(0) == {2: 5} and H.in_edges(5) == {2: 0}
        assert H.out_edges(1) == {} and H.in_edges(1) == {}
        assert H.index_of(G.vertices[5]) == 5
        assert [(G.out_edges(k), G.in_edges(k))
                for k in range(len(G.vertices))] == before
        assert H != G and replace(H, edges=G.edges) == G

    def test_matches_per_operator_bfs(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                for n in range(len(shape), 7):
                    G = generate_crystal(shape, n)
                    expected = bfs_by_operator(highest_weight_tableau(shape), n, f_tableau)
                    assert (G.vertices, G.edges) == expected, (shape, n)

    def test_adjacency_views_are_read_only(self):
        G = generate_crystal((2, 1), 3)
        for view in (G.out_edges(0), G.in_edges(1), G.out_edges(len(G.vertices) - 1)):
            with pytest.raises(TypeError):
                view[1] = 0
        assert dict(G.out_edges(0)) == {i: v for u, v, i in G.edges if u == 0}

    def test_full_invariant_domain(self):
        # generation laws over every shape of size <= 7, alphabet <= 5
        from qcrystals.verify import crystal_suite
        report = crystal_suite(max_size=7, alphabet=5)
        assert report.passed, report.details


class TestIntegerKeyedBfs:
    def test_edges_are_sorted_and_point_forward(self):
        # descent_classes reads each vertex's in-edges before its out-edges
        for m in range(1, 6):
            for shape in partitions_of(m):
                for n in range(1, 7):
                    G = generate_crystal(shape, n)
                    graphs = [G]
                    if G.words:
                        graphs += [word_crystal_component(G.words[-1][::-1], n),
                                   word_crystal_component(G.words[len(G.words) // 2][::-1], n)]
                    for H in graphs:
                        assert list(H.edges) == sorted(H.edges), (shape, n)
                        assert all(u < v for u, v, _ in H.edges), (shape, n)

    def test_the_seeded_crossing_masks_equal_the_recomputed_ones(self):
        # bit i of a mask: some i+1 comes before some i in the word
        def by_slicing(w):
            return sum(1 << i for i in set(w) if i + 1 in w and i in w[w.index(i + 1):])

        for m in range(1, 7):
            for shape in partitions_of(m):
                for n in range(1, 7):
                    G = generate_crystal(shape, n)
                    graphs = [G]
                    if G.words:
                        graphs += [word_crystal_component(G.words[-1][::-1], n),
                                   word_crystal_component(G.words[len(G.words) // 2][::-1], n)]
                    for H in graphs:
                        # the BFS seeds them; an empty crystal has no BFS
                        assert ("_crossings" in vars(H)) == bool(H.words), (shape, n)
                        recomputed = replace(H, edges=H.edges)._crossings
                        assert H._crossings == recomputed, (shape, n)
                        assert list(recomputed) == list(map(by_slicing, H.words)), (shape, n)

    @pytest.mark.parametrize("shape, n", [((1,), 300), ((300,), 2)])
    def test_large_alphabet_or_long_word_matches_the_operator_bfs(self, shape, n):
        G = generate_crystal(shape, n)
        start = reading_word(highest_weight_tableau(shape))
        # the per-operator BFS is keyed by the words themselves
        assert (G.words, G.edges) == bfs_by_operator(start, n, f_word)
        assert len(G.words) == len(set(G.words)) == hook_content_count(shape, n)
        assert G.vertices == tuple((w,) for w in G.words)

    def test_letters_above_255_match_the_operator_bfs(self):
        C = word_crystal_component((300,), 301)
        assert C.words[0] == (1,) and (300,) in C.words
        assert (C.words, C.edges) == bfs_by_operator((1,), 301, f_word)

    def test_the_bfs_calls_no_checked_operator(self, monkeypatch):
        from qcrystals import crystal

        def refuse(*args):
            raise AssertionError("checked operator called")

        for name in ("_checked_reduction", "paren_reduce", "f_word", "e_word", "f_tableau",
                     "e_tableau"):
            monkeypatch.setattr(crystal, name, refuse)
        assert len(generate_crystal((3, 2), 4).words) == hook_content_count((3, 2), 4)
        assert len(word_crystal_component((3, 1, 2), 3).words) == 8


class TestStoredOnReadingWords:
    def test_fields(self):
        assert [f.name for f in fields(CrystalGraph)] == \
            ["words", "edges", "source", "max_entry", "shape"]

    def test_words_are_the_reading_words_of_the_vertices(self):
        for m in range(1, 6):
            for shape in partitions_of(m):
                for n in range(1, 6):
                    G = generate_crystal(shape, n)
                    assert G.shape == shape and len(G.words) == len(G.vertices)
                    for k, vertex in enumerate(G.vertices):
                        assert G.words[k] == reading_word(vertex), (shape, n, k)

    def test_vertices_are_cut_on_first_use(self):
        G = generate_crystal((3, 2), 4)
        assert "vertices" not in vars(G)
        assert G.index_of(G.vertices[7]) == 7 and "vertices" in vars(G)

    def test_kind_follows_the_shape(self):
        empty = generate_crystal((2, 1, 1), 2)
        assert (empty.words, empty.shape, empty.kind) == ((), (2, 1, 1), "tableau")
        assert empty.vertices == ()
        word = word_crystal_component((), 3)
        assert (word.words, word.shape, word.kind) == (((),), None, "word")
        assert word.vertices is word.words

    def test_replace_keeps_the_words(self):
        G = generate_crystal((2, 1), 3)
        H = replace(G, edges=G.edges[:2])
        assert H.words is G.words and H.shape == G.shape
        assert H.vertices == G.vertices and H.edges == G.edges[:2]


class TestWordCrystal:
    def test_component_of_figure_word(self):
        w = (3, 3, 1, 2, 2, 3, 3, 1, 1, 1, 2, 2, 1, 1)
        C = word_crystal_component(w, 3)
        assert len(C.vertices) == 6
        assert w in C.vertices

    def test_two_letter_chain(self):
        C = word_crystal_component((1, 1), 2)
        assert C.vertices == ((1, 1), (1, 2), (2, 2))

    def test_singleton(self):
        C = word_crystal_component((1,), 1)
        assert C.vertices == ((1,),)
        assert C.edges == ()

    def test_matches_per_operator_bfs(self):
        words = [w for length in range(1, 6) for w in product((1, 2, 3), repeat=length)]
        rng = random.Random(5)
        words += [tuple(rng.randint(1, 5) for _ in range(6)) for _ in range(30)]
        for w in words:
            n = max(w)
            C = word_crystal_component(w, n)
            assert all(e_word(C.vertices[0], i) is None for i in range(1, n))
            assert (C.vertices, C.edges) == bfs_by_operator(C.vertices[0], n, f_word), w
            assert w in C.vertices

    @pytest.mark.parametrize("w, bound", [((1, 2), 1.5), ((1, 1), 1.5), ((1,), None)])
    def test_alphabet_bound_must_be_an_integer(self, w, bound):
        with pytest.raises(InvalidParameters, match="expected integers for max_entry"):
            word_crystal_component(w, bound)

    @pytest.mark.parametrize("w", [(1, "a"), (1, 1.5)])
    def test_letters_must_be_integers(self, w):
        with pytest.raises(InvalidParameters, match="expected integers for letters"):
            word_crystal_component(w, 3)

    def test_list_word_is_read_as_a_tuple(self):
        C = word_crystal_component([2, 1], 3)
        assert C == word_crystal_component((2, 1), 3) and (2, 1) in C.vertices

    def test_reachable_from_any_member(self):
        base = word_crystal_component((2, 1, 2), 3)
        for w in base.vertices:
            assert word_crystal_component(w, 3).vertices == base.vertices
