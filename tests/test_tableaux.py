import gc
import time
from itertools import chain
from math import comb, factorial

import pytest

from qcrystals.errors import EmptyInput, EntryOutOfRange, InvalidParameters
from qcrystals.symfunc import f_to_monomials
from qcrystals.tableaux import (
    _standard_fill, band_cells, band_letters, bands_mergeable, check_composition,
    check_partition, compositions_of, count_bm, count_ssyt_formula, descent_composition,
    descent_count_census, max_descent_composition_length,
    destandardize, enumerate_ssyt, enumerate_syt, enumerate_syt_by_parts,
    highest_weight_tableau, hook_content_count, hook_length_count, is_horizontal_band, kostka,
    is_partition, is_semistandard, is_standard, minimal_parsing, partitions_of,
    reading_rows, reading_word, refines, shape_of, sources_of_type,
    standardize_tableau, standardize_word,
    descent_set_to_composition, from_rows, syt_descent_compositions,
    tableau_descent_set, weight_of, word_descent_composition,
)


def T(*rows):
    return tuple(tuple(r) for r in rows)


class TestFromRows:
    @pytest.mark.parametrize("rows", [[[1.5, 2], [3.2]], [[1, 2.0]], [["1"]], [[None]], [1]])
    def test_non_integer_entries_rejected(self, rows):
        # int() would truncate 1.5 to 1 and read "1" as 1
        with pytest.raises(InvalidParameters):
            from_rows(rows)


class TestPartitions:
    def test_single(self):
        assert partitions_of(1) == [(1,)]

    def test_four(self):
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_seven_count(self):
        assert len(partitions_of(7)) == 15

    def test_max_length(self):
        assert partitions_of(4, max_length=2) == [(4,), (3, 1), (2, 2)]

    def test_counts_against_syt_oracle(self):
        # p(m) values are a classical sequence; enumerate independently
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for m, count in expected.items():
            assert len(partitions_of(m)) == count

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameters):
            partitions_of(0)

    @pytest.mark.parametrize("call, m", [
        (partitions_of, "x"), (partitions_of, 1.5), (compositions_of, 1.5),
        (compositions_of, None),
        *[(lambda n: partitions_of(5, max_length=n), n) for n in ("x", 1.5, -1)],
    ], ids=["partitions-string", "partitions-float", "compositions-float",
            "compositions-none", "max-length-string", "max-length-float",
            "max-length-negative"])
    def test_rejects_non_integers(self, call, m):
        # each once raised a bare TypeError
        with pytest.raises(InvalidParameters):
            call(m)


class TestRefines:
    def test_incomparable_refinements_of_2425(self):
        assert refines((2, 4, 2, 5), (2, 1, 3, 2, 4, 1))
        assert refines((2, 4, 2, 5), (1, 1, 3, 1, 2, 1, 1, 1, 1, 1))

    def test_reflexive(self):
        assert refines((3,), (3,))

    def test_blocks_cannot_reorder(self):
        assert not refines((2, 1), (1, 2))

    def test_size_mismatch(self):
        assert not refines((2,), (3,))

    def test_partial_order_small(self):
        for m in range(1, 7):
            comps = compositions_of(m)
            for a in comps:
                assert refines(a, a)
                for b in comps:
                    if refines(a, b) and refines(b, a):
                        assert a == b
                    if refines(a, b):
                        for c in comps:
                            if refines(b, c):
                                assert refines(a, c)


class TestWordDescents:
    def test_paper_reading_word(self):
        # runs of 534223511234 are 5 | 34 | 2235 | 11234
        w = (5, 3, 4, 2, 2, 3, 5, 1, 1, 2, 3, 4)
        assert word_descent_composition(w) == (1, 2, 4, 5)

    def test_no_descents(self):
        assert word_descent_composition((1, 1, 1, 1)) == (4,)

    def test_all_descents(self):
        assert word_descent_composition((4, 3, 2, 1)) == (1, 1, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            word_descent_composition(())


class TestStandardizeWord:
    def test_relabels_value_groups_left_to_right(self):
        w = (1, 3, 3, 1, 2, 3, 3, 3, 1, 2, 2, 3, 3)
        std = standardize_word(w)
        # three 1s, three 2s, seven 3s
        assert std == (1, 7, 8, 2, 4, 9, 10, 11, 3, 5, 6, 12, 13)
        assert word_descent_composition(std) == word_descent_composition(w)

    def test_already_standard(self):
        assert standardize_word((1, 2, 3)) == (1, 2, 3)

    def test_permutation_fixed(self):
        for w in [(2, 1, 3), (3, 1, 2), (1, 3, 2, 4)]:
            assert standardize_word(w) == w


class TestReadingWord:
    def test_paper_example(self):
        t = T([1, 1, 2, 3, 4], [2, 2, 3, 5], [3, 4], [5])
        assert reading_word(t) == (5, 3, 4, 2, 2, 3, 5, 1, 1, 2, 3, 4)

    def test_single_row(self):
        assert reading_word(T([1, 1, 2])) == (1, 1, 2)

    def test_single_column(self):
        assert reading_word(T([1], [2], [3])) == (3, 2, 1)

    def test_rows_cut_the_word_back_into_the_tableau(self):
        for shape in [(1,), (3,), (1, 1, 1), (4, 2, 1), (3, 3, 2)]:
            for t in enumerate_ssyt(shape, 4):
                w = reading_word(t)
                assert tuple(w[row] for row in reading_rows(shape)) == t


class TestMinimalParsing:
    def test_band_filling_example(self):
        t = T([1, 1, 2, 3], [2, 2, 3], [3], [4])
        assert minimal_parsing(t).type == (2, 3, 3, 1)

    def test_coarser_bands_example(self):
        t = T([1, 1, 2, 2, 3, 3], [2, 3, 3, 3], [3])
        assert minimal_parsing(t).type == (2, 3, 6)

    def test_highest_weight_rows_are_bands(self):
        t = highest_weight_tableau((5, 4, 2))
        assert minimal_parsing(t).type == (5, 4, 2)

    def test_bands_are_horizontal_and_maximal(self):
        for shape in [(3, 2), (2, 2, 1), (4, 3)]:
            for t in enumerate_ssyt(shape, 4):
                parsing = minimal_parsing(t)
                for band in range(1, len(parsing.type) + 1):
                    cells = band_cells(parsing, band)
                    values = [t[i][j] for i, j in cells]
                    assert is_horizontal_band(cells, values)
                    if band < len(parsing.type):
                        assert not bands_mergeable(t, parsing, band)

    def test_band_sizes_match_type(self):
        t = T([1, 1, 3, 5], [2, 3, 4], [4], [7])
        parsing = minimal_parsing(t)
        for band, size in enumerate(parsing.type, 1):
            assert len(band_cells(parsing, band)) == size

    def test_agrees_with_greedy_merge_oracle(self):
        # independent route: merge whole entry groups left to right while the
        # union stays a horizontal band with weakly increasing values
        from qcrystals.tableaux import max_entry

        def greedy_type(t):
            groups = {}
            for i, row in enumerate(t):
                for j, v in enumerate(row):
                    groups.setdefault(v, []).append((i, j))
            lengths, cells, values = [], [], []
            for v in range(1, max_entry(t) + 1):
                group = groups.get(v, [])
                if not group:
                    continue
                vals = [v] * len(group)
                if cells and is_horizontal_band(cells + group, values + vals):
                    cells += group
                    values += vals
                else:
                    if cells:
                        lengths.append(len(cells))
                    cells, values = list(group), vals
            lengths.append(len(cells))
            return tuple(lengths)

        for m in range(1, 7):
            for shape in partitions_of(m):
                for t in enumerate_ssyt(shape, min(m, 5)):
                    assert greedy_type(t) == descent_composition(t), t


class TestDescentComposition:
    def test_standard_tableau(self):
        assert descent_composition(T([1, 2, 5, 8], [3, 4, 7], [6], [9])) == (2, 3, 3, 1)

    def test_same_parsing_same_composition(self):
        assert descent_composition(T([1, 1, 3, 5], [2, 3, 4], [4], [7])) == (2, 3, 3, 1)

    def test_highest_weight(self):
        assert descent_composition(highest_weight_tableau((4, 2, 1))) == (4, 2, 1)

    def test_matches_descent_set(self):
        t = T([1, 2, 5, 8], [3, 4, 7], [6], [9])
        assert tableau_descent_set(t) == (2, 5, 8)

    def test_matches_standardization_route(self):
        for m in range(1, 8):
            for shape in partitions_of(m):
                for t in enumerate_ssyt(shape, 5):
                    slow = descent_set_to_composition(
                        tableau_descent_set(standardize_tableau(t)), m)
                    assert descent_composition(t) == slow, t

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            descent_composition(())

    def test_rows_of_no_cells_rejected(self):
        with pytest.raises(EmptyInput):
            descent_composition(((),))


class TestStandardizeTableau:
    def test_band_example(self):
        t = T([1, 1, 2, 3], [2, 2, 3], [3], [4])
        assert standardize_tableau(t) == T([1, 2, 5, 8], [3, 4, 7], [6], [9])

    def test_standard_fixed(self):
        t = T([1, 3], [2, 4])
        assert standardize_tableau(t) == t

    def test_same_parsing_standardizes_equally(self):
        t = T([1, 1, 3, 5], [2, 3, 4], [4], [7])
        assert standardize_tableau(t) == T([1, 2, 5, 8], [3, 4, 7], [6], [9])

    def test_descent_composition_preserved(self):
        for shape in [(3, 2), (2, 2), (3, 1, 1)]:
            for t in enumerate_ssyt(shape, 4):
                std = standardize_tableau(t)
                assert is_standard(std)
                assert shape_of(std) == shape
                assert descent_composition(std) == descent_composition(t)


class TestPredicates:
    @pytest.mark.parametrize("bad", [
        None, "x", 1.5, ((1, "a"),), ("a",), [[1.5, 2]], (2.0, 1.0), [None]])
    def test_answer_false_for_a_non_integer_object(self, bad):
        assert is_partition(bad) is False
        assert is_semistandard(bad) is False
        assert is_standard(bad) is False

    def test_integer_inputs(self):
        assert is_partition([3, 1, 1]) and is_partition(())
        assert not is_partition((1, 2)) and not is_partition((2, 0))
        assert is_semistandard([[1, 1], [2]]) and is_standard(((1, 2), (3,)))
        assert not is_semistandard(((0, 1),)) and not is_semistandard(((1,), ()))
        assert not is_standard(((1, 1), (2,)))


class TestEnumeration:
    def test_ssyt_counts(self):
        assert len(enumerate_ssyt((4, 3), 4)) == 140
        assert len(enumerate_ssyt((1,), 3)) == 3
        assert len(enumerate_ssyt((2, 2), 2)) == 1

    def test_ssyt_all_valid_and_distinct(self):
        seen = enumerate_ssyt((3, 2), 4)
        assert len(set(seen)) == len(seen)
        assert all(is_semistandard(t) for t in seen)

    def test_ssyt_sorted_by_reading_word(self):
        seen = enumerate_ssyt((2, 1), 3)
        assert [reading_word(t) for t in seen] == sorted(reading_word(t) for t in seen)

    def test_long_row_needs_no_recursion(self):
        # a cell-by-cell recursion would pass the interpreter's depth limit
        ssyt = enumerate_ssyt((1000,), 2)
        assert len(ssyt) == 1001
        assert ssyt[0] == ((1,) * 1000,) and ssyt[-1] == ((2,) * 1000,)

    def test_syt_counts(self):
        assert len(enumerate_syt((4, 3))) == 14
        assert len(enumerate_syt((5,))) == 1
        assert len(enumerate_syt((2, 1))) == 2

    @pytest.mark.parametrize("fn, args", [
        (enumerate_syt, ((4, 3, 2),)),
        (enumerate_syt_by_parts, ((4, 3, 2), 4)),
        (enumerate_ssyt, ((3, 2), 4)),
        (partitions_of, (7,)),
        (compositions_of, (6,)),
        (f_to_monomials, ((2, 3, 2), 4)),
    ], ids=["enumerate_syt", "enumerate_syt_by_parts", "enumerate_ssyt",
            "partitions_of", "compositions_of", "f_to_monomials"])
    def test_leaves_no_reference_cycles(self, fn, args):
        gc.disable()
        try:
            gc.collect()
            fn(*args)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ssyt_against_hook_content_formula(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                for n in range(0, 7):
                    assert hook_content_count(shape, n) == (
                        len(enumerate_ssyt(shape, n)) if n >= 1 else 0)
        assert hook_content_count((6, 5, 4), 12) == 1265384120

    def test_hook_formulas_against_the_per_cell_products(self):
        # every shape of size <= 12, then shapes past the 64 factors at
        # which the product splits in halves
        big = [(65,), (100, 1), (33, 32), (40, 30, 20, 10), tuple(range(20, 0, -1)),
               (1,) * 129, (300, 200, 100, 3)]
        for shape in [*chain.from_iterable(map(partitions_of, range(1, 13))), *big]:
            m = sum(shape)
            hook_count = _hook_length_count_per_cell(shape)
            assert hook_length_count(shape) == hook_count
            for n in (len(shape), len(shape) + 1, m, m + 3, 40):
                assert hook_content_count(shape, n) == \
                    _hook_content_count_per_cell(shape, n, hook_count)

    def test_hook_formulas_on_a_row_of_100000(self):
        start = time.perf_counter()
        assert hook_length_count((100000,)) == 1
        assert hook_content_count((100000,), 1) == 1
        # about 1 s on a 2-vCPU VM; a running product a cell at a time took 7 s
        assert time.perf_counter() - start < 4.0

    def test_syt_against_hook_oracle(self):
        for m in range(1, 8):
            for shape in partitions_of(m):
                assert len(enumerate_syt(shape)) == hook_length_count(shape)

    def test_pruned_fill_equals_the_filtered_enumeration(self):
        for m in range(1, 9):
            for shape in partitions_of(m):
                parts = [(T, len(descent_composition(T))) for T in enumerate_syt(shape)]
                for n in range(0, m + 2):
                    assert enumerate_syt_by_parts(shape, n) == [
                        T for T, s in parts if s <= n]
        # one of the 1,662,804 standard tableaux of 5,5,5,5 has 3 descents
        assert enumerate_syt_by_parts((5, 5, 5, 5), 4) == [
            tuple(tuple(range(5 * r + 1, 5 * r + 6)) for r in range(4))]


def _syt_by_recursive_fill(shape, max_parts):
    """The standard tableaux whose descent composition has at most max_parts
    parts, by the fill that once listed them: one call per label, entries
    placed in increasing order and a branch cut past max_parts parts;
    sorted by reading word."""
    m = sum(shape)
    rows = [[] for _ in shape]
    out = []

    def place(k, last_row, parts):
        if k > m:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(shape)):
            row = rows[i]
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                parts_now = parts + (i > last_row)
                if parts_now > max_parts:
                    break  # every later row is lower too
                row.append(k)
                place(k + 1, i, parts_now)
                row.pop()

    place(1, -1, 0)  # entry 1 starts the first part
    del place
    out.sort(key=reading_word)
    return out


def band_filling(q):
    """Reading word of destandardize(Q, descent_composition(Q)), from the
    reading word q of the standard tableau Q: label k+1 opens a new band,
    the next letter, iff k+1 comes before k in q, a descent of Q."""
    at = [0] * (len(q) + 1)
    for pos, label in enumerate(q):
        at[label] = pos
    letter_of = [0, 1]
    for label in range(2, len(q) + 1):
        letter_of.append(letter_of[-1] + (at[label] < at[label - 1]))
    return tuple(letter_of[label] for label in q)


class TestStandardFill:
    def test_equals_the_recursive_fill_through_size_10(self):
        # same tableaux in the same order at every part bound
        for m in range(1, 11):
            for shape in partitions_of(m):
                for n in range(0, m + 2):
                    assert enumerate_syt_by_parts(shape, n) == _syt_by_recursive_fill(shape, n)

    def test_band_letters_are_the_band_fillings(self):
        for m in range(1, 10):
            for shape in partitions_of(m):
                listed = _standard_fill(shape, m)
                assert [q for q, _ in listed] == list(map(reading_word, enumerate_syt(shape)))
                assert all(w == band_filling(q) for q, w in listed)
                assert syt_descent_compositions(shape) == tuple(
                    map(descent_composition, enumerate_syt(shape)))

    @pytest.mark.parametrize("shape, word", [
        ((1200,), tuple(range(1, 1201))), ((1,) * 1200, tuple(range(1200, 0, -1))),
    ], ids=["row", "column"])
    def test_a_long_shape_needs_no_recursion(self, shape, word):
        # the recursive fill passed the interpreter's depth limit here
        (Q,) = enumerate_syt(shape)
        assert reading_word(Q) == word
        assert syt_descent_compositions(shape) == (word_descent_composition(word),)

    def test_empty_shape(self):
        for call in (lambda: enumerate_syt(()), lambda: enumerate_syt_by_parts((), 3),
                     lambda: syt_descent_compositions(())):
            with pytest.raises(EmptyInput, match="empty tableau"):
                call()


def _hook_length_count_per_cell(shape):
    """|shape|! over the hooks, multiplied into one running product a cell at a time."""
    conjugate = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    product = 1
    for i, r in enumerate(shape):
        for j in range(r):
            product *= (r - j) + (conjugate[j] - i) - 1
    return factorial(sum(shape)) // product


def _hook_content_count_per_cell(shape, n, hook_count):
    """The hook-length count times the contents n + c - r, one cell at a time, over |shape|!."""
    product = 1
    for r, length in enumerate(shape):
        for c in range(length):
            product *= n + c - r
    return hook_count * product // factorial(sum(shape))


class TestHighestWeight:
    def test_example(self):
        assert highest_weight_tableau((5, 4, 2)) == T([1] * 5, [2] * 4, [3, 3])

    def test_single_cell(self):
        assert highest_weight_tableau((1,)) == T([1])

    def test_square(self):
        assert highest_weight_tableau((2, 2)) == T([1, 1], [2, 2])


class TestSourcesOfType:
    def test_two_sources(self):
        sources = sources_of_type((4, 3), (2, 3, 2))
        assert len(sources) == 2
        for t in sources:
            assert weight_of(t, 3) == (2, 3, 2)
            assert descent_composition(t) == (2, 3, 2)

    def test_highest_weight_source(self):
        assert sources_of_type((4, 3), (4, 3)) == [highest_weight_tableau((4, 3))]

    def test_absent_type(self):
        assert sources_of_type((4, 3), (1, 1, 5)) == []

    def test_distinct_syt_distinct_sources(self):
        for alpha in set(syt_descent_compositions((4, 3))):
            sources = sources_of_type((4, 3), alpha)
            assert len(set(sources)) == len(sources)

    def test_size_mismatch(self):
        with pytest.raises(InvalidParameters):
            sources_of_type((2, 1), (2, 2))

    def test_destandardize_roundtrip(self):
        for t, comp in zip(enumerate_syt((3, 2)), syt_descent_compositions((3, 2))):
            filled = destandardize(t, comp)
            assert standardize_tableau(filled) == t


class TestBandLetters:
    def test_example(self):
        assert band_letters((2, 1, 3)) == (1, 1, 2, 3, 3, 3)
        assert destandardize(T([1, 2, 4], [3, 5, 6]), (2, 1, 3)) == T([1, 1, 3], [2, 3, 3])

    def test_rejects_all_but_a_standard_tableau_of_the_size(self):
        for t in (T([1, 2], [3]), T([0, 1]), T([1, 1], [2]), T([1, 3], [2, 5])):
            with pytest.raises(InvalidParameters):
                destandardize(t, (2, 2))

    def test_band_filling_is_the_reading_word_of_the_source(self):
        # every standard tableau of size <= 8: the reading-word form used by
        # the skeleton against the tableau form
        for m in range(1, 9):
            for shape in partitions_of(m):
                for Q in enumerate_syt(shape):
                    assert band_filling(reading_word(Q)) == reading_word(
                        destandardize(Q, descent_composition(Q)))


class TestWeightOf:
    def test_counts(self):
        assert weight_of(((1, 1, 2), (2, 3)), 4) == (2, 2, 1, 0)
        assert weight_of(((1, 3),)) == (1, 0, 1)
        assert weight_of((), 2) == (0, 0)

    def test_entries_outside_alphabet_rejected(self):
        for T, n in [(((1, 3),), 2), (((0,),), 2), (((0, 1),), None), (((-1,),), 3)]:
            with pytest.raises(EntryOutOfRange):
                weight_of(T, n)


class TestCountingInputs:
    # each of these once truncated a float, or raised a bare TypeError or
    # ValueError
    @pytest.mark.parametrize("call, args", [
        (check_partition, ((2.5, 1),)),
        (check_partition, (["x"],)),
        (check_composition, ((1.5, 2),)),
        (kostka, ((2,), (2.7, 0.9))),
        (count_bm, (2.5, 2)),
        (count_bm, (2, 2.5)),
        (count_ssyt_formula, ((2, 1), 2.5)),
        (hook_content_count, ((2, 1), 2.5)),
        (enumerate_ssyt, ((2, 1), 2.5)),
    ], ids=["partition-float", "partition-string", "composition-float", "kostka-weight",
            "bm-size", "bm-alphabet", "ssyt-alphabet", "hook-content-alphabet",
            "enumeration-alphabet"])
    def test_non_integers_are_rejected(self, call, args):
        with pytest.raises(InvalidParameters):
            call(*args)

    def test_empty_shape(self):
        with pytest.raises(EmptyInput):
            kostka((), ())
        with pytest.raises(EmptyInput, match="empty tableau"):
            hook_length_count(())
        assert count_ssyt_formula((), 3) == 0


def _census_by_forward_substitution(shape):
    """The descent census by the unit lower-triangular solve it once used.

    The count at alphabet d + 1 is the sum over j <= d of c_j C(m+d-j, m),
    and c_d's coefficient is C(m, m) = 1; so c_0, c_1, ... follow in turn
    from the hook-content counts at 1..m."""
    m = sum(shape)
    census = {}
    for d in range(m):
        c = hook_content_count(shape, d + 1) - sum(
            count * comb(m + d - j, m) for j, count in census.items())
        if c:
            census[d] = c
    return census


class TestDescentCensus:
    def test_matches_the_forward_substitution(self):
        for m in range(1, 13):
            for shape in partitions_of(m):
                assert descent_count_census(shape) == _census_by_forward_substitution(shape)

    def test_keys_run_over_the_stable_range(self):
        for m in range(1, 11):
            for shape in partitions_of(m):
                census = descent_count_census(shape)
                assert min(census) == len(shape) - 1
                assert max(census) == m - shape[0] == max_descent_composition_length(shape) - 1
                assert sum(census.values()) == hook_length_count(shape)

    def test_two_long_rows(self):
        # the forward substitution took about 18 s for n = 5
        for n in range(1, 7):
            assert count_ssyt_formula((500, 500), n) == hook_content_count((500, 500), n)

    @pytest.mark.parametrize("shape, census", [((20000,), {0: 1}), ((1,) * 2000, {1999: 1})],
                             ids=["row", "column"])
    def test_one_row_and_one_column_within_2_s(self, shape, census):
        # one value of the census each; the forward substitution took 6 s
        # for the row of 2,000 cells
        start = time.perf_counter()
        assert descent_count_census(shape) == census
        assert time.perf_counter() - start < 2.0

    def test_empty_shape(self):
        assert descent_count_census(()) == {}
        assert count_ssyt_formula((), 3) == 0
