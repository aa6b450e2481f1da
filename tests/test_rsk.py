import importlib
import random

import pytest

from qcrystals.crystal import e_word, f_tableau, f_word, generate_crystal
from qcrystals.errors import EmptyInput, EntryOutOfRange, InvalidPair, InvalidParameters
from qcrystals.rsk import (
    RskPair, SkewTableau, evacuate, jdt_rectify, rot_word,
    rotate180_complement, rsk, rsk_inverse, rsk_of_rot, skew_from_rows,
    skew_reading_word,
)
from qcrystals.tableaux import (
    descent_composition, enumerate_ssyt, is_semistandard, partitions_of, reading_word,
    word_descent_composition,
)


def T(*rows):
    return tuple(tuple(r) for r in rows)


def random_word(rng, max_n=4, max_len=9):
    n = rng.randint(1, max_n)
    return tuple(rng.randint(1, n) for _ in range(rng.randint(1, max_len))), n


class TestRsk:
    def test_recording_tableau_of_figure_word(self):
        w = (3, 3, 1, 2, 2, 3, 3, 1, 1, 1, 2, 2, 1, 1)
        P, Q = rsk(w)
        assert P == T([1] * 6, [2] * 4, [3] * 4)
        assert Q == T([1, 2, 5, 6, 7, 12], [3, 4, 10, 11], [8, 9, 13, 14])
        assert descent_composition(Q) == (2, 5, 5, 2)

    def test_straight_reading_words_insert_to_themselves(self):
        for shape in [(3, 2), (2, 2, 1), (4, 1)]:
            for t in enumerate_ssyt(shape, 4):
                assert rsk(reading_word(t)).P == t

    def test_decreasing_word(self):
        P, Q = rsk((3, 2, 1))
        assert P == T([1], [2], [3])
        assert Q == T([1], [2], [3])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            rsk(())

    def test_letters_below_one_rejected(self):
        for w in [(0,), (2, 1, 0), (1, -3)]:
            with pytest.raises(EntryOutOfRange):
                rsk(w)

    def test_recording_descents_match_word(self):
        rng = random.Random(2)
        for _ in range(200):
            w, _ = random_word(rng)
            assert descent_composition(rsk(w).Q) == word_descent_composition(w)

    def test_recording_descents_exhaustive(self):
        for n in (1, 2, 3):
            words = [()]
            for _ in range(7):
                words = [w + (x,) for w in words for x in range(1, n + 1)]
                for w in words:
                    assert descent_composition(rsk(w).Q) == \
                        word_descent_composition(w)


class TestNonIntegers:
    """Letters and entries that are not integers raise InvalidParameters, naming them."""

    @pytest.mark.parametrize("call, arg, named", [
        (rsk, (1, "a"), "letters"),
        (rsk, (1.5, 2), "letters"),
        (rsk, (0, "a"), "letters"),  # checked before the range
        (rsk_inverse, RskPair(((1, "a"),), ((1, 2),)), "tableau entries"),
        (rsk_inverse, RskPair(((1, 2),), ((1, 2.0),)), "tableau entries"),
    ])
    def test_rejected(self, call, arg, named):
        with pytest.raises(InvalidParameters, match=named):
            call(arg)


class TestRskInverse:
    def test_roundtrip_random(self):
        rng = random.Random(4)
        for _ in range(200):
            w, _ = random_word(rng, max_n=4, max_len=10)
            assert rsk_inverse(rsk(w)) == w

    def test_decreasing_word(self):
        assert rsk_inverse(rsk((3, 2, 1))) == (3, 2, 1)

    def test_singleton(self):
        assert rsk_inverse(rsk((2,))) == (2,)

    def test_malformed_pair(self):
        with pytest.raises(InvalidPair):
            rsk_inverse((T([1, 1]), T([1], [2])))
        with pytest.raises(InvalidPair):
            rsk_inverse((T([1, 1]), T([1, 3])))

    @pytest.mark.parametrize("pair, named", [
        (None, "a pair"),
        (5, "a pair"),
        ((T([1]),), "a pair"),
        ((T([1]), T([1]), T([1])), "a pair"),
        ((T([1]), 7), "rows"),
        ((7, T([1])), "rows"),
        ((((1, "a"),), 7), "integers for tableau entries"),  # P is checked before Q
    ])
    def test_not_a_pair_of_rows_rejected(self, pair, named):
        with pytest.raises(InvalidParameters, match=named):
            rsk_inverse(pair)


class TestJdt:
    def test_five_slide_example(self):
        S = skew_from_rows((3, 2, 0), [[1, 1], [2, 2, 3], [1, 2, 3]])
        assert jdt_rectify(S) == T([1, 1, 1, 2, 3], [2, 2], [3])

    def test_straight_shape_fixed(self):
        t = T([1, 1, 2], [2, 3])
        assert jdt_rectify(skew_from_rows((0,) * len(t), t)) == t

    def test_order_independent(self):
        rng = random.Random(8)
        S = skew_from_rows((2, 1), [[1, 1], [1, 2, 2]])
        base = jdt_rectify(S)
        for pick in (min, max, lambda corners: rng.choice(corners)):
            assert jdt_rectify(S, pick) == base

    def test_rectification_matches_insertion(self):
        S = skew_from_rows((3, 2, 0), [[1, 1], [2, 2, 3], [1, 2, 3]])
        assert jdt_rectify(S) == rsk(skew_reading_word(S)).P

    def test_invalid_skew_rejected(self):
        with pytest.raises(InvalidPair):
            jdt_rectify(skew_from_rows((1, 2), [[1], [1]]))

    def test_inner_shorter_than_the_rows_rejected(self):
        with pytest.raises(InvalidPair):
            jdt_rectify(skew_from_rows((1,), [[1], [2]]))

    @pytest.mark.parametrize("inner, rows", [((1.5,), [[1]]), ((1,), [[1.0, 2]]),
                                             ((0,), [["2"]])])
    def test_non_integer_skew_rejected(self, inner, rows):
        with pytest.raises(InvalidParameters):
            skew_from_rows(inner, rows)


def _valid_by_grid(inner, rows):
    """Skew validity from the definition: both shapes weakly decreasing with
    inner >= 0, and the filled cells, placed on a grid, weakly increasing
    along rows and strictly increasing down columns."""
    if len(inner) != len(rows) or any(p < 0 for p in inner):
        return False
    outer = [p + len(row) for p, row in zip(inner, rows)]
    for shape in (inner, outer):
        if list(shape) != sorted(shape, reverse=True):
            return False
    grid = {(i, inner[i] + k): v for i, row in enumerate(rows) for k, v in enumerate(row)}
    for (i, j), v in grid.items():
        if (i, j + 1) in grid and v > grid[i, j + 1]:
            return False
        if (i + 1, j) in grid and v >= grid[i + 1, j]:
            return False
    return True


def _random_skew_parts(rng):
    """inner and rows, mostly well formed, sometimes broken in one way."""
    length = rng.randint(1, 4)
    inner = [rng.randint(0, 3) for _ in range(length)]
    if rng.random() < 0.8:
        inner.sort(reverse=True)
    if rng.random() < 0.1:
        inner[rng.randrange(length)] = -1
    if rng.random() < 0.1:
        inner = inner[:-1] if rng.random() < 0.5 else inner + [0]
    rows = []
    for _ in range(length):
        row = [rng.randint(1, 5) for _ in range(rng.randint(0, 3))]
        rows.append(sorted(row) if rng.random() < 0.9 else row)
    return tuple(inner), tuple(map(tuple, rows))


def _random_straight_rows(rng):
    """Rows of a tableau listed by enumerate_ssyt (a row of zeros when it lists
    none), or of one broken in one way: an entry changed, an empty row
    appended, or the rows reversed."""
    shape = rng.choice(partitions_of(rng.randint(1, 6)))
    tableaux = enumerate_ssyt(shape, rng.randint(1, 5))
    rows = [list(row) for row in (rng.choice(tableaux) if tableaux else ((0,) * shape[0],))]
    broken = rng.random()
    if broken < 0.3:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.randint(0, 6)
    elif broken < 0.4:
        rows.append([])
    elif broken < 0.5:
        rows.reverse()
    return tuple(map(tuple, rows))


class TestSkewValidity:
    @pytest.mark.parametrize("inner, rows, valid", [
        ((3, 2, 0), ((1, 1), (2, 2, 3), (1, 2, 3)), True),
        ((1, 0), ((1,), ()), True),
        ((2, 0), ((1,), (1, 1)), True),       # no cell of row 1 below row 0's
        ((-1, 0), ((1, 2), (3,)), False),     # negative inner
        ((0, -1), ((1,), (2,)), False),
        ((1,), ((1,), (2,)), False),          # inner shorter than the rows
        ((0, 1), ((1, 2), (3,)), False),      # inner not weakly decreasing
        ((0, 0), ((1,), (2, 3)), False),      # outer not weakly decreasing
        ((0,), ((2, 1),), False),             # row decreases
        ((0, 0), ((1, 2), (1, 3)), False),    # equal entries in a column
        ((1, 0), ((1, 2), (1, 3)), True),
    ])
    def test_cases(self, inner, rows, valid):
        assert SkewTableau(inner, rows).is_valid() is valid
        assert _valid_by_grid(inner, rows) is valid

    def test_agrees_with_the_grid_definition(self):
        rng = random.Random(31)
        verdicts = []
        for _ in range(3000):
            inner, rows = _random_skew_parts(rng)
            valid = SkewTableau(inner, rows).is_valid()
            assert valid is _valid_by_grid(inner, rows), (inner, rows)
            verdicts.append(valid)
        assert 300 < sum(verdicts) < 2700

    def test_semistandard_agrees_with_the_grid_definition(self):
        # a straight tableau: no empty row, positive entries, a zero inner shape
        rng = random.Random(32)
        verdicts = []
        for _ in range(3000):
            rows = _random_straight_rows(rng)
            valid = is_semistandard(rows)
            assert valid is (all(rows) and all(v >= 1 for row in rows for v in row)
                             and _valid_by_grid((0,) * len(rows), rows)), rows
            verdicts.append(valid)
        assert 300 < sum(verdicts) < 2700


class TestRotWord:
    def test_self_dual_chain(self):
        assert rot_word((1, 2, 3), 3) == (1, 2, 3)

    def test_reverse_and_complement(self):
        assert rot_word((1, 1, 2), 2) == (1, 2, 2)

    def test_involution_random(self):
        rng = random.Random(6)
        for _ in range(500):
            w, n = random_word(rng)
            assert rot_word(rot_word(w, n), n) == w

    def test_descent_reversal(self):
        rng = random.Random(7)
        for _ in range(200):
            w, n = random_word(rng)
            assert word_descent_composition(rot_word(w, n)) == tuple(
                reversed(word_descent_composition(w)))

    def test_out_of_range(self):
        with pytest.raises(EntryOutOfRange):
            rot_word((1, 3), 2)

    @pytest.mark.parametrize("w, n, named", [
        ((1, 2), None, "alphabet bound"),
        ((1, 2), 2.0, "alphabet bound"),
        ((1, "a"), 2, "letters"),
    ])
    def test_non_integers_rejected(self, w, n, named):
        with pytest.raises(InvalidParameters, match=named):
            rot_word(w, n)


class TestRotateComplement:
    def test_worked_example(self):
        S = rotate180_complement(T([1, 1, 2, 3], [2, 2, 3], [3], [4]), 4)
        assert S.inner == (3, 3, 1, 0)
        assert S.rows == ((1,), (2,), (2, 3, 3), (2, 3, 4, 4))

    def test_single_cell(self):
        S = rotate180_complement(T([1]), 1)
        assert S.inner == (0,) and S.rows == ((1,),)

    def test_reading_word_identity(self):
        rng = random.Random(10)
        shapes = [s for m in range(1, 6) for s in partitions_of(m) if len(s) <= 4]
        for _ in range(100):
            shape = rng.choice(shapes)
            pool = enumerate_ssyt(shape, 4)
            t = rng.choice(pool)
            assert skew_reading_word(rotate180_complement(t, 4)) == \
                rot_word(reading_word(t), 4)

    def test_entry_out_of_range(self):
        for t in (T([1, 3]), T([0, 1])):
            with pytest.raises(EntryOutOfRange):
                rotate180_complement(t, 2)

    @pytest.mark.parametrize("t, n, named", [
        (T([1, "a"]), 2, "tableau entries"),
        (T([1, 2]), "3", "alphabet bound"),
        (T([1, 2]), 2.5, "alphabet bound"),
    ])
    def test_non_integers_rejected(self, t, n, named):
        with pytest.raises(InvalidParameters, match=named):
            rotate180_complement(t, n)


class TestEvacuate:
    def test_worked_example(self):
        t = T([1, 1, 2, 3], [2, 2, 3], [3], [4])
        assert evacuate(t, 4) == T([1, 2, 2, 3], [2, 3, 4], [3], [4])

    def test_source_maps_to_sink(self):
        for shape, n in [((3, 2), 3), ((2, 2), 4), ((4, 3), 4)]:
            G = generate_crystal(shape, n)
            sink = G.sinks()[0]
            assert evacuate(G.vertices[G.source], n) == G.vertices[sink]

    def test_involution_exhaustive(self):
        for t in enumerate_ssyt((3, 2), 3):
            assert evacuate(evacuate(t, 3), 3) == t

    def test_default_alphabet_is_max_entry(self):
        t = T([1, 2], [2, 3])
        assert evacuate(t) == evacuate(t, 3)

    def test_entry_out_of_range(self):
        with pytest.raises(EntryOutOfRange):
            evacuate(T([1, 4]), 3)

    @pytest.mark.parametrize("t, n, error", [
        ((), 2, EmptyInput),
        (T([0, 1]), 2, EntryOutOfRange),
        (T([3, 1]), 2, EntryOutOfRange),  # out of range before not semistandard
        (T([2, 1]), 2, InvalidPair),
        (T([1, 2], [1]), 2, InvalidPair),
        (T([1], [2, 3]), 3, InvalidPair),
        (T([1.5, 2]), 2, InvalidParameters),
    ])
    def test_error_contract(self, t, n, error):
        with pytest.raises(error):
            evacuate(t, n)

    @pytest.mark.parametrize("t, n, named", [
        (T([1, "a"]), 2, "tableau entries"),
        (T([1, "a"]), None, "tableau entries"),
        (T([1, 2]), "3", "alphabet bound"),
        (T([1, 2]), 2.5, "alphabet bound"),
    ])
    def test_non_integers_are_named(self, t, n, named):
        with pytest.raises(InvalidParameters, match=named):
            evacuate(t, n)

    def test_needs_no_skew_tableau(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evacuation took the jeu de taquin route")
        module = importlib.import_module("qcrystals.rsk")  # qcrystals.rsk is the function
        monkeypatch.setattr(module, "jdt_rectify", refuse)
        monkeypatch.setattr(module, "SkewTableau", refuse)
        assert evacuate(T([1, 1, 2, 3], [2, 2, 3], [3], [4]), 4) == \
            T([1, 2, 2, 3], [2, 3, 4], [3], [4])

    def test_agrees_with_jeu_de_taquin_exhaustive(self):
        count = 0
        for m in range(1, 8):
            for shape in partitions_of(m):
                for n in range(1, 6):
                    for t in enumerate_ssyt(shape, n):
                        assert evacuate(t, n) == jdt_rectify(rotate180_complement(t, n)), t
                        count += 1
        assert count == 10334


class TestRotatedInsertion:
    def test_identity_random(self):
        rng = random.Random(12)
        for _ in range(300):
            w, n = random_word(rng)
            P, Q = rsk(w)
            RP, RQ = rsk_of_rot(w, n)
            assert RP == evacuate(P, n)
            assert RQ == evacuate(Q, len(w))

    def test_source_word_gives_evacuated_highest_weight(self):
        # the reading word of a highest-weight tableau raises to nothing
        w = reading_word(T([1, 1, 1], [2, 2]))
        n = 3
        assert all(e_word(w, i) is None for i in range(1, n))
        G = generate_crystal((3, 2), n)
        RP, _ = rsk_of_rot(w, n)
        assert RP == evacuate(G.vertices[G.source], n)
        assert RP == G.vertices[G.sinks()[0]]

    def test_single_letter(self):
        assert rsk_of_rot((1,), 1) == rsk((1,))

    def test_rotation_of_source_word_is_a_sink_word(self):
        # rotating a word with no raising moves gives one with no lowering moves
        from qcrystals.crystal import f_word
        for rows in [[[1, 1, 1], [2, 2]], [[1, 1], [2]], [[1, 1, 2, 2]]]:
            w = reading_word(tuple(tuple(r) for r in rows))
            n = max(w)
            if any(e_word(w, i) is not None for i in range(1, n)):
                continue
            r = rot_word(w, n)
            assert all(f_word(r, i) is None for i in range(1, n))


class TestOperatorIdentities:
    def test_insertion_commutes_with_lowering(self):
        rng = random.Random(13)
        for _ in range(200):
            w, n = random_word(rng)
            P = rsk(w).P
            for i in range(1, n):
                fw = f_word(w, i)
                if fw is not None:
                    assert rsk(fw).P == f_tableau(P, i)

    def test_rotation_is_operator_anti_automorphism(self):
        rng = random.Random(14)
        for _ in range(200):
            w, n = random_word(rng)
            for i in range(1, n):
                fw = f_word(w, i)
                if fw is not None:
                    assert rot_word(fw, n) == e_word(rot_word(w, n), n - i)

    def test_evacuation_is_crystal_anti_automorphism(self):
        n = 3
        for t in enumerate_ssyt((2, 2, 1), n):
            for i in range(1, n):
                down = f_tableau(t, i)
                if down is not None:
                    from qcrystals.crystal import e_tableau
                    assert evacuate(down, n) == e_tableau(evacuate(t, n), n - i)
