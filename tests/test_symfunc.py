import gc
import random
import re
import time
from collections import Counter
from itertools import product
from math import comb

import pytest

from qcrystals import symfunc
from qcrystals.decomposition import count_ssyt_formula
from qcrystals.errors import (
    DegreeMismatch, EmptyExpansion, EmptyInput, InvalidParameters, NotSymmetric,
    QCrystalsError,
)
from qcrystals.symfunc import (
    FExpansion, SchurExpansion, f_to_monomials, format_f_expansion,
    format_schur_expansion, is_schur_positive, leading_support,
    parse_f_expansion, parse_schur_expansion, plethysm_monomial_count,
    _schur_to_f_terms, _schurify_by_peeling, schur_expansion_to_f, schur_to_f, schurify,
)
from qcrystals.tableaux import (
    composition_to_descent_set, compositions_of, descent_composition_counts,
    enumerate_ssyt, partitions_of, syt_descent_compositions, weight_of,
)

FIG2_EXPANSION = {
    (4, 3): 1, (3, 4): 1, (3, 3, 1): 1, (2, 4, 1): 1, (3, 2, 2): 1,
    (2, 3, 2): 2, (2, 2, 3): 1, (1, 4, 2): 1, (1, 3, 3): 1, (2, 2, 2, 1): 1,
    (1, 3, 2, 1): 1, (1, 2, 3, 1): 1, (1, 2, 2, 2): 1,
}


class TestExpansionContainers:
    def test_zero_coefficients_dropped(self):
        assert FExpansion({(2, 1): 0, (3,): 2}).terms == {(3,): 2}

    def test_homogeneity_enforced(self):
        with pytest.raises(DegreeMismatch):
            FExpansion({(2, 1): 1, (2,): 1})

    def test_zero_parts_rejected(self):
        with pytest.raises(InvalidParameters):
            FExpansion({(2, 0, 1): 1})

    def test_schur_needs_partitions(self):
        with pytest.raises(InvalidParameters):
            SchurExpansion({(1, 2): 1})

    def test_arithmetic(self):
        a = FExpansion({(2, 1): 1})
        b = FExpansion({(2, 1): 2, (1, 2): 1})
        assert (a + b).terms == {(2, 1): 3, (1, 2): 1}
        assert (b - 2 * a).terms == {(1, 2): 1}

    def test_sum_across_bases_rejected(self):
        with pytest.raises(InvalidParameters):
            FExpansion({(2, 1): 1}) + SchurExpansion({(2, 1): 1})

    def test_fractional_coefficient_rejected(self):
        with pytest.raises(InvalidParameters):
            FExpansion({(1,): 1.7})

    def test_fractional_scalar_rejected(self):
        with pytest.raises(InvalidParameters):
            2.5 * FExpansion({(1,): 1})
        with pytest.raises(InvalidParameters):
            FExpansion({(1,): 1}) * 2.5

    def test_scalar_on_either_side(self):
        f = FExpansion({(2, 1): 1, (1, 2): -3})
        assert f * 2 == 2 * f == FExpansion({(2, 1): 2, (1, 2): -6})
        assert (f * 0).terms == {} and (f * 0).degree is None

    def test_sum_of_degrees_rejected(self):
        with pytest.raises(DegreeMismatch):
            FExpansion({(2, 1): 1}) + FExpansion({(2,): 1})
        with pytest.raises(DegreeMismatch):
            SchurExpansion({(2, 1): 1}) - SchurExpansion({(2,): 1})

    def test_zero_takes_any_degree(self):
        a = FExpansion({(2, 1): 1})
        assert (FExpansion({}) + a).degree == (a + FExpansion({})).degree == 3
        assert (a - a).terms == {} and (a - a).degree is None


def _random_terms(rng, supports):
    return {s: rng.choice([-3, -2, -1, 1, 2, 3])
            for s in rng.sample(supports, rng.randint(1, min(6, len(supports))))}


def _as_checked(expansion):
    """The terms and degree the validating constructor gives for the same terms."""
    checked = type(expansion)(dict(expansion.terms))
    return checked.terms, checked.degree


class TestTrustedResults:
    """Results built without re-validation equal the validating constructor's."""

    def test_arithmetic(self):
        rng = random.Random(10)
        for _ in range(200):
            m = rng.randint(1, 6)
            cls, supports = rng.choice([(FExpansion, compositions_of(m)),
                                        (SchurExpansion, partitions_of(m))])
            a = cls(_random_terms(rng, supports))
            b = cls(_random_terms(rng, supports))
            k = rng.randint(-3, 3)
            for result in (a + b, a - b, k * a, a * k, a - a):
                assert (result.terms, result.degree) == _as_checked(result)

    def test_changes_of_basis(self):
        rng = random.Random(11)
        for _ in range(60):
            g = SchurExpansion(_random_terms(rng, partitions_of(rng.randint(1, 7))))
            f = schur_expansion_to_f(g)
            assert (f.terms, f.degree) == _as_checked(f)
            back = schurify(f)
            assert (back.terms, back.degree) == _as_checked(back)
            assert back == g

    def test_single_shapes(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                f = schur_to_f(shape)
                assert (f.terms, f.degree) == _as_checked(f)


class TestSchurToF:
    def test_expansion_of_43(self):
        assert schur_to_f((4, 3)).terms == FIG2_EXPANSION

    def test_one_row(self):
        assert schur_to_f((5,)).terms == {(5,): 1}

    def test_one_column(self):
        assert schur_to_f((1, 1, 1)).terms == {(1, 1, 1): 1}

    def test_table_equals_the_enumeration_tally(self):
        # the corner-removal census against the listed standard tableaux
        for m in range(1, 11):
            for shape in partitions_of(m):
                tally = Counter(syt_descent_compositions(shape))
                assert tuple(_schur_to_f_terms(shape).items()) == tuple(sorted(tally.items())), shape

    def test_every_table_of_one_size_shares_its_composition_keys(self):
        for m in range(4, 10):
            first_seen = {}
            for shape in partitions_of(m):
                for alpha in _schur_to_f_terms(shape):
                    assert first_seen.setdefault(alpha, alpha) is alpha, (shape, alpha)
            assert len(first_seen) == 2 ** (m - 1)

    def test_table_keys_are_in_increasing_order(self):
        for m in range(1, 11):
            for shape in partitions_of(m):
                table = _schur_to_f_terms(shape)
                assert list(table) == sorted(table), shape
                assert descent_composition_counts(shape) == tuple(sorted(table.items()))

    def test_writing_into_a_result_leaves_the_table_alone(self):
        shape = (3, 2, 1)
        before = descent_composition_counts(shape)
        f = schur_to_f(shape)
        f.terms[(6,)] = 5
        f.terms[(3, 2, 1)] += 7
        del f.terms[(1, 2, 2, 1)]
        assert schur_to_f(shape).terms == dict(before)
        assert descent_composition_counts(shape) == before

    def test_empty_shape_rejected(self):
        with pytest.raises(EmptyInput):
            schur_to_f(())

    def test_coefficients_positive(self):
        for m in range(1, 7):
            for shape in partitions_of(m):
                assert all(c >= 1 for c in schur_to_f(shape).terms.values())


class TestFToMonomials:
    def test_one_part_counts(self):
        for m in range(1, 6):
            for n in range(1, 5):
                assert len(f_to_monomials((m,), n)) == comb(m + n - 1, n - 1)

    def test_too_many_parts(self):
        assert f_to_monomials((1, 1, 1), 2) == []

    def test_count_232(self):
        assert len(f_to_monomials((2, 3, 2), 4)) == 8

    def test_leaves_no_reference_cycles(self):
        gc.disable()
        try:
            gc.collect()
            f_to_monomials((2, 3, 2), 4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_count_formula(self):
        for m in range(1, 7):
            for alpha in compositions_of(m):
                s = len(alpha)
                for n in range(1, 6):
                    expected = comb(m + n - s, n - s) if n >= s else 0
                    assert len(f_to_monomials(alpha, n)) == expected

    def test_equals_the_filtered_weakly_increasing_sequences_in_order(self):
        for m in range(1, 7):
            for n in range(1, 6):
                letters = range(1, n + 1)
                weak = [seq for seq in product(letters, repeat=m) if list(seq) == sorted(seq)]
                for alpha in compositions_of(m):
                    rises = composition_to_descent_set(alpha)
                    assert f_to_monomials(alpha, n) == [
                        tuple(map(seq.count, letters)) for seq in weak
                        if all(seq[d - 1] < seq[d] for d in rises)]
        assert f_to_monomials((), -1) == []

    def test_long_part_needs_no_recursion(self):
        monomials = f_to_monomials((1000,), 2)
        assert len(monomials) == 1001
        assert monomials[0] == (1000, 0) and monomials[-1] == (0, 1000)

    def test_monomials_of_whole_shape(self):
        # summing over standard-tableau types recovers all tableau monomials
        shape, n = (3, 2), 3
        from qcrystals.tableaux import syt_descent_compositions
        combined = sorted(mu for comp in syt_descent_compositions(shape)
                          for mu in f_to_monomials(comp, n))
        direct = sorted(weight_of(t, n) for t in enumerate_ssyt(shape, n))
        assert combined == direct


class TestLeadingSupport:
    def test_schur_expansion_leads_with_shape(self):
        assert leading_support(schur_to_f((4, 3))) == (4, 3)

    def test_single_term(self):
        assert leading_support(FExpansion({(2, 2): 5})) == (2, 2)

    def test_lex_comparison(self):
        assert leading_support(FExpansion({(3, 1): 1, (2, 2): 5})) == (3, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyExpansion):
            leading_support(FExpansion({}))


class TestSchurify:
    def test_fig2_expansion_recovers_schur(self):
        result = schurify(FExpansion(FIG2_EXPANSION))
        assert result.terms == {(4, 3): 1}

    def test_non_symmetric_single_term(self):
        with pytest.raises(NotSymmetric):
            schurify(FExpansion({(1, 2): 1}))

    def test_random_roundtrips(self):
        rng = random.Random(21)
        for _ in range(50):
            m = rng.randint(1, 8)
            shapes = partitions_of(m)
            chosen = {s: rng.randint(1, 9)
                      for s in rng.sample(shapes, rng.randint(1, min(3, len(shapes))))}
            g = SchurExpansion(chosen)
            assert schurify(schur_expansion_to_f(g)) == g

    def test_zero_input(self):
        assert schurify(FExpansion({})).terms == {}

    def test_degree_zero_rejected(self):
        # F[] once overflowed the iteration cap 2 ** (degree - 1) + 1 = 1.5
        # into a bare TypeError
        with pytest.raises(EmptyInput):
            schurify(FExpansion({(): 1}))

    def test_integer_non_positive_combination(self):
        g = SchurExpansion({(2, 1): 3, (1, 1, 1): -2})
        assert schurify(schur_expansion_to_f(g)) == g


def _schurify_outcome(schurify_fn, f):
    try:
        return schurify_fn(f).terms
    except QCrystalsError as exc:
        return type(exc), str(exc)


class TestSchurifyWalk:
    """The one-walk schurify against the leading-support elimination."""

    def test_agrees_with_the_elimination_through_degree_10(self, monkeypatch):
        fallbacks = []
        monkeypatch.setattr(symfunc, "_schurify_by_peeling",
                            lambda f: fallbacks.append(f) or _schurify_by_peeling(f))
        rng = random.Random(22)
        kinds = Counter()
        for _ in range(1500):
            m = rng.randint(1, 10)
            shapes = partitions_of(m)
            g = {s: rng.choice([-3, -2, -1, 1, 2, 3]) for s in
                 rng.sample(shapes, rng.randint(1, min(5, len(shapes))))}
            if rng.random() < 0.5:
                g = {s: abs(c) for s, c in g.items()}
            terms = dict(schur_expansion_to_f(SchurExpansion(g)).terms)
            if rng.random() < 0.4:  # mostly not symmetric: add F[1,m-1] or another F
                alpha = rng.choice([(1, m - 1), rng.choice(compositions_of(m))]) if m > 1 else (1,)
                terms[alpha] = terms.get(alpha, 0) + rng.choice([-2, -1, 1, 2])
            f = FExpansion({tuple(list(k)): v for k, v in terms.items()})  # fresh keys, as parsed
            got = _schurify_outcome(schurify, f)
            assert got == _schurify_outcome(_schurify_by_peeling, f), f
            kinds[type(got) is dict, bool(fallbacks) and fallbacks.pop() is f] += 1
        # symmetric and not, each both with and without the fallback
        assert len(kinds) == 4 and min(kinds.values()) >= 20, kinds

    @pytest.mark.parametrize("f, expected", [
        (FExpansion({(2, 1): 1}),
         (NotSymmetric, "leading support (1, 2) is not a partition; "
                        "the input is not a symmetric function")),
        (schur_expansion_to_f(SchurExpansion({(3, 1): 1, (2, 2): -1})),
         {(3, 1): 1, (2, 2): -1}),
    ], ids=["F[2,1]", "s31-s22"])
    def test_falls_back_when_the_rows_reach_a_support_the_input_lacks(
            self, monkeypatch, f, expected):
        calls = []
        monkeypatch.setattr(symfunc, "_schurify_by_peeling",
                            lambda f: calls.append(f) or _schurify_by_peeling(f))
        assert _schurify_outcome(schurify, f) == expected
        assert calls == [f]

    def test_stops_without_the_elimination_at_a_non_partition(self, monkeypatch):
        monkeypatch.setattr(symfunc, "_schurify_by_peeling", None)
        f = schur_expansion_to_f(SchurExpansion({(3, 2): 2, (2, 2, 1): 1}))
        with pytest.raises(NotSymmetric, match=re.escape("(1, 4)")):
            schurify(f + FExpansion({(1, 4): 3}))
        assert schurify(f).terms == {(3, 2): 2, (2, 2, 1): 1}

    @pytest.mark.parametrize("terms, expected", [
        ({(200,): 1}, {(200,): 1}),
        ({(1,) * 200: 1}, {(1,) * 200: 1}),
        ({(200,): 2, (1,) * 200: -1}, {(200,): 2, (1,) * 200: -1}),
        (None, {(198, 2): 1}),
    ], ids=["F[200]", "F[1^200]", "both", "s198,2"])
    def test_sparse_inputs_of_degree_200_are_fast(self, terms, expected):
        # a sweep over the partitions of 200 would visit about 4e12 of them
        f = schur_to_f((198, 2)) if terms is None else FExpansion(terms)
        start = time.perf_counter()
        assert schurify(f).terms == expected
        assert time.perf_counter() - start < 1


class TestSchurPositivity:
    def test_schur_functions_positive(self):
        assert is_schur_positive(schur_to_f((3, 2)))

    def test_remainder_not_symmetric(self):
        remainder = schur_to_f((2, 1)) - FExpansion({(2, 1): 1})
        assert remainder.terms == {(1, 2): 1}
        assert not is_schur_positive(remainder)

    def test_sums_stay_positive(self):
        assert is_schur_positive(schur_to_f((2, 2)) + schur_to_f((3, 1)))

    def test_negative_combination(self):
        f = schur_expansion_to_f(SchurExpansion({(3,): 1, (2, 1): -1}))
        assert not is_schur_positive(f)


class TestPlethysmCount:
    def test_identity_outer(self):
        for shape, n in [((2, 1), 3), ((3,), 4)]:
            assert plethysm_monomial_count((1,), shape, n) == \
                count_ssyt_formula(shape, n)

    def test_squares(self):
        assert plethysm_monomial_count((2,), (1,), 2) == 3

    def test_pairs(self):
        assert plethysm_monomial_count((1, 1), (2,), 2) == 3

    def test_brute_force_cross_check(self):
        # monomials of the outer shape over an alphabet of inner monomials
        inner = count_ssyt_formula((2,), 2)          # 3 monomials
        assert plethysm_monomial_count((2, 1), (2,), 2) == \
            len(enumerate_ssyt((2, 1), inner))


class TestGrammar:
    def test_parse_example(self):
        f = parse_f_expansion("2*F[2,3,2] + F[4,3]")
        assert f.terms == {(2, 3, 2): 2, (4, 3): 1}

    def test_whitespace_insensitive(self):
        assert parse_f_expansion(" 2 * F[2,3,2]+F[4,3] ".replace(" ", "")) == \
            parse_f_expansion("2*F[2,3,2] + F[4,3]")

    def test_roundtrip(self):
        f = schur_to_f((3, 2))
        assert parse_f_expansion(format_f_expansion(f)) == f

    def test_schur_grammar(self):
        g = SchurExpansion({(4, 3): 1, (3, 3, 1): 2})
        assert parse_schur_expansion(format_schur_expansion(g)) == g
        assert format_schur_expansion(g) == "s[4,3] + 2*s[3,3,1]"

    def test_parse_errors(self):
        with pytest.raises(InvalidParameters):
            parse_f_expansion("2*G[1]")
        with pytest.raises(InvalidParameters):
            parse_f_expansion("")


# Each bad text with the exception type and message the parsers raise.
# Parse and basis errors anywhere in the text come first; then each distinct
# support in first-seen order: its validity, then (unless its summed
# coefficient is zero) its degree.
PARSE_ERRORS = [
    (parse_f_expansion, "", InvalidParameters, "empty expansion text"),
    (parse_f_expansion, " \n\t ", InvalidParameters, "empty expansion text"),
    (parse_schur_expansion, "", InvalidParameters, "empty expansion text"),
    (parse_schur_expansion, "   ", InvalidParameters, "empty expansion text"),
    (parse_f_expansion, "s[2]", InvalidParameters, "expected basis 'F', found 's' in 's[2]'"),
    (parse_schur_expansion, "F[2]", InvalidParameters,
     "expected basis 's', found 'F' in 'F[2]'"),
    (parse_f_expansion, "F[0] + 2*s[1]", InvalidParameters,
     "expected basis 'F', found 's' in '2*s[1]'"),
    (parse_f_expansion, "2*G[1]", InvalidParameters, "cannot parse term '2*G[1]'"),
    (parse_f_expansion, "F[1,1] + F[3] + garbage", InvalidParameters,
     "cannot parse term 'garbage'"),
    (parse_f_expansion, "F[1,1] + F[3] + F[1,]", InvalidParameters,
     "cannot parse term 'F[1,]'"),
    (parse_schur_expansion, "s[1,2] + s[3] + s[1 2", InvalidParameters,
     "cannot parse term 's[12'"),
    (parse_f_expansion, "F[1] - F[1]", InvalidParameters, "cannot parse term 'F[1]-F[1]'"),
    (parse_f_expansion, "2.5*F[1]", InvalidParameters, "cannot parse term '2.5*F[1]'"),
    (parse_f_expansion, "F[1]+", InvalidParameters, "cannot parse term ''"),
    (parse_f_expansion, "F[]", InvalidParameters, "cannot parse term 'F[]'"),
    (parse_f_expansion, "F[0,1] + -0*F[2]", InvalidParameters,
     "not a composition (needs positive parts): (0, 1)"),
    (parse_f_expansion, "F[2] + 0*F[0]", InvalidParameters,
     "not a composition (needs positive parts): (0,)"),
    (parse_f_expansion, "F[1,-1]", InvalidParameters,
     "not a composition (needs positive parts): (1, -1)"),
    (parse_schur_expansion, "s[1,2]", InvalidParameters, "not a partition: (1, 2)"),
    (parse_schur_expansion, "s[2,0]", InvalidParameters, "not a partition: (2, 0)"),
    (parse_f_expansion, "F[1,1] + F[3] + F[0,1]", DegreeMismatch,
     "mixed degrees 2 and 3 in one expansion"),
    (parse_schur_expansion, "s[1,1] + s[3] + s[1,2]", DegreeMismatch,
     "mixed degrees 2 and 3 in one expansion"),
]


@pytest.mark.parametrize("parse, text, error, message", PARSE_ERRORS,
                         ids=[f"{p.__name__}({t!r})" for p, t, _, _ in PARSE_ERRORS])
def test_parse_error_contract(parse, text, error, message):
    with pytest.raises(QCrystalsError) as info:
        parse(text)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("build, value, message", [
    (parse_f_expansion, None, "expected expansion text, got NoneType"),
    (parse_f_expansion, b"F[1]", "expected expansion text, got bytes"),
    (parse_schur_expansion, None, "expected expansion text, got NoneType"),
    (FExpansion, [((1,), 1)], "expected a mapping of terms, got list"),
    (SchurExpansion, None, "expected a mapping of terms, got NoneType"),
])
def test_text_and_terms_of_the_wrong_type(build, value, message):
    with pytest.raises(QCrystalsError) as info:
        build(value)
    assert type(info.value) is InvalidParameters and str(info.value) == message


@pytest.mark.parametrize("parse, text, terms, degree", [
    (parse_f_expansion, "F[1] + -1*F[1]", {}, None),
    (parse_schur_expansion, "s[2,1] + -1*s[2,1]", {}, None),
    (parse_f_expansion, "0*F[1,2]", {}, None),
    (parse_f_expansion, "F[2] + 0*F[1]", {(2,): 1}, 2),
    # the only term of the other degree cancels, first or later
    (parse_f_expansion, "F[1] + -1*F[1] + F[2,3]", {(2, 3): 1}, 5),
    (parse_f_expansion, "F[2] + F[1,2] + -1*F[2]", {(1, 2): 1}, 3),
    (parse_schur_expansion, "s[3] + s[2] + -1*s[2]", {(3,): 1}, 3),
])
def test_parse_cancellation(parse, text, terms, degree):
    parsed = parse(text)
    assert (parsed.terms, parsed.degree) == (terms, degree)


def _naive_parse(text, cls):
    """The validating constructor over a plain split of the text."""
    terms = {}
    for chunk in "".join(text.split()).split("+"):
        coeff, _, body = chunk.rpartition("*")
        support = tuple(int(p) for p in body[2:-1].split(","))
        terms[support] = terms.get(support, 0) + (int(coeff) if coeff else 1)
    return cls(terms)


def _outcome(parse, *args):
    try:
        result = parse(*args)
    except QCrystalsError as exc:
        return type(exc), str(exc)
    return type(result), result.terms, result.degree


def _random_text(rng, basis, supports):
    """A sum of 1 to 8 terms over supports, some repeated, spaced at random."""
    def space():
        return rng.choice(["", "", " ", "  ", "\t", "\n"])
    chunks = []
    for _ in range(rng.randint(1, 8)):
        support = rng.choice(supports)
        body = f"{basis}{space()}[{space()}" + f"{space()},{space()}".join(
            map(str, support)) + f"{space()}]"
        coeff = rng.choice([None, None, 1, 2, -1, -2, 0, -0, 7])
        chunks.append(body if coeff is None else f"{coeff}{space()}*{space()}{body}")
    return space() + f"{space()}+{space()}".join(chunks) + space()


def test_parsers_agree_with_the_validating_constructor():
    rng = random.Random(12)
    for _ in range(600):
        m = rng.randint(1, 5)
        parse, cls, basis, supports = rng.choice([
            (parse_f_expansion, FExpansion, "F", compositions_of(m)),
            (parse_schur_expansion, SchurExpansion, "s", partitions_of(m))])
        # now and then a support of another degree or an invalid one
        supports = supports + rng.choice([[], [], [(1,) * (m + 1)], [(0, m)], [(1, m)]])
        text = _random_text(rng, basis, supports)
        assert _outcome(parse, text) == _outcome(_naive_parse, text, cls), text


def test_parsers_read_back_what_format_prints():
    rng = random.Random(13)
    for _ in range(100):
        g = SchurExpansion(_random_terms(rng, partitions_of(rng.randint(1, 8))))
        f = schur_expansion_to_f(g)
        for parse, fmt, built in ((parse_f_expansion, format_f_expansion, f),
                                  (parse_schur_expansion, format_schur_expansion, g)):
            text = fmt(built)
            parsed = parse(text)
            assert (parsed.terms, parsed.degree) == (built.terms, built.degree)
            assert _outcome(parse, text) == _outcome(_naive_parse, text, type(built))


# ---------------------------------------------------------------------------
# the bulk reader against a chunk-by-chunk oracle, and the bulk formatter
# against a term-by-term one

_ORACLE_TERM = re.compile(r"(?:(-?[0-9]+)\*)?([Fs])\[(-?[0-9]+(?:,-?[0-9]+)*)\]")


def _oracle_parse(text, cls):
    """Each chunk matched and read on its own, then the validating constructor."""
    compact = "".join(text.split())
    if not compact:
        raise InvalidParameters("empty expansion text")
    terms = {}
    for chunk in compact.split("+"):
        found = _ORACLE_TERM.fullmatch(chunk)
        if not found:
            raise InvalidParameters(f"cannot parse term {chunk!r}")
        coeff, basis, parts = found.groups()
        if basis != cls._basis:
            raise InvalidParameters(f"expected basis {cls._basis!r}, found {basis!r} in {chunk!r}")
        support = tuple(int(p) for p in parts.split(","))
        terms[support] = terms.get(support, 0) + (int(coeff) if coeff else 1)
    return cls(terms)


_GARBAGE = ["", "F[]", "s[]", "F[1,]", "F[,1]", "2.5*F[1]", "G[1]", "F[1", "F1]", "*F[1]",
            "--1*F[1]", "F[1]]", "1*2*F[1]", "F[1-2]", "F[a]", "F[١]", "x", "2*", "-F[1]",
            "F[+1]", "1e3*F[1]", "F[[1]]", "s[2]F[1]"]


def _fuzz_text(rng, basis):
    """1 to 10 chunks: terms over a small pool of supports, so that supports
    repeat, with odd numbers, odd supports and, now and then, a wrong basis
    or a garbage chunk; whitespace anywhere between characters."""
    m = rng.randint(1, 5)
    pool = rng.sample(compositions_of(m), min(3, 2 ** (m - 1)))
    pool += rng.choice([[], [], [], [(1,) * (m + 1)], [(0, m)], [(m, -1)], [(1, m)], [(0,)]])

    def number(value):
        return rng.choice([str(value)] * 6 + ["0" * rng.randint(1, 3) + str(abs(value))
                                              if value >= 0 else f"-0{-value}"])

    chunks = []
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.02:
            chunks.append(rng.choice(_GARBAGE))
            continue
        b = basis if rng.random() > 0.02 else rng.choice("Fs")
        body = f"{b}[{','.join(number(p) for p in rng.choice(pool))}]"
        coeff = rng.choice([None, None, None, 1, 2, 3, -1, -2, 0, 12])
        chunks.append(body if coeff is None else f"{number(coeff)}*{body}")
    text = "+".join(chunks)
    return "".join(c + rng.choice(["", "", "", "", " ", "\t", "\n "]) for c in text)


def test_bulk_reader_agrees_with_the_chunk_oracle_on_random_texts():
    rng = random.Random(18)
    kinds = Counter()
    for _ in range(20_000):
        parse, cls = rng.choice([(parse_f_expansion, FExpansion),
                                 (parse_schur_expansion, SchurExpansion)])
        text = _fuzz_text(rng, cls._basis)
        expected = _outcome(_oracle_parse, text, cls)
        assert _outcome(parse, text) == expected, text
        kinds[expected[0].__name__] += 1
    # every outcome is common enough to be tested
    assert min(kinds[k] for k in ("FExpansion", "SchurExpansion", "InvalidParameters",
                                  "DegreeMismatch")) > 500, kinds


@pytest.mark.parametrize("text", ["9" * 5000 + "*F[1]", "F[1," + "9" * 5000 + "]",
                                  "F[2] + -" + "1" * 4400 + "*F[2]"])
def test_numbers_past_the_int_digit_limit_are_refused(text):
    with pytest.raises(InvalidParameters, match="cannot read the expansion text: Exceeds"):
        parse_f_expansion(text)


@pytest.mark.parametrize("fmt, expansion", [
    (format_f_expansion, FExpansion({(2,): 1, (1, 1): 10 ** 5000})),
    (format_schur_expansion, SchurExpansion({(2,): -(10 ** 5000)})),
], ids=["F", "s"])
def test_coefficients_past_the_int_digit_limit_are_not_written(fmt, expansion):
    with pytest.raises(InvalidParameters, match="cannot write the expansion text: Exceeds"):
        fmt(expansion)
    with pytest.raises(ValueError, match="Exceeds"):  # repr keeps int's own error
        repr(expansion)


def test_leading_zeros_and_ascii_digits():
    assert parse_f_expansion("0" * 5000 + "2*F[01,002]").terms == {(1, 2): 2}
    assert parse_f_expansion("-00*F[1] + -007*F[2,00001]").terms == {(2, 1): -7}
    with pytest.raises(InvalidParameters, match="cannot parse term 'F\\[١\\]'"):
        parse_f_expansion("F[١]")


def _format_term_by_term(terms, basis):
    """One chunk per support, largest support first."""
    if not terms:
        return "0"
    chunks = []
    for support in sorted(terms, reverse=True):
        coeff = terms[support]
        body = f"{basis}[{','.join(str(p) for p in support)}]"
        chunks.append(body if coeff == 1 else f"{coeff}*{body}")
    return " + ".join(chunks)


def test_formatters_agree_with_a_term_by_term_spelling():
    rng = random.Random(19)
    coefficients = [1, 1, -1, 2, -3, 11, 10, 101, -10 ** 30, 10 ** 40]
    for _ in range(2000):
        m = rng.randint(0, 12)
        cls, fmt, supports = rng.choice([
            (FExpansion, format_f_expansion, compositions_of(m) if m else [()]),
            (SchurExpansion, format_schur_expansion, partitions_of(m) if m else [()])])
        chosen = rng.sample(supports, rng.randint(0, min(40, len(supports))))
        built = cls({s: rng.choice(coefficients) for s in chosen})
        assert fmt(built) == _format_term_by_term(built.terms, cls._basis)
    assert format_f_expansion(FExpansion({(): 3})) == "3*F[]"
    assert format_schur_expansion(SchurExpansion({(): 1})) == "s[]"


def test_every_schur_function_through_size_9_reads_back_from_its_text():
    for m in range(1, 10):
        for shape in partitions_of(m):
            f = schur_to_f(shape)
            parsed = parse_f_expansion(format_f_expansion(f))
            assert (parsed.terms, parsed.degree) == (f.terms, f.degree) == (f.terms, m)


@pytest.mark.parametrize("call, expected", [
    (lambda: schurify(None), "expected FExpansion, got NoneType"),
    (lambda: schurify(SchurExpansion({(1,): 1})), "expected FExpansion, got SchurExpansion"),
    (lambda: is_schur_positive("F[1]"), "expected FExpansion, got str"),
    (lambda: leading_support({}), "expected FExpansion, got dict"),
    (lambda: schur_expansion_to_f(None), "expected SchurExpansion, got NoneType"),
    (lambda: schur_expansion_to_f(FExpansion({(1,): 1})),
     "expected SchurExpansion, got FExpansion"),
    (lambda: format_f_expansion(None), "expected FExpansion, got NoneType"),
    (lambda: format_schur_expansion({(1,): 1}), "expected SchurExpansion, got dict"),
    (lambda: f_to_monomials((1, 2), "x"),
     "expected integers for the number of variables, got ('x',)"),
    (lambda: f_to_monomials((1, 2), 2.0),
     "expected integers for the number of variables, got (2.0,)"),
])
def test_entry_points_refuse_what_is_not_an_expansion(call, expected):
    with pytest.raises(QCrystalsError) as info:
        call()
    assert type(info.value) is InvalidParameters and str(info.value) == expected
