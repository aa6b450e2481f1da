"""Exact arithmetic in the fundamental and Schur bases.

Expansions are homogeneous formal integer combinations: FExpansion over
compositions, SchurExpansion over partitions. Each s_lambda holds F_lambda
once and otherwise only lexicographically smaller compositions, so
schurify reads the Schur coefficients off the input's own supports in one
walk down from the greatest, summing their rows, and confirms the result by
one comparison of that sum with the input. Only inputs whose terms cancel,
or that are not symmetric, can fall back on a leading-support elimination.

The coefficient of F_alpha in s_shape counts the standard tableaux of the
shape with descent composition alpha: the cached corner-removal table
tableaux._descent_table, a dict in increasing order of the compositions,
bound here as _schur_to_f_terms (tableaux.descent_composition_counts gives
it as sorted pairs). All the tables of one size share one tuple per
composition, so a sum of tables of different shapes finds its keys by
identity, not by comparing parts. schur_to_f copies a table; everything
else only reads it. The listing tableaux.syt_descent_compositions checks it
in verify and the tests.

The public constructors FExpansion(...) and SchurExpansion(...) check every
support and coefficient. Results the module builds itself (+, -, scalar *,
schur_to_f, schur_expansion_to_f, schurify) come from checked expansions or
from the table, and are wrapped by _Expansion._trusted without a second
check. Every function that takes an expansion raises InvalidParameters for
anything else.

parse_f_expansion and parse_schur_expansion read a text in bulk and build
trusted expansions too. One match against the whole-text grammar accepts
or rejects it; an accepted text is respelled as a JSON list and its
numbers are read by one json.loads; the summed supports are tested for
validity and for a single degree in bulk. Only when a test fails does a
walk over the chunks run, or the constructor on the summed terms, to raise
the constructors' error types and messages in their order. The
constructors stay the slower oracle the tests compare the parsers with.
The formatters spell all the supports of an expansion with one json.dumps;
a coefficient past int's digit limit for text raises InvalidParameters
there, as in the parsers, while __repr__ keeps int's own ValueError.
"""

import json
import operator
import re
from collections.abc import Mapping
from itertools import combinations_with_replacement

from .errors import (
    DegreeMismatch, EmptyExpansion, EmptyInput, InternalError, InvalidParameters,
    NotSymmetric,
)
from .tableaux import (
    Composition, Partition,
    _check_ints, _descent_table, band_letters, check_composition, check_partition,
    count_ssyt_formula, is_partition,
)

# the cached {composition: count} table of a checked shape, never written to
_schur_to_f_terms = _descent_table
_NOT_SYMMETRIC = "leading support {} is not a partition; the input is not a symmetric function"


class _Expansion:
    """Shared container: terms maps index tuples to non-zero int coefficients.

    InvalidParameters for a coefficient or scalar factor that operator.index
    rejects, such as a float, and for + or - between different bases;
    DegreeMismatch for + or - between non-zero expansions of two degrees.
    """

    def __init__(self, terms: dict):
        if not isinstance(terms, Mapping):
            raise InvalidParameters(f"expected a mapping of terms, got {type(terms).__name__}")
        clean = {}
        degree = None
        for support, coeff in terms.items():
            support = self._check_support(support)
            try:
                coeff = operator.index(coeff)
            except TypeError:
                raise InvalidParameters(
                    f"coefficient {coeff!r} of {support} is not an integer") from None
            if coeff == 0:
                continue
            if degree is None:
                degree = sum(support)
            elif sum(support) != degree:
                raise DegreeMismatch(
                    f"mixed degrees {degree} and {sum(support)} in one expansion")
            clean[support] = clean.get(support, 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v}
        self.degree = degree

    @classmethod
    def _trusted(cls, terms: dict, degree: int | None):
        """Wrap terms built inside this module: valid supports of the given
        degree and no zero coefficient. The degree of an empty result is None."""
        expansion = cls.__new__(cls)
        expansion.terms = terms
        expansion.degree = degree if terms else None
        return expansion

    @staticmethod
    def _check_support(support):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.terms})"

    def __bool__(self):
        return bool(self.terms)

    def _combine(self, other, scale: int):
        if type(other) is not type(self):
            raise InvalidParameters(
                f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.terms and other.terms and self.degree != other.degree:
            raise DegreeMismatch(
                f"mixed degrees {self.degree} and {other.degree} in one expansion")
        merged = dict(self.terms)
        _add_terms(merged, other.terms, scale)
        return self._trusted(merged, self.degree if self.terms else other.degree)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, scalar: int):
        try:
            scalar = operator.index(scalar)
        except TypeError:
            raise InvalidParameters(f"scalar {scalar!r} is not an integer") from None
        if not scalar:
            return self._trusted({}, None)
        return self._trusted({k: scalar * v for k, v in self.terms.items()}, self.degree)

    __rmul__ = __mul__


class FExpansion(_Expansion):
    """Integer combination of fundamental basis elements indexed by compositions."""

    _basis = "F"

    @staticmethod
    def _check_support(support):
        return check_composition(support)

    # the parser's bulk test of its supports, non-empty tuples of ints
    _are_supports = staticmethod(lambda supports: min(map(min, supports)) >= 1)


class SchurExpansion(_Expansion):
    """Integer combination of Schur functions indexed by partitions."""

    _basis = "s"

    @staticmethod
    def _check_support(support):
        return check_partition(support)

    _are_supports = staticmethod(lambda supports: all(map(is_partition, supports)))


def _add_terms(terms: dict, census: dict, scale: int) -> None:
    """terms += scale * census in place, dropping coefficients that reach zero."""
    for support, count in census.items():
        total = terms.get(support, 0) + scale * count
        if total:
            terms[support] = total
        else:
            terms.pop(support, None)


def _check_expansion(value, cls):
    """value itself; InvalidParameters unless it is an expansion of class cls."""
    if not isinstance(value, cls):
        raise InvalidParameters(f"expected {cls.__name__}, got {type(value).__name__}")
    return value


def schur_to_f(shape: Partition) -> FExpansion:
    """Expand one Schur function in the fundamental basis.

    The coefficient of a composition is the number of standard tableaux of
    the shape having it as descent composition.
    """
    shape = check_partition(shape)
    return FExpansion._trusted(dict(_schur_to_f_terms(shape)), sum(shape))


def schur_expansion_to_f(g: SchurExpansion) -> FExpansion:
    """Linear extension of schur_to_f."""
    terms: dict[Composition, int] = {}
    for shape, coeff in _check_expansion(g, SchurExpansion).terms.items():
        _add_terms(terms, _schur_to_f_terms(check_partition(shape)), coeff)
    return FExpansion._trusted(terms, g.degree)


def f_to_monomials(alpha: Composition, n: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials of one fundamental basis element.

    Monomials are indexed by weakly increasing sequences over 1..n with a
    strict rise at every boundary of alpha; empty when alpha has more parts
    s than there are variables. By the one-row isomorphism these are the
    one-row tableaux over 1..n-s+1, each entry in part k raised by k-1, in
    lexicographic order.
    """
    alpha = check_composition(alpha)
    (n,) = _check_ints((n,), "the number of variables")
    if len(alpha) > n:
        return []
    shifts = band_letters(alpha)
    out = []
    for row in combinations_with_replacement(range(1, n - len(alpha) + 2), sum(alpha)):
        exponents = [0] * n
        for v, k in zip(row, shifts):
            exponents[v + k - 2] += 1
        out.append(tuple(exponents))
    return out


def leading_support(f: FExpansion) -> Composition:
    """Lexicographically greatest composition with a non-zero coefficient."""
    if not _check_expansion(f, FExpansion).terms:
        raise EmptyExpansion("zero expansion has no leading support")
    return max(f.terms)


def schurify(f: FExpansion) -> SchurExpansion:
    """Rewrite a symmetric fundamental-basis combination in the Schur basis.

    One walk down the supports of f keeps back, the sum of the rows taken so
    far: where f and back differ at a partition, the difference is its Schur
    coefficient and its row joins back; a non-partition stops the walk. If
    back == f, the result is exact, as the Schur functions form a basis. An
    input whose back holds a support f lacks goes to _schurify_by_peeling.
    EmptyInput for a multiple of F[], as for schur_to_f(()).
    """
    terms = _check_expansion(f, FExpansion).terms
    result, back = {}, {}  # the Schur coefficients, the sum of their rows
    for alpha in sorted(terms, reverse=True):
        coeff = terms[alpha] - back.get(alpha, 0)
        if coeff:
            if not is_partition(alpha):
                break
            result[alpha] = coeff
            _add_terms(back, _schur_to_f_terms(alpha), coeff)
    if back == terms:
        return SchurExpansion._trusted(result, f.degree)
    if back.keys() <= terms.keys():  # the walk stopped at the leading support of f - back
        raise NotSymmetric(_NOT_SYMMETRIC.format(alpha))
    return _schurify_by_peeling(f)


def _schurify_by_peeling(f: FExpansion) -> SchurExpansion:
    """schurify by leading-support elimination, the reference for the walk."""
    result: dict[Partition, int] = {}
    work = dict(f.terms)
    while work:
        alpha = max(work)
        if not is_partition(alpha):
            raise NotSymmetric(_NOT_SYMMETRIC.format(alpha))
        result[alpha] = coeff = work[alpha]
        _add_terms(work, _schur_to_f_terms(alpha), -coeff)
    return SchurExpansion._trusted(result, f.degree)


def is_schur_positive(f: FExpansion) -> bool:
    """True iff f is symmetric with only positive Schur coefficients."""
    try:
        expansion = schurify(f)
    except NotSymmetric:
        return False
    return all(c > 0 for c in expansion.terms.values())


def plethysm_monomial_count(mu: Partition, lam: Partition, n: int) -> int:
    """Monic monomial count of the plethysm of two Schur functions in n variables.

    Substituting the monic monomials of the inner function into the outer one
    gives as many monomials as tableaux of the outer shape over an alphabet
    of that size.
    """
    inner = count_ssyt_formula(check_partition(lam), n)
    if inner < 1:
        return 0
    return count_ssyt_formula(check_partition(mu), inner)


# ---------------------------------------------------------------------------
# text grammar: term ("+" term)*, term := [coeff "*"] BASIS "[" ints "]",
# the integers spelled in the ASCII digits 0-9

_TERM = r"(?:-?[0-9]+\*)?{}\[-?[0-9]+(?:,-?[0-9]+)*\]"
_TERM_RE = re.compile(_TERM.format("([Fs])"))
_TEXT_RE = {basis: re.compile("{0}(?:\\+{0})*".format(_TERM.format(basis))) for basis in "Fs"}
_LEADING_ZEROS = re.compile(r"(?<![0-9])0+(?=[0-9])")


def _parse_terms(text: str, cls):
    """The expansion of class cls that text spells.

    Raises what cls(terms) would raise for the summed terms, in the same
    order: parse and basis errors for the whole text first, then each
    distinct support in first-seen order, its validity before its degree.
    A text the grammar accepts is respelled as one flat JSON list, each
    coefficient before its parts (2*F[3,1]+F[4] reads [2,[3,1],1,[4]]), and
    its supports and degree are checked in bulk; a failed bulk check calls
    cls(terms), which names the error.
    """
    if not isinstance(text, str):
        raise InvalidParameters(f"expected expansion text, got {type(text).__name__}")
    compact = "".join(text.split())
    if not compact:
        raise InvalidParameters("empty expansion text")
    basis = cls._basis
    if not _TEXT_RE[basis].fullmatch(compact):
        raise _first_bad_chunk(compact, basis)
    spelled = compact.replace(f"*{basis}[", ",[").replace(f"{basis}[", "1,[").replace("+", ",")
    try:
        try:
            numbers = json.loads(f"[{spelled}]")
        except json.JSONDecodeError:  # the grammar allows leading zeros, JSON does not
            numbers = json.loads(f"[{_LEADING_ZEROS.sub('', spelled)}]")
    except ValueError as exc:  # a number longer than int's digit limit
        raise InvalidParameters(f"cannot read the expansion text: {exc}") from None
    coeffs = numbers[::2]
    terms = dict(zip(map(tuple, numbers[1::2]), coeffs))
    if len(terms) < len(coeffs):  # a repeated support: sum its coefficients
        terms = {}
        for support, coeff in zip(map(tuple, numbers[1::2]), coeffs):
            terms[support] = terms.get(support, 0) + coeff
    live = {k: v for k, v in terms.items() if v} if 0 in terms.values() else terms
    degrees = set(map(sum, live))
    if len(degrees) > 1 or not cls._are_supports(terms):
        cls(terms)  # raises the constructor's error, in its order
        raise InternalError("a bulk check of the parsed supports failed, but no support does")
    return cls._trusted(live, degrees.pop() if degrees else None)


def _first_bad_chunk(compact: str, basis: str) -> InvalidParameters:
    """The error for the first "+"-separated chunk that is not a term of basis."""
    for chunk in compact.split("+"):
        found = _TERM_RE.fullmatch(chunk)
        if not found:
            return InvalidParameters(f"cannot parse term {chunk!r}")
        if found[1] != basis:
            return InvalidParameters(
                f"expected basis {basis!r}, found {found[1]!r} in {chunk!r}")
    return InternalError(f"the text grammar rejects {compact!r}, but not one of its terms")


def parse_f_expansion(text: str) -> FExpansion:
    """Parse e.g. '2*F[2,3,2] + F[4,3]' (whitespace-insensitive)."""
    return _parse_terms(text, FExpansion)


def parse_schur_expansion(text: str) -> SchurExpansion:
    """Parse e.g. 's[4,3] + 2*s[3,3,1]'."""
    return _parse_terms(text, SchurExpansion)


def _format_terms(terms: dict, basis: str) -> str:
    if not terms:
        return "0"
    supports = sorted(terms, reverse=True)
    # one JSON spelling of every support, cut into the parts of each
    parts = json.dumps(supports, separators=(",", ":"))[2:-2].split("],[")
    try:
        return " + ".join([f"{basis}[{p}]" if c == 1 else f"{c}*{basis}[{p}]"
                           for c, p in zip(map(terms.__getitem__, supports), parts)])
    except ValueError as exc:  # a coefficient longer than int's digit limit
        raise InvalidParameters(f"cannot write the expansion text: {exc}") from None


def format_f_expansion(f: FExpansion) -> str:
    return _format_terms(_check_expansion(f, FExpansion).terms, "F")


def format_schur_expansion(g: SchurExpansion) -> str:
    return _format_terms(_check_expansion(g, SchurExpansion).terms, "s")
