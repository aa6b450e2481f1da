"""Partitions, compositions, words, semistandard tableaux, and exact counts.

Conventions used everywhere in this package:

- a partition is a weakly decreasing tuple of positive ints,
- a composition is a tuple of positive ints (no zero parts),
- a weight is a fixed-length tuple of non-negative ints (zeros allowed),
- a word is a tuple of ints in 1..n,
- a tableau is a tuple of row tuples in English notation; rows weakly
  increase, columns strictly increase.

The predicates is_partition, is_semistandard and is_standard answer False,
never raise, for an object that is not a sequence of integers (of rows).

Cell coordinates are (row, column), 0-indexed internally. All the counting
lives here and lists no tableau: _corner_counts is the one walk, and
max_descent_composition_length bounds the descent census and the skeleton.
The standard tableaux are listed by one fill without recursion,
_standard_fill, as pairs of reading word and band filling:
enumerate_syt_by_parts cuts the words into rows, syt_descent_compositions
counts the band letters, and the skeleton reads both.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, combinations_with_replacement
from math import comb, factorial, prod
from operator import ge, index, itemgetter, le, lt, mul

from .errors import EmptyInput, EntryOutOfRange, InvalidParameters

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Word = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# partitions and compositions

def is_partition(parts) -> bool:
    try:
        parts = tuple(map(index, parts))
    except TypeError:
        return False
    return all(map(ge, parts, parts[1:])) and (not parts or parts[-1] >= 1)


def _check_ints(values, what: str) -> tuple[int, ...]:
    """values as ints; InvalidParameters for one operator.index rejects."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise InvalidParameters(f"expected integers for {what}, got {values!r}") from None


def check_partition(parts) -> Partition:
    parts = _check_ints(parts, "partition parts")
    if not is_partition(parts):
        raise InvalidParameters(f"not a partition: {parts}")
    return parts


def check_composition(parts) -> Composition:
    parts = _check_ints(parts, "composition parts")
    if not all(p >= 1 for p in parts):
        raise InvalidParameters(f"not a composition (needs positive parts): {parts}")
    return parts


def partitions_of(m: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of m, in lexicographically decreasing order.

    With max_length, only partitions with at most that many parts.
    InvalidParameters unless m is an integer >= 1 and max_length, if given,
    an integer >= 0.
    """
    (m,) = _check_ints((m,), "m")
    if m < 1:
        raise InvalidParameters("m must be >= 1")
    if max_length is not None and _check_ints((max_length,), "max_length")[0] < 0:
        raise InvalidParameters("max_length must be >= 0")
    out = []

    def descend(rest, largest, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        if max_length is not None and len(prefix) == max_length:
            return
        for p in range(min(rest, largest), 0, -1):
            prefix.append(p)
            descend(rest - p, p, prefix)
            prefix.pop()

    descend(m, m, [])
    # descend reaches itself through its closure cell; unlinking it frees the
    # cells (and out with them) by reference counting, not by the cyclic GC
    del descend
    return out


def compositions_of(m: int) -> list[Composition]:
    """All compositions of m (there are 2^(m-1)), in lexicographic order.

    InvalidParameters unless m is an integer >= 1.
    """
    (m,) = _check_ints((m,), "m")
    if m < 1:
        raise InvalidParameters("m must be >= 1")
    out = []

    def extend(rest, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(1, rest + 1):
            prefix.append(p)
            extend(rest - p, prefix)
            prefix.pop()

    extend(m, [])
    del extend  # break the self-reference through the closure cell, see partitions_of
    return out


def refines(alpha: Composition, beta: Composition) -> bool:
    """True iff consecutive blocks of beta sum to the parts of alpha in order.

    This is the relation "alpha is coarser than beta" used throughout: the
    fundamental basis element indexed by alpha collects the monomial terms of
    all such refinements beta.
    """
    if sum(alpha) != sum(beta):
        return False
    it = iter(beta)
    for part in alpha:
        acc = 0
        while acc < part:
            try:
                acc += next(it)
            except StopIteration:
                return False
        if acc != part:
            return False
    return True


def descent_set_to_composition(descents, m: int) -> Composition:
    """Turn a descent set inside 1..m-1 into the composition of m it bounds."""
    prev = 0
    comp = []
    for d in sorted(descents):
        comp.append(d - prev)
        prev = d
    comp.append(m - prev)
    return tuple(comp)


def composition_to_descent_set(alpha: Composition) -> tuple[int, ...]:
    return tuple(accumulate(alpha[:-1]))


# ---------------------------------------------------------------------------
# words

def word_descent_composition(w: Word) -> Composition:
    """Lengths of the maximal weakly increasing runs of w, left to right."""
    if not w:
        raise EmptyInput("empty word")
    return descent_set_to_composition(
        [i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]], len(w))


def standardize_word(w: Word) -> Word:
    """Relabel equal letters left to right so the result is a permutation.

    Letters i are replaced, in order of appearance, by the next unused block
    of values; descents are preserved.
    """
    if not w:
        raise EmptyInput("empty word")
    order = sorted(range(len(w)), key=w.__getitem__)  # stable: ties by position
    std = [0] * len(w)
    for label, j in enumerate(order, 1):
        std[j] = label
    return tuple(std)


# ---------------------------------------------------------------------------
# tableaux basics

def shape_of(T: Tableau) -> Partition:
    return tuple(len(row) for row in T)


def tableau_size(T: Tableau) -> int:
    return sum(len(row) for row in T)


def _is_filling(inner, rows) -> bool:
    """One pass over a skew filling, row i being inner[i] blanks then rows[i]:
    inner >= 0, inner and outer weakly decreasing, rows weakly increasing,
    columns strictly increasing."""
    if len(inner) != len(rows) or (inner and inner[-1] < 0):
        return False
    for i, row in enumerate(rows):
        if not all(map(le, row, row[1:])):
            return False
        if i:  # column j holds above[j - above_start] over row[j - start]
            start, above, above_start = inner[i], rows[i - 1], inner[i - 1]
            if (start > above_start or start + len(row) > above_start + len(above)
                    or not all(map(lt, above, row[above_start - start:]))):
                return False
    return True


def is_semistandard(T) -> bool:
    try:
        T = tuple(tuple(map(index, row)) for row in T)
    except TypeError:
        return False
    return _is_semistandard_rows(T)


def _is_semistandard_rows(T: Tableau) -> bool:
    """is_semistandard of a tuple of rows already of ints."""
    # _is_filling keeps row lengths weakly decreasing, so a shape of positive
    # parts needs only a non-empty last row; rows weakly increase and columns
    # strictly, so T[0][0] is the least entry
    return _is_filling((0,) * len(T), T) and (not T or (len(T[-1]) > 0 and T[0][0] >= 1))


def _is_standard_rows(T: Tableau) -> bool:
    """is_standard of a tuple of rows already of ints."""
    return _is_semistandard_rows(T) and sorted(chain.from_iterable(T)) == list(
        range(1, tableau_size(T) + 1))


def is_standard(T) -> bool:
    try:
        T = tuple(tuple(map(index, row)) for row in T)
    except TypeError:
        return False
    return _is_standard_rows(T)


def weight_of(T: Tableau, n: int | None = None) -> tuple[int, ...]:
    """Entry counts of T as a length-n vector (n defaults to the max entry).

    EntryOutOfRange if an entry lies outside 1..n.
    """
    entries = [v for row in T for v in row]
    if n is None:
        n = max(entries, default=0)
    if entries and not 1 <= min(entries) <= max(entries) <= n:
        raise EntryOutOfRange(f"entries must lie in 1..{n}")
    counts = [0] * n
    for v in entries:
        counts[v - 1] += 1
    return tuple(counts)


def max_entry(T: Tableau) -> int:
    return max((v for row in T for v in row), default=0)


def reading_word(T: Tableau) -> Word:
    """Concatenate rows bottom to top, each left to right."""
    if not T:
        raise EmptyInput("empty tableau")
    return tuple(chain.from_iterable(reversed(T)))


def reading_rows(shape: Partition) -> list[slice]:
    """Slices of a reading word holding each row of the shape, top row first.

    The word lists the rows bottom first, so row r is
    w[sum(shape[r+1:]):sum(shape[r:])] and tuple(w[s] for s in
    reading_rows(shape)) is the tableau whose reading word is w.
    """
    ends = [sum(shape[r:]) for r in range(len(shape) + 1)]
    return [slice(ends[r + 1], ends[r]) for r in range(len(shape))]


def from_rows(rows) -> Tableau:
    """rows as a tuple of int tuples; InvalidParameters unless rows is an
    iterable of rows of integers."""
    try:
        return tuple(_check_ints(row, "tableau entries") for row in rows)
    except TypeError:
        raise InvalidParameters(f"expected rows of tableau entries, got {rows!r}") from None


# ---------------------------------------------------------------------------
# descent compositions and band parsings

def tableau_descent_set(T: Tableau) -> tuple[int, ...]:
    """Descents of a standard tableau: entries i with i+1 in a lower row."""
    row_of = {}
    for i, row in enumerate(T):
        for v in row:
            row_of[v] = i
    m = tableau_size(T)
    return tuple(i for i in range(1, m) if row_of[i + 1] > row_of[i])


def standardize_tableau(T: Tableau) -> Tableau:
    """Standard tableau obtained by standardizing the reading word of T in place."""
    std = standardize_word(reading_word(T))
    return tuple(std[row] for row in reading_rows(shape_of(T)))


def descent_composition(T: Tableau) -> Composition:
    """Type of the minimal parsing of T into maximal horizontal bands.

    The band boundaries of T are the descents of its standardization, read
    off the reading word without building the standard tableau: a stable
    sort of the positions by letter lists them by standard label, and k is
    a descent when label k+1 comes before label k in the word: a descent of
    the sorted positions read as a word. EmptyInput for a tableau of no cells.
    """
    w = reading_word(T)
    return word_descent_composition(sorted(range(len(w)), key=w.__getitem__))


@dataclass(frozen=True)
class HorizontalBandParsing:
    """Assignment of each cell to a band 1..s, plus the band lengths."""
    band_of_cell: tuple[tuple[int, ...], ...]
    type: Composition


def minimal_parsing(T: Tableau) -> HorizontalBandParsing:
    """The unique coarsest parsing of T into maximal horizontal bands."""
    std = standardize_tableau(T)
    alpha = descent_set_to_composition(tableau_descent_set(std), tableau_size(T))
    return HorizontalBandParsing(band_of_cell=destandardize(std, alpha), type=alpha)


def band_cells(parsing: HorizontalBandParsing, band: int) -> list[tuple[int, int]]:
    return [(i, j)
            for i, row in enumerate(parsing.band_of_cell)
            for j, b in enumerate(row) if b == band]


def is_horizontal_band(cells, values=None) -> bool:
    """Check the horizontal-band condition on a set of cells.

    At most one cell per column; read in column order the rows must weakly
    decrease (each cell weakly north-east of the previous). When entry values
    are supplied they must weakly increase in the same order, which is what
    makes a merged band fillable by a single letter.
    """
    cols = [c for _, c in cells]
    if len(set(cols)) != len(cols):
        return False
    ordered = sorted(range(len(cells)), key=lambda k: cells[k][1])
    rows = [cells[k][0] for k in ordered]
    if any(rows[k] < rows[k + 1] for k in range(len(rows) - 1)):
        return False
    if values is not None:
        vals = [values[k] for k in ordered]
        if any(vals[k] > vals[k + 1] for k in range(len(vals) - 1)):
            return False
    return True


def bands_mergeable(T: Tableau, parsing: HorizontalBandParsing, band: int) -> bool:
    """Would merging band and band+1 of T still be a horizontal band?"""
    cells = band_cells(parsing, band) + band_cells(parsing, band + 1)
    values = [T[i][j] for i, j in cells]
    return is_horizontal_band(cells, values)


# ---------------------------------------------------------------------------
# enumeration

def enumerate_ssyt(shape: Partition, max_entry: int) -> list[Tableau]:
    """All semistandard tableaux of the shape with entries <= max_entry.

    Listed in lexicographic order of reading words for reproducible output.
    """
    shape = check_partition(shape)
    (max_entry,) = _check_ints((max_entry,), "max_entry")
    if max_entry < 1:
        raise InvalidParameters("max_entry must be >= 1")
    if len(shape) > max_entry:
        return []
    out = [()]
    for i, length in enumerate(shape):  # columns strictly increase: row i holds > i
        rows = list(combinations_with_replacement(range(i + 1, max_entry + 1), length))
        out = [T + (row,) for T in out for row in rows if not T or all(map(lt, T[-1], row))]
    out.sort(key=reading_word)
    return out


def enumerate_syt(shape: Partition) -> list[Tableau]:
    """All standard tableaux of the shape, sorted by reading word."""
    return enumerate_syt_by_parts(shape, sum(check_partition(shape)))


def enumerate_syt_by_parts(shape: Partition, max_parts: int) -> list[Tableau]:
    """Standard tableaux whose descent composition has at most max_parts parts.

    Sorted by reading word, like enumerate_syt: the reading words of
    _standard_fill cut into rows, so no tableau beyond the bound is listed.
    EmptyInput for the empty shape.
    """
    shape = check_partition(shape)
    return list(_cut_tableaux(shape, [q for q, _ in _standard_fill(shape, max_parts)]))


def _standard_fill(shape: Partition, max_parts: int) -> list[tuple[Word, Word]]:
    """(reading word, band filling) of each standard tableau of a checked
    shape whose descent composition has at most max_parts parts, sorted by
    reading word. EmptyInput for the empty shape.

    One odometer over the labels, no recursion: label k goes to the first
    row at or after r that has room, and when none has, label k-1 is lifted
    and tried one row lower. k-1 is a descent iff k sits in a lower row than
    k-1, so the fill keeps the running part count and cuts a branch as soon
    as it needs one part more than max_parts (every later row is lower
    too). Label k is written at its cell's place in the reading word, the
    row's offset plus the column, and its part count at the same place of
    the band filling: the reading word of destandardize(Q, descent
    composition of Q).
    """
    if not shape:
        raise EmptyInput("empty tableau")
    m, ell = sum(shape), len(shape)
    offset = [sum(shape[r + 1:]) for r in range(ell)]  # the rows are read bottom first
    filled = [m + 1] + [0] * ell  # filled[r + 1]: cells of row r; filled[0] bounds row 0
    word, band = [0] * m, [0] * m
    row_of, parts_of = [-1] * (m + 1), [0] * (m + 1)  # of label k; label 0 starts
    out = []
    k, r = 1, 0  # place label k in row r or a later one
    while k:
        last, parts = row_of[k - 1], parts_of[k - 1]
        while r < ell:
            n = filled[r + 1]
            if n < shape[r] and n < filled[r]:
                p = parts + (r > last)
                if p > max_parts:
                    r = ell
                    break
                pos = offset[r] + n
                word[pos], band[pos] = k, p
                filled[r + 1] = n + 1
                row_of[k], parts_of[k] = r, p
                break
            r += 1
        if r < ell:  # label k placed
            if k < m:
                k, r = k + 1, 0
                continue
            out.append((tuple(word), tuple(band)))
        else:  # no row left for label k: lift label k - 1
            k -= 1
            r = row_of[k]
        filled[r + 1] -= 1
        r += 1
    out.sort()
    return out


def _cut_tableaux(shape: Partition, words) -> tuple[Tableau, ...]:
    """The tableaux of a non-empty shape with the given reading words, each
    cut into rows by one itemgetter of reading_rows(shape)."""
    if len(shape) == 1:  # a one-item itemgetter returns the bare row
        return tuple((w,) for w in words)
    return tuple(map(itemgetter(*reading_rows(shape)), words))


@cache
def _syt_descent_compositions(shape: Partition) -> tuple[Composition, ...]:
    """Part k of each composition counts the letters k of its band filling."""
    return tuple(tuple(map(w.count, range(1, max(w) + 1)))
                 for _, w in _standard_fill(shape, sum(shape)))


def syt_descent_compositions(shape: Partition) -> tuple[Composition, ...]:
    """Descent compositions of enumerate_syt(shape), in the same order (cached).

    It lists the band fillings of the standard tableaux: only sources_of_type
    and, as a check, verify call it. EmptyInput for the empty shape."""
    return _syt_descent_compositions(check_partition(shape))


# ---------------------------------------------------------------------------
# counting, without listing a tableau

def _tree_prod(factors: list[int]) -> int:
    """The product of the ints, as the product of the two halves' products:
    big operands meet only their like, so the 100,000 contents of a row
    take 0.16 s, against 2 s for one running product, on a 2-vCPU VM."""
    if len(factors) <= 64:
        return prod(factors)
    half = len(factors) // 2
    return _tree_prod(factors[:half]) * _tree_prod(factors[half:])


def _hook_product(shape: Partition) -> int:
    """The product of the hook lengths of a checked shape; EmptyInput for
    the empty shape."""
    if not shape:
        raise EmptyInput("empty tableau")
    conjugate = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    return _tree_prod([(r - j) + (conjugate[j] - i) - 1
                       for i, r in enumerate(shape) for j in range(r)])


def hook_length_count(shape: Partition) -> int:
    """Number of standard tableaux by the hook-length formula (counting oracle)."""
    shape = check_partition(shape)
    return factorial(sum(shape)) // _hook_product(shape)


def hook_content_count(shape: Partition, n: int) -> int:
    """Number of tableaux of the shape with entries <= n (hook-content formula).

    The product over cells (r, c) of (n + c - r) / hook(r, c): the product
    of the contents over the product of the hooks, each taken by _tree_prod;
    O(cells) integer steps, no factorial, no tableau listed, 0 when n <
    len(shape). EmptyInput for the empty shape at n >= 0.
    """
    shape = check_partition(shape)
    (n,) = _check_ints((n,), "the alphabet n")
    if n < len(shape):
        return 0
    hooks = _hook_product(shape)
    return _tree_prod([n + c - r for r, length in enumerate(shape) for c in range(length)]) // hooks


def _corner_counts(shape: Partition, allowed: int, tracked: int) -> dict[int, int]:
    """Standard tableaux by one int key, (descent mask & tracked) << b | row,
    where row is that of the largest entry and b = len(shape).bit_length().

    Descent d of a tableau of size m is bit m-1-d of a mask (so of allowed
    and tracked too): the masks in decreasing order then list the descent
    compositions in increasing lexicographic order. In a standard tableau
    with k cells, k sits in a corner, and k-1 is a descent iff k's row is
    below that of k-1. So the walk grows the shape a cell at a time from
    (1,), keeping the counts of each sub-shape of the current size, and
    drops a branch that puts a descent outside allowed. EmptyInput for the
    empty shape.
    """
    if not shape:
        raise EmptyInput("empty tableau")
    m, b = sum(shape), len(shape).bit_length()
    low = (1 << b) - 1
    level = {(1,): {0: 1}}
    for k in range(2, m + 1):
        bit = 1 << (m - k)  # descent k-1: k sits in a lower row than k-1
        barred, kept = not bit & allowed, (bit & tracked) << b
        grown: dict[Partition, dict[int, int]] = {}
        for sub, counts in level.items():
            for r in range(min(len(sub) + 1, len(shape))):
                width = sub[r] + 1 if r < len(sub) else 1
                if width > shape[r] or (r and width > sub[r - 1]):
                    continue
                target = grown.setdefault(sub[:r] + (width,) + sub[r + 1:], {})
                for key, count in counts.items():
                    row = key & low
                    if r > row:
                        if barred:
                            continue
                        key |= kept
                    key = (key ^ row) | r
                    target[key] = target.get(key, 0) + count
        level = grown
    return level[shape]


@cache
def _mask_composition(mask: int, m: int) -> Composition:
    """The composition of m whose descent d is bit m-1-d of mask (cached, so
    every table of size m holds one tuple per composition)."""
    return descent_set_to_composition(
        [d for d in range(1, m) if mask >> (m - 1 - d) & 1], m)


@cache
def _descent_table(shape: Partition) -> dict[Composition, int]:
    """{descent composition: number of standard tableaux} of a checked shape,
    in increasing order of the compositions: the F-expansion of s_shape,
    _corner_counts tracking every descent (cached; read it, never write it)."""
    by_mask: dict[int, int] = {}
    b = len(shape).bit_length()
    for key, count in _corner_counts(shape, -1, -1).items():  # -1: every bit
        by_mask[key >> b] = by_mask.get(key >> b, 0) + count
    m = sum(shape)
    return {_mask_composition(mask, m): by_mask[mask]
            for mask in sorted(by_mask, reverse=True)}


def descent_composition_counts(shape: Partition) -> tuple[tuple[Composition, int], ...]:
    """Sorted (descent composition, number of standard tableaux) pairs, the
    F-expansion of s_shape, read from the cached table."""
    return tuple(_descent_table(check_partition(shape)).items())


def count_bm(m: int, k: int) -> int:
    """Number of one-row tableaux of size m over 1..k: C(m+k-1, k-1)."""
    m, k = _check_ints((m, k), "m and k")
    if m < 1 or k < 1:
        raise InvalidParameters("m and k must be >= 1")
    return comb(m + k - 1, k - 1)


def max_descent_composition_length(shape: Partition) -> int:
    """|shape| - shape[0] + 1, the most parts of a descent composition on the
    shape: the skeleton is stable from this alphabet on. The first entry k
    of a row below the top one makes k - 1 a descent, and a later entry k of
    the top row makes k - 1 none; filling by rows, or by columns, meets both
    bounds, so the descent counts run from len(shape) - 1 to |shape| -
    shape[0]. EmptyInput for the empty shape."""
    shape = check_partition(shape)
    if not shape:
        raise EmptyInput("empty tableau")
    return sum(shape) - shape[0] + 1


@cache
def _descent_count_census(shape: Partition) -> tuple[tuple[int, int], ...]:
    ell = len(shape)
    h = [hook_content_count(shape, ell)]  # h[k]: the count at alphabet ell + k
    for n in range(ell, max_descent_composition_length(shape)):
        h.append(h[-1] * prod(n + part - r for r, part in enumerate(shape))
                 // prod(range(n - ell + 1, n + 1)))
    signed = [(-1) ** j * comb(sum(shape) + 1, j) for j in range(len(h))]
    census = (sum(map(mul, signed, reversed(h[:k + 1]))) for k in range(len(h)))
    return tuple((d, c) for d, c in enumerate(census, ell - 1) if c)


def descent_count_census(shape: Partition) -> dict[int, int]:
    """How many standard tableaux of the shape have each number of descents.

    With H(n) the hook-content count at alphabet n, sum_n H(n) t^n =
    sum_d c_d t^(d+1) / (1-t)^(|shape|+1) (Stanley, EC2 7.19) gives c_d =
    sum_j (-1)^j C(|shape|+1, j) H(d+1-j) for d in the range of
    max_descent_composition_length; H(n+1) = H(n) prod_r (n + shape[r] - r)
    / (n - r). No tableau is listed; only the d with c_d > 0 are keys.
    """
    shape = check_partition(shape)
    return dict(_descent_count_census(shape)) if shape else {}


def count_ssyt_formula(shape: Partition, n: int) -> int:
    """Exact count of tableaux of the shape with entries <= n.

    Sums, over the number of descents d, the number of standard tableaux
    with d descents (descent_count_census) times the size of the one-row
    crystal each of their descent classes is isomorphic to; terms with
    d >= n vanish. Exact at any n, and no tableau is listed.
    """
    shape = check_partition(shape)
    (n,) = _check_ints((n,), "the alphabet n")
    m = sum(shape)
    return sum(count * comb(m + n - d - 1, n - d - 1)
               for d, count in descent_count_census(shape).items() if d < n)


def kostka(shape: Partition, mu) -> int:
    """Kostka number: tableaux of the shape with weight mu.

    The paper's formula: the standard tableaux whose descent composition mu
    refines, that is whose descents all lie in the descent set of mu (zero
    parts of mu are dropped), counted by _corner_counts.
    """
    shape = check_partition(shape)
    mu = _check_ints(mu, "weights")
    if any(p < 0 for p in mu):
        raise InvalidParameters("weights must be non-negative")
    m = sum(shape)
    if sum(mu) != m:
        raise InvalidParameters("|mu| must equal |shape|")
    allowed = sum(1 << (m - 1 - d) for d in composition_to_descent_set([p for p in mu if p]))
    return sum(_corner_counts(shape, allowed, 0).values())


# ---------------------------------------------------------------------------
# distinguished fillings

def highest_weight_tableau(shape: Partition) -> Tableau:
    """Row i filled with entry i: the source of the crystal on the shape."""
    shape = check_partition(shape)
    return tuple((i,) * r for i, r in enumerate(shape, 1))


def band_letters(alpha: Composition) -> tuple[int, ...]:
    """Band letter of each standard label 1..|alpha|: part k of alpha gives k.

    band_letters((2, 1, 3)) == (1, 1, 2, 3, 3, 3), indexed by label - 1.
    """
    return tuple(k for k, part in enumerate(alpha, 1) for _ in range(part))


def destandardize(T: Tableau, alpha: Composition) -> Tableau:
    """Fill the k-th block of alpha consecutive entries of a standard T with k."""
    letters = band_letters(alpha)
    if len(letters) != tableau_size(T) or not is_standard(T):
        raise InvalidParameters(f"not a standard tableau of size {len(letters)}: {T}")
    return tuple(tuple(letters[v - 1] for v in row) for row in T)


def sources_of_type(shape: Partition, alpha: Composition) -> list[Tableau]:
    """Tableaux of the shape with weight alpha and minimal parsing of type alpha.

    One per standard tableau with descent composition alpha, obtained by
    filling its k-th band with entry k.
    """
    shape = check_partition(shape)
    alpha = check_composition(alpha)
    if sum(alpha) != sum(shape):
        raise InvalidParameters("|alpha| must equal |shape|")
    out = []
    for T, comp in zip(enumerate_syt(shape), syt_descent_compositions(shape)):
        if comp == alpha:
            out.append(destandardize(T, alpha))
    return out
