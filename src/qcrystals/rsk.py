"""Row insertion, jeu de taquin, and the evacuation involution.

Evacuation inside 1..n inserts rot_word(reading_word(T), n), the reading
word reversed with each letter v replaced by n-v+1 (Fulton, Young Tableaux,
App. A.1); rectify(rotate180_complement(T, n)) is verify's oracle for it. It
is an involution at fixed n, reverses descent compositions, and intertwines
the raising and lowering operators with complemented labels.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyInput, EntryOutOfRange, InvalidPair, InvalidParameters
from .tableaux import (
    Tableau, Word,
    _check_ints, _is_filling, _is_semistandard_rows, _is_standard_rows, from_rows,
    is_semistandard, reading_word, shape_of, tableau_size,
)


class RskPair(NamedTuple):
    P: Tableau
    Q: Tableau


def rsk(w: Word) -> RskPair:
    """Insertion and recording tableaux of w under Schensted row insertion. EmptyInput
    for an empty w, then InvalidParameters unless the letters are integers, then
    EntryOutOfRange for a letter below 1."""
    if not w:
        raise EmptyInput("empty word")
    w = _check_ints(w, "letters")
    if min(w) < 1:
        raise EntryOutOfRange("letters must be at least 1")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(w, 1):
        for p_row, q_row in zip(p_rows, q_rows):
            j = bisect_right(p_row, x)  # the leftmost entry greater than x bumps
            if j == len(p_row):
                p_row.append(x)
                q_row.append(step)
                break
            p_row[j], x = x, p_row[j]
        else:
            p_rows.append([x])
            q_rows.append([step])
    return RskPair(tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows)))


def rsk_inverse(pair: RskPair) -> Word:
    """The unique word inserting to the pair, by reverse bumping. InvalidParameters
    unless pair is a pair, then unless P and then Q are rows of integers, then
    InvalidPair unless P is semistandard and Q standard of the same shape.
    Each tableau is converted once, and the pair is checked in one pass."""
    try:
        P, Q = pair
    except (TypeError, ValueError):
        raise InvalidParameters(f"expected a pair (P, Q) of tableaux, got {pair!r}") from None
    P, Q = from_rows(P), from_rows(Q)
    if shape_of(P) != shape_of(Q) or not _is_semistandard_rows(P) or not _is_standard_rows(Q):
        raise InvalidPair("need same-shape (semistandard, standard) tableaux")
    p_rows = [list(row) for row in P]
    cell_of = {Q[i][j]: (i, j) for i in range(len(Q)) for j in range(len(Q[i]))}
    letters = []
    for step in range(tableau_size(Q), 0, -1):
        r, c = cell_of[step]
        x = p_rows[r].pop(c)
        for row in reversed(p_rows[:r]):
            j = bisect_left(row, x) - 1  # the rightmost entry less than x
            row[j], x = x, row[j]
        letters.append(x)
        if not p_rows[-1]:
            p_rows.pop()
    return tuple(reversed(letters))


# ---------------------------------------------------------------------------
# skew tableaux and jeu de taquin

@dataclass(frozen=True)
class SkewTableau:
    """Filling of outer/inner cells; rows[i] holds the filled entries of row i.

    Blank cells are never materialized: row i consists of inner[i] blanks
    followed by rows[i]. inner may carry trailing zeros.
    """
    inner: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def is_valid(self) -> bool:
        """tableaux._is_filling: the one pass over rows and columns."""
        return _is_filling(self.inner, self.rows)


def skew_from_rows(inner, rows) -> SkewTableau:
    return SkewTableau(_check_ints(inner, "the inner shape"),
                       tuple(_check_ints(row, "skew tableau entries") for row in rows))


def skew_reading_word(S: SkewTableau) -> Word:
    return tuple(v for row in reversed(S.rows) for v in row)


def _inner_corners(inner: list[int]) -> list[tuple[int, int]]:
    """Cells removable from the inner shape, as (row, col)."""
    corners = []
    for i, p in enumerate(inner):
        if p > 0 and (i + 1 >= len(inner) or inner[i + 1] < p):
            corners.append((i, p - 1))
    return corners


def _slide(grid: list[list[int | None]], r: int, c: int) -> None:
    """One inward slide from the hole at (r, c); mutates grid.

    At each step the hole swaps with the smaller of its right and lower
    neighbours (the lower one on ties, keeping columns strict); it exits the
    filling when neither exists, and that cell is removed from the shape.
    """
    while True:
        right = grid[r][c + 1] if c + 1 < len(grid[r]) else None
        below = grid[r + 1][c] if r + 1 < len(grid) and c < len(grid[r + 1]) else None
        if right is None and below is None:
            break
        if right is None or (below is not None and below <= right):
            grid[r][c] = below
            grid[r + 1][c] = None
            r += 1
        else:
            grid[r][c] = right
            grid[r][c + 1] = None
            c += 1
    grid[r].pop()
    if not grid[r]:
        grid.pop(r)


def jdt_rectify(S: SkewTableau, choose=max) -> Tableau:
    """Rectification of a skew tableau by inward slides.

    choose(corners) picks the inner corner of each slide. The result does not
    depend on that order; the default takes the south-east-most corner (max
    row, then max column), and tests pass other orders to check this.
    """
    if not S.is_valid():
        raise InvalidPair(f"not a valid skew tableau: {S}")
    grid: list[list[int | None]] = [
        [None] * S.inner[i] + list(S.rows[i]) for i in range(len(S.rows))]
    inner = list(S.inner)
    while any(inner):
        r, c = choose(_inner_corners(inner))
        inner[r] -= 1
        _slide(grid, r, c)
        inner = inner[:len(grid)]
    return from_rows(grid)


# ---------------------------------------------------------------------------
# rotation, complementation, evacuation

def rot_word(w: Word, n: int) -> Word:
    """Reverse the word and complement each letter v -> n-v+1 (an involution).

    InvalidParameters unless n and the letters are integers, then
    EntryOutOfRange unless every letter lies in 1..n.
    """
    (n,) = _check_ints((n,), "the alphabet bound n")
    w = _check_ints(w, "letters")
    if any(not 1 <= v <= n for v in w):
        raise EntryOutOfRange(f"letters must lie in 1..{n}")
    return tuple(n - v + 1 for v in reversed(w))


def rotate180_complement(T: Tableau, n: int) -> SkewTableau:
    """Rotate T half a turn inside its bounding rectangle and complement entries.

    The reading word of the result is rot_word of the reading word of T.
    EmptyInput for an empty T, then InvalidParameters unless n and the
    entries are integers, then EntryOutOfRange for an entry outside 1..n.
    """
    if not T:
        raise EmptyInput("empty tableau")
    (n,) = _check_ints((n,), "the alphabet bound n")
    T = tuple(_check_ints(row, "tableau entries") for row in T)
    if any(not 1 <= v <= n for row in T for v in row):
        raise EntryOutOfRange(f"entries must lie in 1..{n}")
    width = len(T[0])
    inner = tuple(width - len(row) for row in reversed(T))
    rows = tuple(tuple(n - v + 1 for v in reversed(row)) for row in reversed(T))
    return SkewTableau(inner, rows)


def evacuate(T: Tableau, n: int | None = None) -> Tableau:
    """rsk_of_rot(reading_word(T), n).P: evacuation of T inside the alphabet 1..n
    (default: its largest entry). EmptyInput for an empty T, then InvalidParameters
    unless the entries and n are integers, then EntryOutOfRange for an entry
    outside 1..n, then InvalidPair unless T is semistandard."""
    word = _check_ints(reading_word(T), "tableau entries")
    rotated = rot_word(word, max(word, default=0) if n is None else n)
    if not is_semistandard(T):
        raise InvalidPair(f"not a semistandard tableau: {T}")
    return rsk(rotated).P


def rsk_of_rot(w: Word, n: int) -> RskPair:
    """Insertion pair of rot_word(w, n): (evacuate(P, n), evacuate(Q, len(w))) for the
    pair (P, Q) of w. evacuate inserts such a word too, so verify.evacuation_suite
    checks it against jdt_rectify(rotate180_complement(T, n)) on every tableau."""
    return rsk(rot_word(w, n))
