"""Raising/lowering operators on words and tableaux, and crystal graphs.

The operators use the parenthesis rule: for a fixed letter i, each i in the
word is a ')' and each i+1 a '('; coupled pairs (a '(' later closed by a ')')
are removed, leaving )^phi (^eps. The lowering operator acts on the letter i
of the rightmost surviving ')', the raising operator on the letter i+1 of the
leftmost surviving '('. A null action is returned as None, never an error.

Crystals are generated on reading words, which are in bijection with the
tableaux of a fixed shape. One left-to-right scan of a word finds, for every
i at once, the position f_i changes (lowering_positions), and one
right-to-left scan does the same for e_i (raising_positions); the skeleton
takes single steps from band fillings with both. A single word BFS serves
generate_crystal and word_crystal_component. It keys each word by its
integer value in base max_entry + 1, so a step f_i at position p of a word
of length m adds base ** (m-1-p) to the key, and it builds a child's word
only when the child is new; Python ints are unbounded, so any alphabet
takes this one route. The BFS lists the edges sorted, each from a lower to
a higher vertex index (an edge goes one step deeper, and indices follow
depth), which lets decomposition.descent_classes split a crystal in one
forward pass. The scan that finds a word's f_i positions also yields its
crossing mask: bit i is set iff some i+1 comes before some i, which is
when f_i leaves the descent class. The graph keeps the masks as a private
cached property, seeded by the BFS and otherwise recomputed from the
words, so descent_classes tests one bit per edge. A CrystalGraph keeps the
words the BFS found: a tableau crystal carries its shape and cuts its
words into rows by tableaux._cut_tableaux, as the standard-tableau listing
does, only when its vertices are asked for, so callers that work on words
(decompose, which cuts only its class sources, and the skeleton oracle of
verify.skeleton_suite) never build every tableau. paren_reduce and the
per-i operators f_word, e_word, f_tableau and e_tableau apply the rule one
letter at a time and check their input (InvalidParameters for a
non-integer i, letter or tableau entry); they are kept as the independent
slow oracle that the verify suites and the tests compare the generator
against, and the BFS never calls them.

A finished graph is walked by one routine, bfs_forest, a list-indexed
breadth-first forest: CrystalGraph.depths and the skeleton strata
classifier call it.
"""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import InvalidParameters
from .tableaux import (
    Partition, Tableau, Word,
    _check_ints, _cut_tableaux, check_partition, highest_weight_tableau, reading_rows,
    reading_word, shape_of,
)

_NO_EDGES = MappingProxyType({})


@dataclass(frozen=True)
class ParenReduction:
    """Surviving parentheses for one letter i, positions 0-indexed into the word.

    unpaired_close_positions hold letters i, unpaired_open_positions letters
    i+1; phi and epsilon are their counts.
    """
    unpaired_close_positions: tuple[int, ...]
    unpaired_open_positions: tuple[int, ...]

    @property
    def phi(self) -> int:
        return len(self.unpaired_close_positions)

    @property
    def epsilon(self) -> int:
        return len(self.unpaired_open_positions)


def _checked_reduction(w: Word, i: int) -> tuple[Word, ParenReduction]:
    """w as a tuple of ints and its reduction for i, by one left-to-right
    stack scan; InvalidParameters unless i and the letters are integers."""
    (i,) = _check_ints((i,), "the operator label i")
    w = _check_ints(w, "letters")
    opens: list[int] = []
    closes: list[int] = []
    for pos, letter in enumerate(w):
        if letter == i + 1:
            opens.append(pos)
        elif letter == i:
            if opens:
                opens.pop()
            else:
                closes.append(pos)
    return w, ParenReduction(tuple(closes), tuple(opens))


def paren_reduce(w: Word, i: int) -> ParenReduction:
    """Single left-to-right stack scan; equivalent to removing coupled pairs.

    InvalidParameters unless i and the letters of w are integers.
    """
    return _checked_reduction(w, i)[1]


def f_word(w: Word, i: int) -> Word | None:
    """Change the letter i of the rightmost unpaired ')' into i+1, or None.

    InvalidParameters unless i and the letters of w are integers.
    """
    w, red = _checked_reduction(w, i)
    if not red.unpaired_close_positions:
        return None
    pos = red.unpaired_close_positions[-1]
    return w[:pos] + (w[pos] + 1,) + w[pos + 1:]


def e_word(w: Word, i: int) -> Word | None:
    """Change the letter i+1 of the leftmost unpaired '(' into i, or None.

    InvalidParameters unless i and the letters of w are integers.
    """
    w, red = _checked_reduction(w, i)
    if not red.unpaired_open_positions:
        return None
    pos = red.unpaired_open_positions[0]
    return w[:pos] + (w[pos] - 1,) + w[pos + 1:]


def _apply_on_reading_word(T: Tableau, i: int, word_op) -> Tableau | None:
    new = word_op(_check_ints(reading_word(T), "tableau entries"), i)
    if new is None:
        return None
    return tuple(new[row] for row in reading_rows(shape_of(T)))


def f_tableau(T: Tableau, i: int) -> Tableau | None:
    """Lowering operator through the reading word; always semistandard when defined.

    InvalidParameters unless i and the entries of T are integers.
    """
    return _apply_on_reading_word(T, i, f_word)


def e_tableau(T: Tableau, i: int) -> Tableau | None:
    """Raising operator through the reading word; InvalidParameters as for f_tableau."""
    return _apply_on_reading_word(T, i, e_word)


# ---------------------------------------------------------------------------
# graphs

def bfs_forest(roots, adjacency) -> tuple[list[list[int]], list[int], list[int]]:
    """Breadth-first forest of a graph given as adjacency lists over 0..n-1.

    Each root not reached from an earlier one starts a tree; the trees come
    in that order, each listing its vertices in discovery order with the root
    first. parent[v] is v's tree parent (-1 at a root) and depth[v] its
    distance from the root of its tree; both are -1 where no root reaches v.
    """
    parent = [-1] * len(adjacency)
    depth = [-1] * len(adjacency)
    trees = []
    for root in roots:
        if depth[root] >= 0:
            continue
        depth[root] = 0
        tree = [root]
        for u in tree:  # tree grows while it is walked: a FIFO queue
            for v in adjacency[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    tree.append(v)
        trees.append(tree)
    return trees, parent, depth


@dataclass(frozen=True)
class CrystalGraph:
    """Labelled oriented graph of a connected crystal, stored on reading words.

    words[k] is the reading word of vertex k; vertices are indexed in BFS
    discovery order from the source with children visited by ascending
    label, so the layout is canonical. Edges are (from, to, label) triples.
    shape is the shape of a tableau crystal and None for a word crystal.
    The vertices (the words cut into rows by reading_rows(shape), or the
    words themselves), the crossing masks, the vertex index and the
    adjacency maps are derived from those fields on first use, so
    dataclasses.replace() yields a graph with its own; out_edges and
    in_edges hand the maps out as read-only views.
    """
    words: tuple[Word, ...]
    edges: tuple[tuple[int, int, int], ...]
    source: int | None
    max_entry: int
    shape: Partition | None

    @property
    def kind(self) -> str:
        """'tableau' or 'word', read off shape."""
        return "word" if self.shape is None else "tableau"

    @cached_property
    def vertices(self) -> tuple:
        if self.shape is None:
            return self.words
        return _cut_tableaux(self.shape, self.words)

    @cached_property
    def _crossings(self) -> tuple[int, ...]:
        """The crossing mask of each word (_crossing_mask): bit i of entry k
        is set iff f_i leaves the descent class of vertex k. The BFS seeds
        it from its scan; it depends on the words alone."""
        return tuple(map(_crossing_mask, self.words))

    @cached_property
    def _index(self) -> dict:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def _out(self) -> dict[int, MappingProxyType]:
        out: dict[int, dict[int, int]] = {}
        for u, v, i in self.edges:
            out.setdefault(u, {})[i] = v
        return {u: MappingProxyType(labels) for u, labels in out.items()}

    @cached_property
    def _in(self) -> dict[int, MappingProxyType]:
        into: dict[int, dict[int, int]] = {}
        for u, v, i in self.edges:
            into.setdefault(v, {})[i] = u
        return {v: MappingProxyType(labels) for v, labels in into.items()}

    def index_of(self, vertex) -> int:
        return self._index[vertex]

    def out_edges(self, u: int) -> MappingProxyType:
        """Read-only map label -> target of the edges leaving u."""
        return self._out.get(u, _NO_EDGES)

    def in_edges(self, v: int) -> MappingProxyType:
        """Read-only map label -> origin of the edges entering v."""
        return self._in.get(v, _NO_EDGES)

    def sources(self) -> list[int]:
        return [k for k in range(len(self.words)) if not self.in_edges(k)]

    def sinks(self) -> list[int]:
        return [k for k in range(len(self.words)) if not self.out_edges(k)]

    def depths(self) -> list[int]:
        """BFS distance of every vertex from the source, -1 where unreached."""
        roots = () if self.source is None else (self.source,)
        out = [self.out_edges(u).values() for u in range(len(self.words))]
        return bfs_forest(roots, out)[2]


def lowering_positions(w: Word, max_entry: int) -> list[int]:
    """Position f_i changes in w, indexed by i, or -1 where f_i(w) is None.

    One left-to-right scan serves every i: open_count[a] counts the letters a
    not yet closed by a later a-1, and a letter a either closes one of the
    open a+1 or is the newest unpaired ')' for i = a. Entry max_entry is
    not an operator and is never read. _word_bfs runs the same scan inline.
    """
    open_count = [0] * (max_entry + 2)
    last_close = [-1] * (max_entry + 1)
    for pos, letter in enumerate(w):
        if open_count[letter + 1]:
            open_count[letter + 1] -= 1
        else:
            last_close[letter] = pos
        open_count[letter] += 1
    return last_close


def raising_positions(w: Word, max_entry: int) -> list[int]:
    """Position e_i changes in w, indexed by i, or -1 where e_i(w) is None.

    The mirror of lowering_positions, scanning right to left: close_count[a]
    counts the letters a met so far that no a+1 before them has paired, and
    a letter a either pairs with one of the a-1 counted, as the '(' of
    i = a-1, or is the leftmost unpaired '(' met so far. Entry 0 is not an
    operator and is never read.
    """
    close_count = [0] * (max_entry + 1)
    first_open = [-1] * max_entry
    for pos in range(len(w) - 1, -1, -1):
        letter = w[pos]
        if close_count[letter - 1]:
            close_count[letter - 1] -= 1
        else:
            first_open[letter - 1] = pos
        close_count[letter] += 1
    return first_open


def _crossing_mask(w: Word) -> int:
    """Bit i is set iff some i+1 comes before some i in w: then f_i, where it
    is defined, changes the standardization of w (the edge rule of
    decomposition). A second route to what _word_bfs's scan finds."""
    mask = seen = 0
    for letter in w:
        seen |= 1 << letter
        if seen >> (letter + 1) & 1:
            mask |= 1 << letter
    return mask


def _word_bfs(start: Word, max_entry: int, shape: Partition | None) -> CrystalGraph:
    """The graph of the closure of {start} under f_1..f_{max_entry-1}, in BFS order.

    Children are visited by ascending label, so vertex k is the k-th word
    discovered; edges are sorted (from, to, label) triples, each from a
    lower to a higher index. The index is keyed by each word's integer
    value in base max_entry + 1, first letter most significant, and
    place[p] is what f_i changing position p adds to it. Each word is
    scanned once as in lowering_positions; the scan also sets bit a of the
    word's crossing mask when a letter a closes an earlier open a+1, which
    happens iff some a+1 comes before some a, and the graph keeps the masks.
    """
    base = max_entry + 1
    place = [base ** p for p in range(len(start) - 1, -1, -1)]
    code = 0
    for letter in start:
        code = code * base + letter
    words = [start]
    codes = [code]
    index = {code: 0}
    edges = []
    crossings = []
    labels = range(1, max_entry)
    for u, w in enumerate(words):  # words grows while it is walked: a FIFO queue
        open_count = [0] * (max_entry + 2)
        last_close = [-1] * (max_entry + 1)
        mask = 0
        for pos, letter in enumerate(w):
            if open_count[letter + 1]:
                open_count[letter + 1] -= 1
                mask |= 1 << letter
            else:
                last_close[letter] = pos
            open_count[letter] += 1
        crossings.append(mask)
        code = codes[u]
        for i in labels:
            pos = last_close[i]
            if pos < 0:
                continue
            child = code + place[pos]
            k = index.get(child)
            if k is None:
                k = index[child] = len(words)
                words.append(w[:pos] + (i + 1,) + w[pos + 1:])
                codes.append(child)
            edges.append((u, k, i))
    edges.sort()
    G = CrystalGraph(tuple(words), tuple(edges), 0, max_entry, shape)
    vars(G)["_crossings"] = tuple(crossings)  # seeds the cached property
    return G


def generate_crystal(shape: Partition, max_entry: int) -> CrystalGraph:
    """The connected crystal of tableaux of the shape with entries <= max_entry.

    Breadth-first closure of the highest-weight tableau under all lowering
    operators, run on its reading word; the graph keeps the words and cuts
    them into rows only when its vertices are read. Empty when
    max_entry < len(shape), where no filling exists.
    """
    shape = check_partition(shape)
    (max_entry,) = _check_ints((max_entry,), "max_entry")
    if max_entry < 1:
        raise InvalidParameters("max_entry must be >= 1")
    if len(shape) > max_entry:
        return CrystalGraph((), (), None, max_entry, shape)
    start = reading_word(highest_weight_tableau(shape))
    return _word_bfs(start, max_entry, shape)


def word_crystal_component(w: Word, max_entry: int) -> CrystalGraph:
    """Connected component of the word crystal containing w.

    The source is reached by exhausting raising operators, e_i of least i
    first by raising_positions (the component is graded, so the greedy
    ascent terminates at its unique source); the component is then
    generated forward from it. InvalidParameters unless
    max_entry and the letters are integers and every letter lies in
    1..max_entry; a word given as a list is read as a tuple.
    """
    (max_entry,) = _check_ints((max_entry,), "max_entry")
    w = _check_ints(w, "letters")
    if max_entry < 1 or any(not 1 <= letter <= max_entry for letter in w):
        raise InvalidParameters("letters must lie in 1..max_entry")
    current = w
    while True:
        up = raising_positions(current, max_entry)
        i = next((i for i in range(1, max_entry) if up[i] >= 0), 0)
        if not i:
            break
        current = current[:up[i]] + (i,) + current[up[i] + 1:]
    return _word_bfs(current, max_entry, None)
