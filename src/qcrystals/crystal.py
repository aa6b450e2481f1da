"""Raising/lowering operators on words and tableaux, and crystal graphs.

The operators use the parenthesis rule: for a fixed letter i, each i in the
word is a ')' and each i+1 a '('; coupled pairs (a '(' later closed by a ')')
are removed, leaving )^phi (^eps. The lowering operator acts on the letter i
of the rightmost surviving ')', the raising operator on the letter i+1 of the
leftmost surviving '('. A null action is returned as None, never an error.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidParameters
from .tableaux import (
    Partition, Tableau, Word,
    check_partition, highest_weight_tableau, reading_cells, reading_word,
    shape_of,
)


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


def paren_reduce(w: Word, i: int) -> ParenReduction:
    """Single left-to-right stack scan; equivalent to removing coupled pairs."""
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
    return ParenReduction(tuple(closes), tuple(opens))


def f_word(w: Word, i: int) -> Word | None:
    """Change the letter i of the rightmost unpaired ')' into i+1, or None."""
    red = paren_reduce(w, i)
    if not red.unpaired_close_positions:
        return None
    pos = red.unpaired_close_positions[-1]
    return w[:pos] + (i + 1,) + w[pos + 1:]


def e_word(w: Word, i: int) -> Word | None:
    """Change the letter i+1 of the leftmost unpaired '(' into i, or None."""
    red = paren_reduce(w, i)
    if not red.unpaired_open_positions:
        return None
    pos = red.unpaired_open_positions[0]
    return w[:pos] + (i,) + w[pos + 1:]


def _apply_on_reading_word(T: Tableau, i: int, word_op) -> Tableau | None:
    w = reading_word(T)
    new = word_op(w, i)
    if new is None:
        return None
    pos = next(k for k in range(len(w)) if w[k] != new[k])
    r, c = reading_cells(shape_of(T))[pos]
    rows = [list(row) for row in T]
    rows[r][c] = new[pos]
    return tuple(tuple(row) for row in rows)


def f_tableau(T: Tableau, i: int) -> Tableau | None:
    """Lowering operator through the reading word; always semistandard when defined."""
    return _apply_on_reading_word(T, i, f_word)


def e_tableau(T: Tableau, i: int) -> Tableau | None:
    return _apply_on_reading_word(T, i, e_word)


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class CrystalGraph:
    """Labelled oriented graph of a connected crystal.

    Vertices are tableaux (kind 'tableau') or words (kind 'word'), indexed in
    BFS discovery order from the source with children visited by ascending
    label, so the layout is canonical. Edges are (from, to, label) triples.
    The vertex index and the adjacency maps are derived from those fields on
    first use, so dataclasses.replace() yields a graph with its own maps.
    """
    vertices: tuple
    edges: tuple[tuple[int, int, int], ...]
    source: int | None
    max_entry: int
    kind: str = "tableau"

    @cached_property
    def _index(self) -> dict:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def _out(self) -> dict[int, dict[int, int]]:
        out: dict[int, dict[int, int]] = {}
        for u, v, i in self.edges:
            out.setdefault(u, {})[i] = v
        return out

    @cached_property
    def _in(self) -> dict[int, dict[int, int]]:
        into: dict[int, dict[int, int]] = {}
        for u, v, i in self.edges:
            into.setdefault(v, {})[i] = u
        return into

    def index_of(self, vertex) -> int:
        return self._index[vertex]

    def out_edges(self, u: int) -> dict[int, int]:
        return self._out.get(u, {})

    def in_edges(self, v: int) -> dict[int, int]:
        return self._in.get(v, {})

    def sources(self) -> list[int]:
        return [k for k in range(len(self.vertices)) if not self.in_edges(k)]

    def sinks(self) -> list[int]:
        return [k for k in range(len(self.vertices)) if not self.out_edges(k)]

    def depths(self) -> list[int]:
        """BFS distance of every vertex from the source."""
        dist = [-1] * len(self.vertices)
        if self.source is None:
            return dist
        dist[self.source] = 0
        queue = [self.source]
        while queue:
            nxt = []
            for u in queue:
                for _, v in sorted(self.out_edges(u).items()):
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            queue = nxt
        return dist


def connected_components(vertices, neighbours) -> list[set]:
    """Components of the undirected graph induced on vertices.

    neighbours(u) lists the vertices adjacent to u in either direction; those
    outside vertices are ignored. Components come in the order of their first
    vertex in vertices.
    """
    members = set(vertices)
    seen: set = set()
    components = []
    for start in vertices:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            for v in neighbours(stack.pop()):
                if v in members and v not in component:
                    component.add(v)
                    stack.append(v)
        seen |= component
        components.append(component)
    return components


def _bfs_graph(start, operators: int, step, kind: str, max_entry: int) -> CrystalGraph:
    """Closure of {start} under step(v, i) for labels 1..operators, BFS order."""
    vertices = [start]
    index = {start: 0}
    edges = []
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for i in range(1, operators + 1):
                v = step(vertices[u], i)
                if v is None:
                    continue
                if v not in index:
                    index[v] = len(vertices)
                    vertices.append(v)
                    nxt.append(index[v])
                edges.append((u, index[v], i))
        queue = nxt
    edges.sort()
    return CrystalGraph(tuple(vertices), tuple(edges), 0, max_entry, kind)


def generate_crystal(shape: Partition, max_entry: int) -> CrystalGraph:
    """The connected crystal of tableaux of the shape with entries <= max_entry.

    Breadth-first closure of the highest-weight tableau under all lowering
    operators. Empty when max_entry < len(shape), where no filling exists.
    """
    shape = check_partition(shape)
    if max_entry < 1:
        raise InvalidParameters("max_entry must be >= 1")
    if len(shape) > max_entry:
        return CrystalGraph((), (), None, max_entry, "tableau")
    return _bfs_graph(highest_weight_tableau(shape), max_entry - 1,
                      f_tableau, "tableau", max_entry)


def word_crystal_component(w: Word, max_entry: int) -> CrystalGraph:
    """Connected component of the word crystal containing w.

    The source is reached by exhausting raising operators (the component is
    graded, so the greedy ascent terminates at its unique source); the
    component is then generated forward from it.
    """
    if max_entry < 1 or any(not 1 <= letter <= max_entry for letter in w):
        raise InvalidParameters("letters must lie in 1..max_entry")
    current = w
    raised = True
    while raised:
        raised = False
        for i in range(1, max_entry):
            up = e_word(current, i)
            if up is not None:
                current = up
                raised = True
                break
    return _bfs_graph(current, max_entry - 1, f_word, "word", max_entry)
