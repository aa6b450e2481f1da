"""Decomposition of a crystal into descent classes.

Grouping the vertices of a connected tableau crystal by descent composition
partitions it into connected induced subgraphs, one per standard tableau Q
of the shape, matching s_lambda = sum_Q F_Des(Q). Each class is the
standardization fibre {T : std(T) = Q}, and an edge T -i-> f_i(T) stays
inside its class iff no i+1 comes before the last i of the reading word of
T (the edge rule): then f_i turns the last i into an i+1 and the
standardization is unchanged; otherwise it changes. The rule is read as one
bit per edge: bit i of T's crossing mask, set iff some i+1 comes before
some i in the word, which the crystal's BFS finds in the scan that finds
f_i. descent_classes splits a crystal given on reading words by this rule
alone, in one forward pass over its sorted edges: every edge of a generated
crystal runs from a lower to a higher vertex index, so each vertex's
in-edges are read before its out-edges, and a vertex either opens a class
as its source or takes the class of an internal in-edge; one offered a
second source (no real crystal has one) sets a flag, and crystal.bfs_forest
then names the class. decompose hands it the words and masks a CrystalGraph
keeps; only the class sources are cut into tableaux, and descent
compositions are computed only there. Each class has a unique source (the
band filling of its standard tableau), a unique sink (the source with
entries shifted by n-s), and the oriented-graph structure of a one-row
crystal on a smaller alphabet; those structural facts power the counting
formulas of tableaux, whose counts this module re-binds.
"""

from dataclasses import dataclass

from .crystal import CrystalGraph, _crossing_mask, bfs_forest, generate_crystal
from .errors import InternalError, InvalidParameters
from .tableaux import (
    Composition, Tableau,
    _check_ints, band_letters, check_composition, composition_to_descent_set, count_bm,
    count_ssyt_formula, descent_composition, descent_count_census, kostka, reading_rows,
    weight_of,
)


@dataclass(frozen=True)
class Subcomponent:
    """One descent class inside a host crystal graph.

    source is the class's source tableau; source_index and vertex_indices
    refer to the host graph's vertex numbering.
    """
    alpha: Composition
    source: Tableau
    source_index: int
    vertex_indices: frozenset[int]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        return len(self.vertex_indices)


@dataclass(frozen=True)
class QuasicrystalClass:
    """The (m, s, n) signature that determines a descent class as a graph."""
    m: int
    s: int
    n: int

    @property
    def height(self) -> int:
        return self.m * (self.n - self.s) + 1

    @property
    def vertex_count(self) -> int:
        return count_bm(self.m, self.n - self.s + 1)


def descent_classes(words, edges,
                    crossings=None) -> tuple[list[list[int]], list[int], list, list[int]]:
    """Split a crystal given on reading words into its descent classes.

    words[u] is the reading word of vertex u and edges are (u, v, i) crystal
    edges, sorted, with u < v in each: generate_crystal and
    word_crystal_component give them so, since every edge goes one step
    deeper from the source and BFS indices follow depth. An edge is internal
    iff no i+1 comes before the last i of words[u] (the edge rule of the
    module docstring), read as bit i of crossings[u], the crossing mask of
    words[u]; the masks are computed from the words unless given (a
    CrystalGraph keeps them, seeded by its BFS). One forward pass over the
    edges classifies every vertex by its class's source, the one vertex of
    the class no internal edge enters: when the first edge leaving u is
    read, every edge entering u already has been, so u is a source if none
    of them was internal, and an internal edge (u, v, i) gives v the source
    of u. A vertex offered a second source only sets a flag; a flagged call
    then runs bfs_forest over the internal edges, taken undirected, and
    names the first tree with more than one vertex no internal edge enters.
    Returns (classes, class_of, internal, sources): the vertices of each
    class in ascending order, the classes ordered by their lowest vertex,
    which is their source; the index of each vertex's class; the internal
    edges in the given order; and the source of each class. InternalError,
    naming the class with the lowest vertex index, unless every class has
    exactly one source.
    """
    if crossings is None:
        crossings = list(map(_crossing_mask, words))
    source_of = [-1] * len(words)
    offered_two = False  # some vertex was offered a second source
    internal = []
    for edge in edges:
        u, v, i = edge
        if crossings[u] >> i & 1:
            continue
        internal.append(edge)
        s = source_of[u]
        if s < 0:
            s = source_of[u] = u
        t = source_of[v]
        if t < 0:
            source_of[v] = s
        elif t != s:
            offered_two = True
    if offered_two:
        neighbours: list[list[int]] = [[] for _ in words]
        for u, v, _ in internal:
            neighbours[u].append(v)
            neighbours[v].append(u)
        entered = {v for _, v, _ in internal}
        for tree in bfs_forest(range(len(words)), neighbours)[0]:
            if (count := len(set(tree) - entered)) > 1:
                # a word is the reading word of the one-row tableau (w,)
                alpha = descent_composition((words[tree[0]],))
                raise InternalError(f"descent class {alpha} has {count} sources")

    classes: list[list[int]] = []
    class_of: list[int] = []
    sources = []
    for v, s in enumerate(source_of):
        if s < 0 or s == v:
            class_of.append(len(classes))
            classes.append([v])
            sources.append(v)
        else:
            k = class_of[s]
            class_of.append(k)
            classes[k].append(v)
    return classes, class_of, internal, sources


def decompose(G: CrystalGraph) -> list[Subcomponent]:
    """Split the tableau crystal G into its descent classes, sorted by source index.

    The classes are the standardization fibres, split off by
    descent_classes from G.words with the edge rule: an edge u -i-> v is
    internal iff no i+1 comes before the last i of u's reading word, one
    bit of the crossing mask G keeps per vertex. By the theorem above this
    equals grouping the vertices by descent composition and splitting each
    group into weakly connected components, the slow oracle kept in the
    tests. Only the class sources are cut into rows, and
    descent_composition is computed once per class, at its source.
    InvalidParameters unless G is a tableau crystal: for a word crystal
    (G.shape is None), whose vertices are not tableaux, and for anything
    that is not a CrystalGraph; InternalError unless each class has exactly
    one source.
    """
    if not isinstance(G, CrystalGraph):
        raise InvalidParameters(f"decompose needs a tableau crystal, not a {type(G).__name__}")
    if G.shape is None:
        raise InvalidParameters("decompose needs a tableau crystal, not a word crystal")
    classes, class_of, internal, sources = descent_classes(G.words, G.edges, G._crossings)
    edges_of: list[list] = [[] for _ in classes]
    for edge in internal:
        edges_of[class_of[edge[0]]].append(edge)
    rows = reading_rows(G.shape)
    tops = [tuple(G.words[s][row] for row in rows) for s in sources]
    return [Subcomponent(descent_composition(T), T, s, frozenset(members), tuple(edges))
            for members, edges, s, T in zip(classes, edges_of, sources, tops)]


def subcomponent_sink(sub: Subcomponent, n: int) -> Tableau:
    """The unique sink: the source with every entry i replaced by n-s+i."""
    shift = n - len(sub.alpha)
    return tuple(tuple(v + shift for v in row) for row in sub.source)


def subcomponent_longest_path(sub: Subcomponent) -> int:
    """Edge count of a longest directed path inside the class (it is a DAG)."""
    out: dict[int, list[int]] = {u: [] for u in sub.vertex_indices}
    indeg = {u: 0 for u in sub.vertex_indices}
    for u, v, _ in sub.edges:
        out[u].append(v)
        indeg[v] += 1
    queue = [u for u in sub.vertex_indices if indeg[u] == 0]
    longest = {u: 0 for u in sub.vertex_indices}
    while queue:
        u = queue.pop()
        for v in out[u]:
            longest[v] = max(longest[v], longest[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return max(longest.values(), default=0)


def canonical_quasicrystal(alpha: Composition, n: int) -> CrystalGraph:
    """The one-row crystal sharing the oriented-graph structure of the class.

    A descent class for alpha with |alpha|=m in s parts, ambient alphabet n,
    is isomorphic as an oriented graph to the crystal of one-row tableaux of
    size m over the alphabet 1..n-s+1.
    """
    alpha = check_composition(alpha)
    (n,) = _check_ints((n,), "the alphabet bound n")
    if len(alpha) > n:
        raise InvalidParameters("alpha cannot have more parts than the alphabet")
    return generate_crystal((sum(alpha),), n - len(alpha) + 1)


def _band_sequence(T: Tableau) -> tuple[int, ...]:
    """Sorted entries of T; weakly increasing, strict across band boundaries."""
    return tuple(sorted(v for row in T for v in row))


def verify_subcomponent_iso(G: CrystalGraph, sub: Subcomponent, n: int):
    """Check the constructive isomorphism of the class onto its one-row model.

    Each vertex maps to the weakly increasing sequence of its entries with
    the block shifts removed; an edge labelled i inside band k+1 maps to an
    edge labelled i-k. Returns (True, vertex_map) or (False, counterexample).
    """
    alpha = sub.alpha
    model = canonical_quasicrystal(alpha, n)
    # position p of a sorted sequence lies in band k + 1 and is shifted by k
    shifts = [letter - 1 for letter in band_letters(alpha)]
    mapping: dict[int, int] = {}
    for u in sub.vertex_indices:
        seq = _band_sequence(G.vertices[u])
        reduced = tuple(x - k for x, k in zip(seq, shifts))
        if any(x < 1 or x > n - len(alpha) + 1 for x in reduced):
            return False, ("vertex out of range", u, reduced)
        mapping[u] = model.index_of((reduced,))
    if len(set(mapping.values())) != len(mapping) or len(mapping) != len(model.vertices):
        return False, ("vertex map is not a bijection",)

    for u, v, i in sub.edges:
        seq_u = _band_sequence(G.vertices[u])
        seq_v = _band_sequence(G.vertices[v])
        changed = [p for p in range(len(seq_u)) if seq_u[p] != seq_v[p]]
        if len(changed) != 1:
            return False, ("edge changes several sequence positions", (u, v, i))
        expected = i - shifts[changed[0]]
        if model.out_edges(mapping[u]).get(expected) != mapping[v]:
            return False, ("edge missing in model", (u, v, i), expected)
    if len(sub.edges) != len(model.edges):
        return False, ("edge counts differ", len(sub.edges), len(model.edges))
    return True, mapping


def weight_matching_bijection(G: CrystalGraph, sub1: Subcomponent,
                              sub2: Subcomponent, n: int) -> dict[int, int] | None:
    """Match vertices of two same-type classes by weight; None if types differ.

    Every weight occurs at most once inside a class, so this is the unique
    labelled-graph isomorphism between them.
    """
    if sub1.alpha != sub2.alpha:
        return None
    by_weight = {weight_of(G.vertices[v], n): v for v in sub2.vertex_indices}
    return {u: by_weight[weight_of(G.vertices[u], n)] for u in sub1.vertex_indices}


def weight_multiplicity_in_subcomponent(sub, mu) -> int:
    """1 if the weight mu occurs in the class (then exactly once), else 0.

    sub may be a Subcomponent or just its composition type; mu may carry
    zeros in any positions. The unique candidate filling lists the multiset
    of mu in weakly increasing order; it lies in the class iff the sequence
    rises strictly across every band boundary of the type.
    """
    alpha = check_composition(sub.alpha if isinstance(sub, Subcomponent) else sub)
    mu = _check_ints(mu, "weights")
    if any(p < 0 for p in mu):
        raise InvalidParameters("weights must be non-negative")
    if sum(mu) != sum(alpha):
        return 0
    seq = [entry for entry, count in enumerate(mu, 1) for _ in range(count)]
    for boundary in composition_to_descent_set(alpha):
        if seq[boundary - 1] >= seq[boundary]:
            return 0
    return 1

