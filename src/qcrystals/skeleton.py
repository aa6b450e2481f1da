"""Skeletons of tableau crystals, dual equivalence graphs, and checkers.

Collapsing every descent class of a crystal to its standard tableau and
keeping, per ordered pair of classes, only the crystal edge of minimal label
yields the skeleton: a labelled oriented graph on standard tableaux that is
stable from the alphabet tableaux.max_descent_composition_length on. Two
facts let build_skeleton take it without building the crystal:

- Restriction: the skeleton at alphabet n is the stable skeleton induced on
  the standard tableaux whose descent composition has at most n parts,
  labels included.
- Singletons: at alphabet n = s, the class of a standard tableau Q whose
  descent composition alpha has s parts holds C(m+n-s, n-s) = 1 vertex,
  its band filling destandardize(Q, alpha).

Take a stable edge between Q with a parts and Q' with b >= a parts. By
restriction it is a skeleton edge at alphabet b with the same label, and
there the class of Q' is its band filling w' alone; so every crystal edge
between the two classes has w' as one end and is one f_i or e_i step, i < b,
out of w'. A step out of the band filling of Q stays on the letters 1..a
and never reaches a tableau with more parts than a. So the stable skeleton,
with its least labels, is the set of single f_i and e_i steps out of the
band fillings. verify.skeleton_suite checks both facts against the crystal
route, which builds the whole crystal and splits it into classes. The band
fillings come with the vertices: tableaux._standard_fill lists each
standard tableau as its reading word and its band filling, written in one
pass, so tableaux stays the one module that maps standard labels to band
letters.

The dual equivalence graph is built on the same reading words: one
position array per tableau, and each moved tableau looked up by its word.
The checkers at the bottom compare the skeleton against that graph, built
on the stable skeleton's own vertices, probe the structure of its
fixed-descent-count strata and ask which compositions occur for a shape;
their results are reports, never assertions, so runs on new territory
cannot fail a build. Report, defined here, is the one result type of the
package: every checker and every verify suite returns it, and verify's two
runners fill in its wall time.
"""

from collections import Counter
from dataclasses import dataclass

from .crystal import bfs_forest, generate_crystal, lowering_positions, raising_positions
from .decomposition import decompose, subcomponent_sink
from .errors import InvalidParameters
from .rsk import rsk_of_rot
from .tableaux import (
    Composition, Partition, Tableau,
    _check_ints, _cut_tableaux, _standard_fill, check_composition, check_partition,
    compositions_of, descent_composition, descent_composition_counts, is_standard,
    max_descent_composition_length, partitions_of, reading_word, standardize_word,
    tableau_size,
)


@dataclass(frozen=True, eq=False)
class SkeletonGraph:
    """Directed graph on standard tableaux with one minimal label per edge."""
    shape: Partition
    max_entry: int
    vertices: tuple[Tableau, ...]
    edges: dict[tuple[Tableau, Tableau], int]

    def __eq__(self, other):
        return (isinstance(other, SkeletonGraph)
                and self.shape == other.shape
                and set(self.vertices) == set(other.vertices)
                and self.edges == other.edges)

    @property
    def stable_bound(self) -> int:
        """max_descent_composition_length(shape): stable from this alphabet on."""
        return max_descent_composition_length(self.shape)

    def unordered_pairs(self) -> dict[frozenset, int]:
        """Ordered-edge count per unordered vertex pair (0, 1 or 2)."""
        return Counter(frozenset(pair) for pair in self.edges)


def build_skeleton(shape: Partition, max_entry: int) -> SkeletonGraph:
    """Skeleton of the crystal on the shape with the given alphabet bound.

    Vertices are the standard tableaux whose descent composition fits in the
    alphabet, listed by tableaux._standard_fill without the others as
    (reading word, band filling) pairs and cut into rows once. Edges follow
    the local rule of the module docstring: for each vertex Q with s parts,
    w is its band filling, and for each i < s the steps f_i(w) and e_i(w),
    standardized, are the reading words of standard tableaux Q2 that give
    the edges (Q, Q2, i) and (Q2, Q, i), keeping the least label per
    ordered pair. The class of Q at alphabet s is w alone, so no step stays
    in it and Q2 != Q. Words stand for tableaux throughout: each vertex is
    looked up by its reading word, and no crystal is built.
    """
    shape = check_partition(shape)
    (max_entry,) = _check_ints((max_entry,), "max_entry")
    if max_entry < 1:
        raise InvalidParameters("max_entry must be >= 1")
    listed = _standard_fill(shape, max_entry)
    words = [q for q, _ in listed]
    vertices = _cut_tableaux(shape, words)
    vertex_of = dict(zip(words, vertices))
    edges: dict[tuple[Tableau, Tableau], int] = {}
    for Q, (_, w) in zip(vertices, listed):
        s = max(w)  # the number of parts
        down, up = lowering_positions(w, s), raising_positions(w, s)
        for i in range(1, s):
            pos = down[i]
            if pos >= 0:
                key = (Q, vertex_of[standardize_word(w[:pos] + (i + 1,) + w[pos + 1:])])
                if key not in edges or i < edges[key]:
                    edges[key] = i
            pos = up[i]
            if pos >= 0:
                key = (vertex_of[standardize_word(w[:pos] + (i,) + w[pos + 1:])], Q)
                if key not in edges or i < edges[key]:
                    edges[key] = i
    return SkeletonGraph(shape, max_entry, vertices, edges)


def skeleton_stable(shape: Partition) -> SkeletonGraph:
    """The stable skeleton: build_skeleton at the stability bound S.

    No descent composition on the shape has more than S parts, so at S every
    standard tableau is a vertex and every step of the local rule is taken;
    by the restriction fact a larger alphabet gives the same graph. Nothing
    is built beyond S: verify.skeleton_suite checks S+1 and S+2 against the
    crystal route.
    """
    return build_skeleton(shape, max_descent_composition_length(shape))


def _strata(skel: SkeletonGraph) -> dict[int, tuple[tuple, dict]]:
    """Descent count d -> (sorted vertices with d descents, induced edges),
    in ascending d. Each vertex's descent count is computed once; one pass
    over the sorted vertices and one over the edges, in their order, fill
    every stratum."""
    d_of = {T: len(descent_composition(T)) - 1 for T in skel.vertices}
    strata: dict[int, tuple[list, dict]] = {}
    for T in sorted(skel.vertices):
        strata.setdefault(d_of[T], ([], {}))[0].append(T)
    for (u, v), label in skel.edges.items():
        if d_of[u] == d_of[v]:
            strata[d_of[u]][1][u, v] = label
    return {d: (tuple(vertices), edges) for d, (vertices, edges) in sorted(strata.items())}


def induced_by_descent_count(skel: SkeletonGraph, d: int):
    """Induced subgraph on standard tableaux with exactly d descents."""
    return _strata(skel).get(d, ((), {}))


# ---------------------------------------------------------------------------
# stratum classification

SINGLETONS = "Singletons"
CHAINS = "Chains"
EVEN_CYCLES = "EvenCyclesWithOptionalSourceSink"
OTHER = "Other"


def _is_even_cycle_union(tree, adj, parent, depth) -> bool:
    """Every vertex on a cycle, all cycles even: bipartite and bridgeless.

    tree is one bfs_forest tree of adj, with its parent and depth lists. An
    edge joining two vertices of equal depth closes an odd cycle. A tree edge
    is a bridge unless the tree path of some non-tree edge runs through it;
    the walk from each non-tree edge up to its ends' common ancestor marks
    those edges by their lower vertex. A bridgeless connected graph on two or
    more vertices has every degree at least 2.
    """
    covered = set()
    for u in tree:
        for v in adj[u]:
            if depth[u] == depth[v]:
                return False
            if u < v and parent[u] != v and parent[v] != u:
                a, b = u, v
                while a != b:
                    if depth[a] < depth[b]:
                        a, b = b, a
                    covered.add(a)
                    a = parent[a]
    return len(tree) > 1 and len(covered) == len(tree) - 1


def _classify_component(tree, adj, parent, depth, through) -> str:
    if len(tree) == 1:
        return SINGLETONS
    degrees = [len(adj[v]) for v in tree]
    if degrees.count(1) == 2 and max(degrees) <= 2:  # a simple path
        return CHAINS
    if _is_even_cycle_union(tree, adj, parent, depth):
        return EVEN_CYCLES
    rest = [v for v in tree if v in through]
    if rest and len(rest) < len(tree):
        keep = set(rest)
        sub = [neighbours & keep for neighbours in adj]
        pieces, parent, depth = bfs_forest(rest, sub)
        if len(tree) - len(rest) <= 2 * len(pieces) and all(
                _is_even_cycle_union(p, sub, parent, depth) for p in pieces):
            return EVEN_CYCLES
    return OTHER


def classify_subgraph(vertices, edges) -> str:
    """One of Singletons / Chains / EvenCyclesWithOptionalSourceSink / Other.

    Orientation is ignored for path and cycle detection but decides which
    vertices count as attached sources and sinks of a cycle union. The
    vertices are mapped to indices once; the components are the trees of
    one crystal.bfs_forest, whose parents and depths also serve the
    bipartite and bridge tests.
    """
    if not vertices:
        return SINGLETONS
    index = {v: k for k, v in enumerate(vertices)}
    adj = [set() for _ in vertices]
    has_out, has_in = set(), set()
    for (u, v) in edges:
        a, b = index[u], index[v]
        adj[a].add(b)
        adj[b].add(a)
        has_out.add(a)
        has_in.add(b)
    through = has_in & has_out  # neither a source nor a sink
    trees, parent, depth = bfs_forest(range(len(vertices)), adj)
    kinds = {_classify_component(tree, adj, parent, depth, through)
             for tree in trees}
    if kinds <= {SINGLETONS}:
        return SINGLETONS
    if kinds <= {SINGLETONS, CHAINS}:
        return CHAINS
    if kinds <= {EVEN_CYCLES}:
        return EVEN_CYCLES
    return OTHER


# ---------------------------------------------------------------------------
# dual equivalence graphs

@dataclass(frozen=True)
class DualEquivalenceGraph:
    shape: Partition
    vertices: tuple[Tableau, ...]
    edges: frozenset  # (T, T', i) with T < T'

    def unordered_pairs(self) -> dict[frozenset, int]:
        return Counter(frozenset((u, v)) for u, v, _ in self.edges)


def _swap_values(T: Tableau, a: int, b: int) -> Tableau:
    sub = {a: b, b: a}
    return tuple(tuple(sub.get(v, v) for v in row) for row in T)


def _involution(T: Tableau, i: int) -> Tableau:
    """d_i on a standard tableau known to hold i-1, i and i+1.

    One tableau at a time, from its own position map: the route of
    dual_equivalence_involution, and the oracle for _dual_equivalence_edges.
    """
    pos = {v: p for p, v in enumerate(reading_word(T))}
    lo, mid, hi = pos[i - 1], pos[i], pos[i + 1]
    if min(lo, hi) < mid < max(lo, hi):
        return T
    if min(lo, mid) < hi < max(lo, mid):
        return _swap_values(T, i, i - 1)
    return _swap_values(T, i, i + 1)


def dual_equivalence_involution(T: Tableau, i: int) -> Tableau:
    """The elementary involution d_i on a standard tableau, 1 < i < size.

    Looking at the reading-word positions of i-1, i, i+1: if i sits between
    the other two, T is fixed; if i+1 sits between, i and i-1 trade places;
    if i-1 sits between, i and i+1 trade places. InvalidParameters unless i
    is an integer, T is standard and 1 < i < size.
    """
    (i,) = _check_ints((i,), "the index i")
    if not is_standard(T) or not 1 < i < tableau_size(T):
        raise InvalidParameters(
            f"d_{i} needs a standard tableau holding {i - 1}, {i} and {i + 1}")
    return _involution(T, i)


def _dual_equivalence_edges(vertices, words) -> frozenset:
    """Edges (T, T', i), T < T', of the involutions d_i on the given vertices.

    The vertices must be all the standard tableaux of one shape, and words
    their reading words, which stand for them: the positions of the labels
    are read off each word once, d_i applies the rule of
    dual_equivalence_involution to pos[i-1], pos[i], pos[i+1], and a moved
    tableau is found by its word with the two labels swapped. d_i is an
    involution, so every edge is met from both ends and kept from the
    smaller one.
    """
    vertex_of = dict(zip(words, vertices))
    edges = set()
    for T, word in zip(vertices, words):
        m = len(word)
        pos = [0] * (m + 1)
        for p, v in enumerate(word):
            pos[v] = p
        for i in range(2, m):
            lo, mid, hi = pos[i - 1], pos[i], pos[i + 1]
            if lo < mid < hi or hi < mid < lo:
                continue
            j = i - 1 if lo < hi < mid or mid < hi < lo else i + 1
            image = list(word)
            image[mid], image[pos[j]] = j, i
            other = vertex_of[tuple(image)]
            if T < other:
                edges.add((T, other, i))
    return frozenset(edges)


def dual_equivalence_graph(shape: Partition) -> DualEquivalenceGraph:
    """Graph on standard tableaux under the elementary involutions.

    The vertices are enumerate_syt(shape), sorted by reading word: the
    reading words of tableaux._standard_fill, cut into rows. Those words go
    on to _dual_equivalence_edges, so no reading word is taken twice.
    verify.dual_equivalence_suite rebuilds the edges from
    dual_equivalence_involution as the oracle. EmptyInput for the empty
    shape.
    """
    shape = check_partition(shape)
    words = [q for q, _ in _standard_fill(shape, sum(shape))]
    vertices = _cut_tableaux(shape, words)
    return DualEquivalenceGraph(shape, vertices, _dual_equivalence_edges(vertices, words))


# ---------------------------------------------------------------------------
# conjecture and theorem checkers (structured reports)

@dataclass(frozen=True)
class Report:
    """Result of a checker or a verify suite: a deterministic payload.

    wall_time is the seconds the run took where the caller measured it, and
    0.0 otherwise; it never enters the payload.
    """
    name: str
    passed: bool
    details: tuple
    wall_time: float = 0.0

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.wall_time:.2f}s)"


def check_dual_equivalence_conjecture(shape: Partition) -> Report:
    """Compare the dual equivalence graph with the stable skeleton.

    Per unordered pair of standard tableaux: (a) every dual-equivalence edge
    must be matched by at least as many skeleton edges; (b) skeleton
    multiplicity above 1 must be matched exactly. Skeleton multiplicity
    counts ordered edges per unordered pair. At the stability bound the
    skeleton's vertices are all the standard tableaux of the shape, so the
    dual equivalence edges are built on them and the tableaux are listed
    once.
    """
    skel = skeleton_stable(shape)
    de = DualEquivalenceGraph(skel.shape, skel.vertices, _dual_equivalence_edges(
        skel.vertices, list(map(reading_word, skel.vertices))))
    sk_pairs = skel.unordered_pairs()
    de_pairs = de.unordered_pairs()
    violations = []
    for pair, r in de_pairs.items():
        if sk_pairs.get(pair, 0) < r:
            violations.append(("dual edge not covered", tuple(sorted(pair)), r,
                               sk_pairs.get(pair, 0)))
    for pair, r in sk_pairs.items():
        if r > 1 and de_pairs.get(pair, 0) != r:
            violations.append(("skeleton multiplicity unmatched", tuple(sorted(pair)),
                               r, de_pairs.get(pair, 0)))
    skeleton_only = sorted(tuple(sorted(p)) for p in sk_pairs if p not in de_pairs)
    return Report(
        name=f"dual-equivalence containment for {skel.shape}",
        passed=not violations,
        details=(("skeleton_unordered_pairs", len(sk_pairs)),
                 ("dual_equivalence_unordered_pairs", len(de_pairs)),
                 ("skeleton_only_pairs", len(skeleton_only)),
                 ("violations", tuple(violations))))


def check_skeleton_strata(shape: Partition) -> Report:
    """Classify every fixed-descent-count stratum of the stable skeleton,
    each taken as induced_by_descent_count takes it, in ascending d."""
    skel = skeleton_stable(shape)
    by_d = {d: classify_subgraph(*stratum) for d, stratum in _strata(skel).items()}
    return Report(
        name=f"skeleton strata classification for {skel.shape}",
        passed=OTHER not in by_d.values(),
        details=tuple(by_d.items()))


def check_reordering_conjecture(m: int) -> Report:
    """Every composition occurs in the descent_composition_counts table of
    the sorted shape of its parts."""
    occurring = {lam: {comp for comp, _ in descent_composition_counts(lam)}
                 for lam in partitions_of(m)}
    missing = [alpha for alpha in compositions_of(m)
               if alpha not in occurring[tuple(sorted(alpha, reverse=True))]]
    return Report(
        name=f"reordering conjecture at size {m}",
        passed=not missing,
        details=(("compositions_checked", 2 ** (m - 1)),
                 ("missing", tuple(missing))))


def check_descent_composition_conditions(shape: Partition, alpha: Composition,
                                         n: int | None = None) -> Report:
    """Evaluate the five necessary conditions for alpha to occur for the shape.

    The conditions are necessary but not sufficient. details holds the five
    verdicts, in order, under "conditions", and under "multiplicity" how
    many standard tableaux of the shape have alpha as descent composition,
    read from descent_composition_counts; passed means no condition fails
    while alpha occurs. With s the number of parts of alpha, condition 4's
    upper bound s <= n is checked only when an ambient alphabet n is given,
    and condition 5 is s <= |shape|, the cell count: the bound's constant is
    otherwise unspecified.
    InvalidParameters unless n is None or an integer >= 1; EmptyInput for
    the empty shape, as descent_composition_counts raises.
    """
    shape = check_partition(shape)
    alpha = check_composition(alpha)
    if n is not None and not (isinstance(n, int) and n >= 1):
        raise InvalidParameters(f"alphabet n must be an integer >= 1, got {n!r}")
    multiplicity = dict(descent_composition_counts(shape)).get(alpha, 0)
    ell, s = len(shape), len(alpha)
    padded = list(shape) + [0] * max(0, s - ell)
    conditions = (
        all(1 <= p <= shape[0] for p in alpha),
        all(sum(alpha[:j]) <= sum(padded[:j]) for j in range(1, s + 1)),
        s <= max_descent_composition_length(shape),
        ell <= s and (n is None or s <= n),
        s <= sum(shape),
    )
    return Report(
        name=f"descent composition conditions for {alpha} on {shape}",
        passed=all(conditions) or multiplicity == 0,
        details=(("conditions", conditions), ("multiplicity", multiplicity)))


def check_evac_duality(shape: Partition, n: int) -> Report:
    """Evacuation pairs descent classes with their reversed-type partners.

    For each class: its image under evacuation is exactly one class of the
    reversed type, every edge (u -i-> v) maps to (EVAC(v) -(n-i)-> EVAC(u)),
    and the source maps to the partner's sink. Each vertex is evacuated as
    rsk_of_rot(w, n).P from its stored reading word w, as evacuate does.
    """
    return _evac_duality(generate_crystal(shape, n))


def _evac_duality(G) -> Report:
    """check_evac_duality on the tableau crystal G, already built."""
    n = G.max_entry
    failures, pairs = [], []
    subs = decompose(G)  # no class when G is empty
    class_of = {v: k for k, sub in enumerate(subs) for v in sub.vertex_indices}
    evac_index = [G.index_of(rsk_of_rot(w, n).P) for w in G.words]
    for k, sub in enumerate(subs):
        image_classes = {class_of[evac_index[v]] for v in sub.vertex_indices}
        if len(image_classes) != 1:
            failures.append(("image not a single class", sub.alpha))
            continue
        (image,) = image_classes
        partner = subs[image]
        pairs.append((k, image))
        if partner.alpha != tuple(reversed(sub.alpha)):
            failures.append(("partner type not reversed", sub.alpha, partner.alpha))
        if len(partner.vertex_indices) != len(sub.vertex_indices):
            failures.append(("partner size differs", sub.alpha))
        edge_set = set(partner.edges)
        for u, v, i in sub.edges:
            if (evac_index[v], evac_index[u], n - i) not in edge_set:
                failures.append(("edge not dual", sub.alpha, (u, v, i)))
        if G.vertices[evac_index[sub.source_index]] != subcomponent_sink(partner, n):
            failures.append(("source does not map to partner sink", sub.alpha))
    return Report(
        name=f"evacuation duality for {G.shape} with alphabet {n}",
        passed=not failures,
        details=(("class_pairs", tuple(pairs)), ("failures", tuple(failures))))
