"""Skeletons of tableau crystals, dual equivalence graphs, and checkers.

Collapsing every descent class of a crystal to its standard tableau and
keeping, per ordered pair of classes, only the crystal edge of minimal label
yields the skeleton: a labelled oriented graph on standard tableaux that is
stable once the alphabet is large enough. The checkers at the bottom compare
it against dual equivalence graphs and probe the structure of its
fixed-descent-count strata; their results are reports, never assertions, so
runs on new territory cannot fail a build. Report, defined here, is the one
report type of the package: the verify suites return it too.
"""

from dataclasses import dataclass

from .crystal import connected_components, generate_crystal
from .decomposition import decompose, subcomponent_sink
from .errors import InternalError, InvalidParameters
from .rsk import evacuate
from .tableaux import (
    Partition, Tableau,
    check_partition, compositions_of, descent_composition, enumerate_syt,
    reading_word, sources_of_type, standardize_tableau,
    syt_descent_compositions,
)


@dataclass(frozen=True, eq=False)
class SkeletonGraph:
    """Directed graph on standard tableaux with one minimal label per edge."""
    shape: Partition
    max_entry: int
    stable_bound: int
    vertices: tuple[Tableau, ...]
    edges: dict[tuple[Tableau, Tableau], int]

    def __eq__(self, other):
        return (isinstance(other, SkeletonGraph)
                and self.shape == other.shape
                and set(self.vertices) == set(other.vertices)
                and self.edges == other.edges)

    def unordered_pairs(self) -> dict[frozenset, int]:
        """Ordered-edge count per unordered vertex pair (0, 1 or 2)."""
        pairs: dict[frozenset, int] = {}
        for (u, v) in self.edges:
            key = frozenset((u, v))
            pairs[key] = pairs.get(key, 0) + 1
        return pairs


def max_descent_composition_length(shape: Partition) -> int:
    """The stability bound: the longest descent composition on the shape."""
    return max(len(comp) for comp in syt_descent_compositions(shape))


def build_skeleton(shape: Partition, max_entry: int) -> SkeletonGraph:
    """Skeleton of the crystal on the shape with the given alphabet bound.

    Vertices are the standard tableaux whose descent composition fits in the
    alphabet; a crystal edge crossing between classes is recorded against the
    pair of their standard tableaux, keeping the minimal label.
    """
    shape = check_partition(shape)
    G = generate_crystal(shape, max_entry)
    subs = decompose(G)
    class_of: dict[int, int] = {}
    for k, sub in enumerate(subs):
        for v in sub.vertex_indices:
            class_of[v] = k
    std_of = [standardize_tableau(sub.source) for sub in subs]

    edges: dict[tuple[Tableau, Tableau], int] = {}
    for u, v, i in G.edges:
        if class_of[u] == class_of[v]:
            continue
        key = (std_of[class_of[u]], std_of[class_of[v]])
        if key not in edges or i < edges[key]:
            edges[key] = i
    vertices = tuple(T for T, comp in zip(enumerate_syt(shape),
                                          syt_descent_compositions(shape))
                     if len(comp) <= max_entry)
    return SkeletonGraph(shape, max_entry, max_descent_composition_length(shape),
                         vertices, edges)


def skeleton_stable(shape: Partition) -> SkeletonGraph:
    """The stable skeleton, built at the stability bound and checked at bound+1."""
    shape = check_partition(shape)
    S = max_descent_composition_length(shape)
    sk = build_skeleton(shape, S)
    again = build_skeleton(shape, S + 1)
    if sk != again:
        raise InternalError(f"skeleton of {shape} not stable at bound {S}")
    return sk


def induced_by_descent_count(skel: SkeletonGraph, d: int):
    """Induced subgraph on standard tableaux with exactly d descents."""
    keep = {T for T in skel.vertices
            if len(descent_composition(T)) - 1 == d}
    edges = {pair: label for pair, label in skel.edges.items()
             if pair[0] in keep and pair[1] in keep}
    return tuple(sorted(keep)), edges


# ---------------------------------------------------------------------------
# stratum classification

SINGLETONS = "Singletons"
CHAINS = "Chains"
EVEN_CYCLES = "EvenCyclesWithOptionalSourceSink"
OTHER = "Other"


def _undirected_adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _is_simple_path(comp, adj) -> bool:
    degrees = sorted(len(adj[v] & comp) for v in comp)
    if len(comp) == 1:
        return True
    return (degrees.count(1) == 2 and all(d in (1, 2) for d in degrees)
            and _connected_acyclic_edge_count(comp, adj))


def _connected_acyclic_edge_count(comp, adj) -> bool:
    edge_count = sum(len(adj[v] & comp) for v in comp) // 2
    return edge_count == len(comp) - 1


def _is_bipartite(comp, adj) -> bool:
    color = {}
    for start in comp:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u] & comp:
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def _bridges(comp, adj):
    """Bridges of the induced undirected simple graph, by DFS low-links."""
    comp = set(comp)
    visited = {}
    low = {}
    bridges = []
    counter = [0]

    def dfs(root):
        stack = [(root, None, iter(sorted(adj[root] & comp)))]
        visited[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if v not in visited:
                    visited[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append((v, u, iter(sorted(adj[v] & comp))))
                    advanced = True
                    break
                elif v != parent:
                    low[u] = min(low[u], visited[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > visited[p]:
                        bridges.append((p, u))
        return

    for v in comp:
        if v not in visited:
            dfs(v)
    return bridges


def _is_even_cycle_union(comp, adj) -> bool:
    """Every vertex on a cycle, all cycles even: min degree 2, bipartite, bridgeless."""
    if not comp:
        return False
    if any(len(adj[v] & comp) < 2 for v in comp):
        return False
    return _is_bipartite(comp, adj) and not _bridges(comp, adj)


def _classify_component(comp, adj, in_deg, out_deg) -> str:
    if len(comp) == 1:
        return SINGLETONS
    if _is_simple_path(comp, adj):
        return CHAINS
    if _is_even_cycle_union(comp, adj):
        return EVEN_CYCLES
    removable = {v for v in comp if in_deg[v] == 0 or out_deg[v] == 0}
    rest = comp - removable
    if rest and removable:
        pieces = connected_components(rest, adj.__getitem__)
        if all(_is_even_cycle_union(p, adj) for p in pieces) \
                and len(removable) <= 2 * len(pieces):
            return EVEN_CYCLES
    return OTHER


def classify_subgraph(vertices, edges) -> str:
    """One of Singletons / Chains / EvenCyclesWithOptionalSourceSink / Other.

    Orientation is ignored for path and cycle detection but decides which
    vertices count as attached sources and sinks of a cycle union.
    """
    if not vertices:
        return SINGLETONS
    adj = _undirected_adjacency(vertices, edges)
    in_deg = {v: 0 for v in vertices}
    out_deg = {v: 0 for v in vertices}
    for (u, v) in edges:
        out_deg[u] += 1
        in_deg[v] += 1
    kinds = {_classify_component(comp, adj, in_deg, out_deg)
             for comp in connected_components(adj, adj.__getitem__)}
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
        pairs: dict[frozenset, int] = {}
        for (u, v, _) in self.edges:
            key = frozenset((u, v))
            pairs[key] = pairs.get(key, 0) + 1
        return pairs


def _reading_positions(T: Tableau) -> dict[int, int]:
    return {v: pos for pos, v in enumerate(reading_word(T))}


def _swap_values(T: Tableau, a: int, b: int) -> Tableau:
    sub = {a: b, b: a}
    return tuple(tuple(sub.get(v, v) for v in row) for row in T)


def dual_equivalence_involution(T: Tableau, i: int) -> Tableau:
    """The elementary involution d_i on a standard tableau, 1 < i < size.

    Looking at the reading-word positions of i-1, i, i+1: if i sits between
    the other two, T is fixed; if i+1 sits between, i and i-1 trade places;
    if i-1 sits between, i and i+1 trade places.
    """
    pos = _reading_positions(T)
    try:
        lo, mid, hi = pos[i - 1], pos[i], pos[i + 1]
    except KeyError:
        raise InvalidParameters(
            f"d_{i} needs a standard tableau holding {i - 1}, {i} and {i + 1}") from None
    if min(lo, hi) < mid < max(lo, hi):
        return T
    if min(lo, mid) < hi < max(lo, mid):
        return _swap_values(T, i, i - 1)
    return _swap_values(T, i, i + 1)


def dual_equivalence_graph(shape: Partition) -> DualEquivalenceGraph:
    """Graph on standard tableaux under the elementary involutions."""
    shape = check_partition(shape)
    m = sum(shape)
    vertices = tuple(enumerate_syt(shape))
    edges = set()
    for T in vertices:
        for i in range(2, m):
            other = dual_equivalence_involution(T, i)
            if other != T:
                a, b = sorted((T, other))
                edges.add((a, b, i))
    return DualEquivalenceGraph(shape, vertices, frozenset(edges))


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
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.wall_time:.2f}s)"


def check_dual_equivalence_conjecture(shape: Partition) -> Report:
    """Compare the dual equivalence graph with the stable skeleton.

    Per unordered pair of standard tableaux: (a) every dual-equivalence edge
    must be matched by at least as many skeleton edges; (b) skeleton
    multiplicity above 1 must be matched exactly. Skeleton multiplicity
    counts ordered edges per unordered pair.
    """
    shape = check_partition(shape)
    skel = skeleton_stable(shape)
    de = dual_equivalence_graph(shape)
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
        name=f"dual-equivalence containment for {shape}",
        passed=not violations,
        details=(("skeleton_unordered_pairs", len(sk_pairs)),
                 ("dual_equivalence_unordered_pairs", len(de_pairs)),
                 ("skeleton_only_pairs", len(skeleton_only)),
                 ("violations", tuple(violations))),
        notes=("skeleton multiplicity = ordered edges per unordered pair",))


def check_skeleton_strata(shape: Partition) -> Report:
    """Classify every fixed-descent-count stratum of the stable skeleton."""
    shape = check_partition(shape)
    skel = skeleton_stable(shape)
    by_d: dict[int, str] = {}
    worst_ok = True
    for d in sorted({len(descent_composition(T)) - 1 for T in skel.vertices}):
        vertices, edges = induced_by_descent_count(skel, d)
        kind = classify_subgraph(vertices, edges)
        by_d[d] = kind
        if kind == OTHER:
            worst_ok = False
    return Report(
        name=f"skeleton strata classification for {shape}",
        passed=worst_ok,
        details=tuple(sorted(by_d.items())))


def check_reordering_conjecture(m: int) -> Report:
    """Every composition occurs for the sorted shape of its parts."""
    missing = []
    for alpha in compositions_of(m):
        lam = tuple(sorted(alpha, reverse=True))
        if not sources_of_type(lam, alpha):
            missing.append(alpha)
    return Report(
        name=f"reordering conjecture at size {m}",
        passed=not missing,
        details=(("compositions_checked", 2 ** (m - 1)),
                 ("missing", tuple(missing))))


def check_evac_duality(shape: Partition, n: int) -> Report:
    """Evacuation pairs descent classes with their reversed-type partners.

    For each class: its image under evacuation is exactly one class of the
    reversed type, every edge (u -i-> v) maps to (EVAC(v) -(n-i)-> EVAC(u)),
    and the source maps to the partner's sink.
    """
    shape = check_partition(shape)
    G = generate_crystal(shape, n)
    failures = []
    pairs = []
    if G.source is not None:
        subs = decompose(G)
        class_of: dict[int, int] = {}
        for k, sub in enumerate(subs):
            for v in sub.vertex_indices:
                class_of[v] = k
        evac_index = [G.index_of(evacuate(G.vertices[v], n))
                      for v in range(len(G.vertices))]
        for k, sub in enumerate(subs):
            image_classes = {class_of[evac_index[v]] for v in sub.vertex_indices}
            if len(image_classes) != 1:
                failures.append(("image not a single class", sub.alpha))
                continue
            partner = subs[next(iter(image_classes))]
            pairs.append((k, next(iter(image_classes))))
            if partner.alpha != tuple(reversed(sub.alpha)):
                failures.append(("partner type not reversed", sub.alpha, partner.alpha))
            if len(partner.vertex_indices) != len(sub.vertex_indices):
                failures.append(("partner size differs", sub.alpha))
            edge_set = {(u, v, i) for u, v, i in partner.edges}
            for u, v, i in sub.edges:
                if (evac_index[v], evac_index[u], n - i) not in edge_set:
                    failures.append(("edge not dual", sub.alpha, (u, v, i)))
            sink = subcomponent_sink(partner, n)
            if G.vertices[evac_index[sub.source_index]] != sink:
                failures.append(("source does not map to partner sink", sub.alpha))
    return Report(
        name=f"evacuation duality for {shape} with alphabet {n}",
        passed=not failures,
        details=(("class_pairs", tuple(pairs)), ("failures", tuple(failures))))
