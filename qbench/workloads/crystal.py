"""crystal: generate_crystal then decompose on a large alphabet.

Why: each request builds the whole crystal of one shape (4 <= |shape| <= 7)
over an alphabet of at least len(shape)+2 letters, with 120 to 1,500
vertices, and splits it into descent classes. A large alphabet gives few
classes per vertex and long operator scans, so the time goes to the
signature-rule operators (crystal.f_tableau, crystal.f_word), the BFS in
generate_crystal and the per-vertex descent_composition in decompose.

Loads: tableaux (reading words, standardization), crystal, decomposition.
Bypasses: skeleton, symfunc, rsk, render, verify and the CLI process.

Inputs: every round sends each of the 106 (shape, n) pairs in the window
once, in an order drawn from the seed. Drawing a subset per seed was
tried and dropped: the cost of a pair follows classes x edges as well as
vertices, so seeded subsets moved throughput by 15% between seeds.

Oracle: |V| equals the hook-content count and count_ssyt_formula; the
classes are one per SYT with at most n descent parts, each of count_bm
vertices; and the whole labelled graph and every class (composition,
source, vertices, internal edges) equal those oracle.crystal builds with
its own tableau enumeration, bracket rule and union-find.
"""

import random
import time

from .. import oracle
from ..harness import per_call_us, request_key

SIZES, WINDOW = range(4, 8), (120, 1500)
TINY_SIZES, TINY_WINDOW = range(3, 5), (10, 60)
ROUNDS = 8
GROUP = 3  # rounds per min-of-k group (see harness.py)


def candidates(tiny):
    sizes, (lo, hi) = (TINY_SIZES, TINY_WINDOW) if tiny else (SIZES, WINDOW)
    out = []
    for m in sizes:
        for shape in oracle.partitions(m):
            for n in range(len(shape) + 2, 13):
                if lo <= oracle.ssyt_count(shape, n) <= hi:
                    out.append((oracle.ssyt_count(shape, n), list(shape), n))
    out.sort()
    return out


def make_rounds(seed, tiny):
    rng = random.Random(seed)
    pool = [{"op": "crystal", "shape": shape, "n": n} for _, shape, n in candidates(tiny)]
    return [rng.sample(pool, len(pool)) for _ in range(ROUNDS)]


def warm(state):
    """generate_crystal and decompose keep no caches; fill the counting table the checks read."""
    count = state.lib.decomposition.count_ssyt_formula
    for rnd in state.rounds:
        for req in rnd:
            count(tuple(req["shape"]), req["n"])


def expect(req, memo):
    shape, n = tuple(req["shape"]), req["n"]
    vertices, edges, classes = oracle.crystal(shape, n)
    return {"types": sorted(c for c in oracle.syt_descent_compositions(shape) if len(c) <= n),
            "graph": oracle.graph_fingerprint(vertices, edges),
            "classes": oracle.classes_fingerprint(classes)}


def execute(req, lib, tr):
    shape, n = tuple(req["shape"]), req["n"]
    with tr.span("crystal.generate_crystal"):
        G = lib.crystal.generate_crystal(shape, n)
    with tr.span("decomposition.decompose"):
        subs = lib.decomposition.decompose(G)
    tr.count("vertices", len(G.vertices))
    tr.count("edges", len(G.edges))
    tr.count("operator_attempts", len(G.vertices) * (n - 1))
    tr.count("classes", len(subs))
    return G, subs


def check(req, result, error, state):
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    G, subs = result
    shape, n = tuple(req["shape"]), req["n"]
    expected = state.expected[request_key(req)]
    m = sum(shape)
    expected_v = oracle.ssyt_count(shape, n)
    if len(G.vertices) != expected_v:
        return f"|V|={len(G.vertices)}, hook-content gives {expected_v}"
    if state.lib.decomposition.count_ssyt_formula(shape, n) != expected_v:
        return "count_ssyt_formula disagrees with hook-content"
    types = sorted(tuple(s.alpha) for s in subs)
    if types != expected["types"]:
        return f"{len(types)} classes, expected {len(expected['types'])} (one per SYT with <= n parts)"
    count_bm = state.lib.decomposition.count_bm
    for s in subs:
        if s.size != count_bm(m, n - len(s.alpha) + 1):
            return f"class {s.alpha} has {s.size} vertices, count_bm gives another"
    V = G.vertices
    edges = ((V[u], V[v], i) for u, v, i in G.edges)
    if oracle.graph_fingerprint(V, edges) != expected["graph"]:
        return "vertices or labelled edges differ from the oracle's crystal"
    classes = ((tuple(s.alpha), s.source, (V[k] for k in s.vertex_indices),
                ((V[u], V[v], i) for u, v, i in s.edges)) for s in subs)
    if oracle.classes_fingerprint(classes) != expected["classes"]:
        return "a class's source, vertices or edges differ from the oracle's"
    return None


def probe(state, tr, loop):
    """Layer timings on the same inputs, measured outside the traced loop."""
    lib = state.lib
    firsts = state.rounds[0]
    gen_s = enum_s = 0.0
    f_args, w_args, d_args = [], [], []
    for req in firsts:
        shape, n = tuple(req["shape"]), req["n"]
        start = time.perf_counter()
        G = lib.crystal.generate_crystal(shape, n)
        gen_s += time.perf_counter() - start
        start = time.perf_counter()
        lib.tableaux.enumerate_ssyt(shape, n)
        enum_s += time.perf_counter() - start
        sample = G.vertices[::max(1, len(G.vertices) // 20)]
        f_args += [(T, i) for T in sample for i in range(1, n)]
        w_args += [(lib.tableaux.reading_word(T), i) for T in sample for i in range(1, n)]
        d_args += [(T,) for T in sample]
    c, calls = tr.counts, len(loop.latencies)
    return {
        "tableaux.descent_composition.us": (per_call_us(lib.tableaux.descent_composition, d_args, 5), "us"),
        "tableaux.enumerate_ssyt.s": (enum_s / len(firsts), "s"),
        "crystal.generate_crystal.s": (tr.mean("crystal.generate_crystal"), "s"),
        "crystal.f_tableau.us": (per_call_us(lib.crystal.f_tableau, f_args, 1), "us"),
        "crystal.f_word.us": (per_call_us(lib.crystal.f_word, w_args, 1), "us"),
        "crystal.vertices": (c["vertices"] / calls, "count"),
        "crystal.edges": (c["edges"] / calls, "count"),
        "crystal.operator_attempts": (c["operator_attempts"] / calls, "count"),
        "crystal.edge_yield": (c["edges"] / c["operator_attempts"], "ratio"),
        "crystal.gen_over_enum": (gen_s / enum_s, "ratio"),
        "decomposition.decompose.s": (tr.mean("decomposition.decompose"), "s"),
        "decomposition.classes": (c["classes"] / calls, "count"),
        "decomposition.vertices_per_s": (c["vertices"] / sum(tr.durations("decomposition.decompose")), "1/s"),
    }
