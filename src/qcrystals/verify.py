"""Exhaustive verification suites over all shapes up to a size bound.

Two tiers: theorem suites assert facts the library is built on and must all
pass; conjecture suites produce structured reports that are never fatal, so
runs beyond the verified envelope simply record what they find. Every suite
returns skeleton.Report, the package's one report type, with a deterministic
result payload. The two runners, run_theorem_suite and run_conjecture_suite,
are the one place a suite is timed: they fill in each report's wall time,
and a suite called directly reports 0.0.

rsk_suite and evacuation_suite meet the same tableaux and words many times,
so each call keeps per-run lookup tables of pure results: a functools.cache
of each primitive that is called again on the same input, made when the
suite starts and dropped when it returns. Every identity is still checked
on the same inputs, by the same public functions, in the same order; the
tables read the module's names at call time, so a patched primitive is
the one that is tabulated.
"""

import random
import time
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import product

from . import skeleton, symfunc
from .crystal import e_tableau, e_word, f_tableau, f_word, generate_crystal, word_crystal_component
from .decomposition import (
    QuasicrystalClass, decompose, descent_classes, subcomponent_longest_path,
    subcomponent_sink, verify_subcomponent_iso, weight_matching_bijection,
    weight_multiplicity_in_subcomponent,
)
from .errors import InvalidParameters
from .rsk import (
    evacuate, jdt_rectify, rot_word, rotate180_complement, rsk, rsk_inverse,
    rsk_of_rot, skew_from_rows, skew_reading_word,
)
from .skeleton import (
    Report, _evac_duality, build_skeleton, check_dual_equivalence_conjecture,
    check_reordering_conjecture, check_skeleton_strata, max_descent_composition_length,
)
from .symfunc import (
    FExpansion, SchurExpansion, f_to_monomials, schur_expansion_to_f,
    schur_to_f, schurify,
)
from .tableaux import (
    band_cells, bands_mergeable, compositions_of, count_bm, count_ssyt_formula,
    descent_composition, descent_count_census, enumerate_ssyt, enumerate_syt,
    hook_length_count, is_horizontal_band, is_semistandard, is_standard, kostka,
    minimal_parsing, partitions_of, reading_rows, reading_word, refines,
    shape_of, sources_of_type, standardize_tableau, standardize_word,
    syt_descent_compositions, weight_of, word_descent_composition,
)


def _report(name, failures):
    return Report(name, not failures, (("failures", tuple(failures[:20])),))


def _shapes(max_size):
    for m in range(1, max_size + 1):
        yield from partitions_of(m)


def _moment(weights) -> int:
    return sum(j * c for j, c in enumerate(weights, 1))


# ---------------------------------------------------------------------------
# theorem suites

def parsing_suite(max_size: int = 6, alphabet: int = 4) -> Report:
    """Bands, standardization, descent compositions, band-filling sources."""
    failures = []
    for shape in _shapes(max_size):
        syt = enumerate_syt(shape)
        if len(syt) != hook_length_count(shape):
            failures.append(("syt count vs hook formula", shape))
        for T in enumerate_ssyt(shape, min(sum(shape), alphabet)):
            std = standardize_tableau(T)
            if not is_standard(std) or shape_of(std) != shape_of(T):
                failures.append(("standardization broken", T))
            if descent_composition(std) != descent_composition(T):
                failures.append(("descent composition not preserved", T))
            parsing = minimal_parsing(T)
            if parsing.type != descent_composition(T):
                failures.append(("parsing type mismatch", T))
            for band in range(1, len(parsing.type) + 1):
                cells = band_cells(parsing, band)
                values = [T[i][j] for i, j in cells]
                if not is_horizontal_band(cells, values):
                    failures.append(("band not horizontal", T, band))
                if band < len(parsing.type) and bands_mergeable(T, parsing, band):
                    failures.append(("band not maximal", T, band))
        for alpha in compositions_of(sum(shape)):
            sources = sources_of_type(shape, alpha)
            if len(sources) != syt_descent_compositions(shape).count(alpha):
                failures.append(("source count vs census", shape, alpha))
            for T in sources:
                if weight_of(T, len(alpha)) != alpha:
                    failures.append(("source weight", shape, alpha))
                if descent_composition(T) != alpha:
                    failures.append(("source descent composition", shape, alpha))
            if len(set(sources)) != len(sources):
                failures.append(("duplicate sources", shape, alpha))
    # words: standardization preserves descents
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 9)))
        std = standardize_word(w)
        if sorted(std) != list(range(1, len(w) + 1)):
            failures.append(("word standardization not a permutation", w))
        if word_descent_composition(std) != word_descent_composition(w):
            failures.append(("word standardization changes descents", w))
    return _report(f"parsing/standardization up to size {max_size}", failures)


def refinement_order_suite(max_size: int = 8) -> Report:
    """The refinement relation is a partial order on compositions of fixed size."""
    failures = []
    for m in range(1, max_size + 1):
        comps = compositions_of(m)
        finer = {a: [b for b in comps if refines(a, b)] for a in comps}
        for a in comps:
            if not refines(a, a):
                failures.append(("not reflexive", a))
        for a in comps:
            for b in finer[a]:
                if a != b and refines(b, a):
                    failures.append(("not antisymmetric", a, b))
        for a in comps:
            for b in finer[a]:
                for c in finer[b]:
                    if not refines(a, c):
                        failures.append(("not transitive", a, b, c))
    return _report(f"refinement partial order up to size {max_size}", failures)


def crystal_suite(max_size: int = 6, alphabet: int = 4) -> Report:
    """Generation matches enumeration; operator and degree laws hold."""
    failures = []
    for shape in _shapes(max_size):
        for n in range(1, alphabet + 1):
            G = generate_crystal(shape, n)
            expected = enumerate_ssyt(shape, n)
            if sorted(G.vertices) != sorted(expected):
                failures.append(("vertex set mismatch", shape, n))
                continue
            if expected:
                if G.sources() != [G.source] or len(G.sinks()) != 1:
                    failures.append(("source/sink not unique", shape, n))
            lam_moment = _moment(shape)
            depths = G.depths()
            for k, T in enumerate(G.vertices):
                if depths[k] != _moment(weight_of(T, n)) - lam_moment:
                    failures.append(("depth law", shape, n, T))
                out = G.out_edges(k)
                for i in range(1, n):
                    image = f_tableau(T, i)
                    if image is not None:
                        if not is_semistandard(image) or shape_of(image) != shape:
                            failures.append(("operator image invalid", T, i))
                        if e_tableau(image, i) != T:
                            failures.append(("raise after lower", T, i))
                        if reading_word(image) != f_word(reading_word(T), i):
                            failures.append(("reading-word commutation", T, i))
                        if out.get(i) != G.index_of(image):
                            failures.append(("edge table mismatch", T, i))
                    elif i in out:
                        failures.append(("phantom edge", T, i))
    return _report(f"crystal generation up to size {max_size}, alphabet {alphabet}",
                   failures)


def decomposition_suite(max_size: int = 6, alphabet: int = 4) -> Report:
    """Partition into classes, sources, sinks, heights, one-row isomorphisms."""
    failures = []
    for shape in _shapes(max_size):
        m = sum(shape)
        census = Counter(syt_descent_compositions(shape))
        for n in range(len(shape), alphabet + 1):
            G = generate_crystal(shape, n)
            subs = decompose(G)
            covered = [v for sub in subs for v in sub.vertex_indices]
            if sorted(covered) != list(range(len(G.words))):
                failures.append(("classes do not partition", shape, n))
            if Counter(sub.alpha for sub in subs) != {
                    a: c for a, c in census.items() if len(a) <= n}:
                failures.append(("class multiplicities vs census", shape, n))
            depths = G.depths()
            lam_moment = _moment(shape)
            for sub in subs:
                s = len(sub.alpha)
                signature = QuasicrystalClass(m, s, n)
                source = sub.source
                if weight_of(source, n)[:s] != sub.alpha or descent_composition(source) != sub.alpha:
                    failures.append(("source filling", shape, n, sub.alpha))
                expected_depth = _moment(sub.alpha) - lam_moment
                if depths[sub.source_index] != expected_depth:
                    failures.append(("source depth", shape, n, sub.alpha))
                sinks = [v for v in sub.vertex_indices
                         if not any(x in sub.vertex_indices
                                    for x in G.out_edges(v).values())]
                if len(sinks) != 1 or G.vertices[sinks[0]] != subcomponent_sink(sub, n):
                    failures.append(("sink shift rule", shape, n, sub.alpha))
                # height counts the ranks: one more than a longest path's edges
                if subcomponent_longest_path(sub) != signature.height - 1:
                    failures.append(("height law", shape, n, sub.alpha))
                ok, witness = verify_subcomponent_iso(G, sub, n)
                if not ok:
                    failures.append(("one-row isomorphism", shape, n, sub.alpha, witness))
                if len(sub.vertex_indices) != signature.vertex_count:
                    failures.append(("class size formula", shape, n, sub.alpha))
                weights = [weight_of(G.vertices[v], n) for v in sub.vertex_indices]
                if len(set(weights)) != len(weights):
                    failures.append(("weight repeats inside class", shape, n, sub.alpha))
                for mu in set(weights):
                    if weight_multiplicity_in_subcomponent(sub.alpha, mu) != 1:
                        failures.append(("weight multiplicity false negative",
                                         shape, n, sub.alpha, mu))
            # same-type classes are labelled-isomorphic under the weight matching
            by_alpha: dict = {}
            for sub in subs:
                by_alpha.setdefault(sub.alpha, []).append(sub)
            for alpha, group in by_alpha.items():
                base = group[0]
                for other in group[1:]:
                    phi = weight_matching_bijection(G, base, other, n)
                    edges = {(phi[u], phi[v], i) for u, v, i in base.edges}
                    if edges != set(other.edges):
                        failures.append(("same-type classes not isomorphic",
                                         shape, n, alpha))
    return _report(f"class decomposition up to size {max_size}, alphabet {alphabet}",
                   failures)


def counting_suite(max_size: int = 7, alphabet: int = 6) -> Report:
    """Count formula and one-row counts against brute-force enumeration."""
    failures = []
    for shape in _shapes(max_size):
        for n in range(1, alphabet + 1):
            if count_ssyt_formula(shape, n) != len(enumerate_ssyt(shape, n)):
                failures.append(("count formula vs brute force", shape, n))
        tally = Counter(len(comp) - 1 for comp in syt_descent_compositions(shape))
        if descent_count_census(shape) != tally:
            failures.append(("descent census vs standard tableaux", shape))
    for m in range(1, max_size + 1):
        for k in range(1, alphabet + 1):
            if count_bm(m, k) != len(enumerate_ssyt((m,), k)):
                failures.append(("one-row count vs brute force", m, k))
    return _report(f"counting formulas up to size {max_size}, alphabet {alphabet}",
                   failures)


def kostka_suite(max_size: int = 7) -> Report:
    """kostka against brute-force weight counting and against the paper's
    formula on the listed standard tableaux: those whose type mu refines."""
    failures = []
    for m in range(1, max_size + 1):
        comps = compositions_of(m)
        for shape in partitions_of(m):
            tally = Counter(weight_of(T, m) for T in enumerate_ssyt(shape, m))
            syt = syt_descent_compositions(shape)
            for mu in comps:
                padded = mu + (0,) * (m - len(mu))
                value = kostka(shape, mu)
                if value != tally.get(padded, 0):
                    failures.append(("kostka mismatch", shape, mu))
                if value != sum(1 for comp in syt if refines(comp, mu)):
                    failures.append(("kostka vs refinement sum", shape, mu))
    return _report(f"Kostka numbers up to size {max_size}", failures)


_RSK_RANDOM_WORDS, _RSK_SEED = 300, 7
_JDT_SAMPLES, _JDT_SEED = 120, 23


def rsk_suite() -> Report:
    """Insertion, descents, rotation, evacuation identities on words."""
    failures = []
    insert, rot, evac, f_tab, descents, word_descents = map(cache, (
        rsk, rot_word, evacuate, f_tableau, descent_composition, word_descent_composition))

    def check_word(w, n):
        P, Q = insert(w)
        if descents(Q) != word_descents(w):
            failures.append(("recording descents", w))
        if rsk_inverse((P, Q)) != w:
            failures.append(("inverse round trip", w))
        for i in range(1, n):
            fw = f_word(w, i)
            if fw is not None and insert(fw).P != f_tab(P, i):
                failures.append(("insertion commutes with operators", w, i))
            if fw is not None and rot(fw, n) != e_word(rot(w, n), n - i):
                failures.append(("rotation anti-automorphism", w, i))
        r = rot(w, n)
        if rot(r, n) != w:
            failures.append(("rotation involution", w))
        if tuple(reversed(word_descents(w))) != word_descents(r):
            failures.append(("rotation descent reversal", w))
        rp, rq = rsk_of_rot(w, n)
        if rp != evac(P, n) or rq != evac(Q, len(w)):
            failures.append(("rotated insertion pair", w))

    for n in range(1, 4):
        for w in _all_words(n, 6):
            check_word(w, n)
    rng = random.Random(_RSK_SEED)
    for _ in range(_RSK_RANDOM_WORDS):
        n = rng.randint(2, 4)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 9)))
        check_word(w, n)

    # straight-shape reading words insert to themselves; plactic coherence
    for shape in _shapes(5):
        for T in enumerate_ssyt(shape, 4):
            if insert(reading_word(T)).P != T:
                failures.append(("reading word insertion", T))
    by_p: dict = {}
    for w in _all_words(3, 5):
        by_p.setdefault(insert(w).P, []).append(w)
    for P, group in by_p.items():
        addresses = set()
        for w in group:
            component = word_crystal_component(w, 3)
            addresses.add(component.index_of(w))
        if len(addresses) != 1:
            failures.append(("plactic class position", P))
    return _report("insertion and rotation identities", failures)


def _all_words(n, max_len):
    """Every word over 1..n of length 1..max_len, shortest first."""
    for length in range(1, max_len + 1):
        yield from product(range(1, n + 1), repeat=length)


def jdt_suite() -> Report:
    """Rectification is order-independent and agrees with row insertion."""
    failures = []
    rng = random.Random(_JDT_SEED)
    for _ in range(_JDT_SAMPLES):
        inner_len = rng.randint(1, 3)
        inner = tuple(sorted((rng.randint(0, 3) for _ in range(inner_len)),
                             reverse=True))
        S = _random_skew(rng, inner)
        if S is None or not S.is_valid():
            continue
        base = jdt_rectify(S)
        for pick in (min, lambda corners: corners[0],
                     lambda corners: rng.choice(corners)):
            if jdt_rectify(S, pick) != base:
                failures.append(("slide order dependence", S))
        if rsk(skew_reading_word(S)).P != base:
            failures.append(("rectification vs insertion", S))
    return _report("jeu de taquin slides", failures)


def _random_skew(rng, inner):
    """Random valid skew filling over a random outer shape; None on dead end."""
    length = len(inner)
    outer = []
    prev = None
    for i in range(length):
        low = max(inner[i] + 1, 1)
        high = inner[i] + 4
        width = rng.randint(low, high)
        if prev is not None:
            width = min(width, prev)
            if width < low:
                return None
        outer.append(width)
        prev = width
    grid = [[None] * outer[i] for i in range(length)]
    for i in range(length):
        for j in range(inner[i], outer[i]):
            low = 1
            if j > inner[i]:
                low = max(low, grid[i][j - 1])
            if i > 0 and j >= inner[i - 1] and j < outer[i - 1]:
                low = max(low, grid[i - 1][j] + 1)
            grid[i][j] = rng.randint(low, low + 2)
    return skew_from_rows(inner, [row[inner[i]:] for i, row in enumerate(grid)])


def evacuation_suite(max_size: int = 5, alphabet: int = 4) -> Report:
    """Jeu de taquin oracle, involution, descent reversal, anti-automorphism, class duality."""
    failures = []
    evac, descents = map(cache, (evacuate, descent_composition))
    for shape in _shapes(max_size):
        for n in range(len(shape), alphabet + 1):
            G = generate_crystal(shape, n)
            for T in G.vertices:
                image = evac(T, n)
                if image != jdt_rectify(rotate180_complement(T, n)):
                    failures.append(("insertion vs jeu de taquin", T, n))
                if shape_of(image) != shape_of(T):
                    failures.append(("shape not preserved", T, n))
                if evac(image, n) != T:
                    failures.append(("not an involution", T, n))
                if descents(image) != tuple(reversed(descents(T))):
                    failures.append(("descent reversal", T, n))
                for i in range(1, n):
                    lowered = f_tableau(T, i)
                    if lowered is not None and evac(lowered, n) != e_tableau(image, n - i):
                        failures.append(("anti-automorphism", T, i, n))
            if G.source is not None and evac(G.vertices[G.source], n) != G.vertices[G.sinks()[0]]:
                failures.append(("source to sink", shape, n))
            duality = _evac_duality(G)
            if not duality.passed:
                failures.append(("class duality", shape, n, duality.details))
    return _report(f"evacuation up to size {max_size}, alphabet {alphabet}", failures)


def _skeleton_by_crystal(shape, n):
    """Vertices and edges of the skeleton through the crystal (slow oracle).

    Builds the whole crystal, splits its reading words into descent classes
    with the edge rule, read off the crossing masks its BFS kept, and keeps,
    per ordered pair of classes, the crossing edge of least label; the
    crystal's tableaux are never cut from the words. Each class's standard
    tableau is its source's standardized reading word cut into rows, and
    the vertices are those tableaux in reading-word order.
    """
    G = generate_crystal(shape, n)
    _, class_of, _, sources = descent_classes(G.words, G.edges, G._crossings)
    rows = reading_rows(shape)
    std_of = [tuple(std[row] for row in rows)
              for std in (standardize_word(G.words[s]) for s in sources)]
    edges = {}
    for u, v, i in G.edges:
        a, b = class_of[u], class_of[v]
        if a != b:
            key = (std_of[a], std_of[b])
            if key not in edges or i < edges[key]:
                edges[key] = i
    return tuple(sorted(std_of, key=reading_word)), edges


def skeleton_suite(max_size: int = 6) -> Report:
    """The local rule against the crystal route; stability, restriction, steps.

    At every alphabet n in 1..S+2, build_skeleton must equal the skeleton
    built through the whole crystal, vertices, edges and labels. The crystal
    route alone must then show the two facts the local rule rests on: at
    S+1 and S+2 it gives the skeleton it gives at S, and below S that
    skeleton induced on the tableaux with at most n parts.
    """
    failures = []
    for shape in _shapes(max_size):
        S = max_descent_composition_length(shape)
        route = {n: _skeleton_by_crystal(shape, n) for n in range(1, S + 3)}
        for n, (vertices, edges) in route.items():
            local = build_skeleton(shape, n)
            if local.vertices != vertices or local.edges != edges:
                failures.append(("local rule vs crystal route", shape, n))
        stable_vertices, stable_edges = route[S]
        for n in (S + 1, S + 2):
            if route[n] != route[S]:
                failures.append(("not stable", shape, n))
        for n in range(1, S):
            vertices, edges = route[n]
            keep = set(vertices)
            induced = {pair: label for pair, label in stable_edges.items()
                       if pair[0] in keep and pair[1] in keep}
            if edges != induced:
                failures.append(("restriction mismatch", shape, n))
            expected_vertices = {T for T in stable_vertices
                                 if len(descent_composition(T)) <= n}
            if keep != expected_vertices:
                failures.append(("restricted vertex set", shape, n))
        for (u, v) in stable_edges:
            du = len(descent_composition(u))
            dv = len(descent_composition(v))
            if abs(du - dv) > 1:
                failures.append(("descent counts differ by more than 1", shape, u, v))
    return _report(f"skeleton stability up to size {max_size}", failures)


def dual_equivalence_suite(max_size: int = 6) -> Report:
    """The elementary maps are involutions with standard images, and the
    edges they give are those of the word-level dual_equivalence_graph."""
    failures = []
    for shape in _shapes(max_size):
        m = sum(shape)
        edges = set()
        for T in enumerate_syt(shape):
            pos = {v: p for p, v in enumerate(reading_word(T))}
            for i in range(2, m):
                image = skeleton.dual_equivalence_involution(T, i)
                if not is_standard(image):
                    failures.append(("image not standard", T, i))
                if skeleton.dual_equivalence_involution(image, i) != T:
                    failures.append(("not an involution", T, i))
                between = min(pos[i - 1], pos[i + 1]) < pos[i] < max(pos[i - 1],
                                                                     pos[i + 1])
                if between != (image == T):
                    failures.append(("fixed-point rule", T, i))
                if image != T:
                    edges.add((*sorted((T, image)), i))
        try:
            graph_edges = skeleton.dual_equivalence_graph(shape).edges
        except KeyError:  # a wrong move led to a word of no standard tableau
            graph_edges = None
        if edges != graph_edges:
            failures.append(("graph vs involutions", shape))
    return _report(f"dual equivalence involutions up to size {max_size}", failures)


def monomial_suite(max_size: int = 6, alphabet: int = 4) -> Report:
    """Class monomials, fundamental monomials, and full crystal monomials agree."""
    failures = []
    for shape in _shapes(max_size):
        for n in range(len(shape), alphabet + 1):
            G = generate_crystal(shape, n)
            subs = decompose(G)
            for sub in subs:
                mono = sorted(weight_of(G.vertices[v], n) for v in sub.vertex_indices)
                if mono != sorted(f_to_monomials(sub.alpha, n)):
                    failures.append(("class monomials vs fundamental", shape, n,
                                     sub.alpha))
            union = sorted(weight_of(G.vertices[v], n) for sub in subs
                           for v in sub.vertex_indices)
            via_syt = sorted(mu for comp in syt_descent_compositions(shape)
                             for mu in f_to_monomials(comp, n))
            via_enum = sorted(weight_of(T, n) for T in enumerate_ssyt(shape, n))
            if union != via_enum or via_syt != via_enum:
                failures.append(("monomial bridge", shape, n))
    for m in range(1, 8):
        for alpha in compositions_of(m):
            for n in range(1, 7):
                count = len(f_to_monomials(alpha, n))
                s = len(alpha)
                expected = QuasicrystalClass(m, s, n).vertex_count if n >= s else 0
                if count != expected:
                    failures.append(("fundamental monomial count", alpha, n))
    return _report(f"monomial bridge up to size {max_size}, alphabet {alphabet}", failures)


def _schurify_outcome(schurify_fn, f):
    """The Schur terms schurify_fn gives for f, or the NotSymmetric message."""
    try:
        return schurify_fn(f).terms
    except symfunc.NotSymmetric as exc:
        return str(exc)


def schurify_suite(samples: int = 50, max_degree: int = 8, seed: int = 5) -> Report:
    """Exact recovery of random positive Schur combinations.

    Also checks schur_to_f, counted by corner removal, against the tally of
    descent compositions over the listed standard tableaux of each shape,
    and that the parsers read back what format_f_expansion and
    format_schur_expansion print for each random combination. schurify is
    compared with the leading-support elimination, result or message, on
    each combination, on a mixed-sign variant (whose terms may cancel) and
    on one plus a multiple of F[1,m-1] or of one of its own F, mostly not
    indexed by a partition.
    """
    failures = []
    for m in range(1, max_degree + 1):
        for shape in partitions_of(m):
            f = schur_to_f(shape)
            if f.terms != Counter(syt_descent_compositions(shape)):
                failures.append(("expansion vs standard-tableau listing", shape))
            if schurify(f).terms != {shape: 1}:
                failures.append(("single shape round trip", shape))
    rng, variants = random.Random(seed), random.Random(seed + 1)
    for _ in range(samples):
        m = rng.randint(1, max_degree)
        shapes = partitions_of(m)
        chosen = {shape: rng.randint(1, 9) for shape in
                  rng.sample(shapes, rng.randint(1, min(4, len(shapes))))}
        g = SchurExpansion(chosen)
        f = schur_expansion_to_f(g)
        if schurify(f) != g:
            failures.append(("linear round trip", chosen))
        mixed = schur_expansion_to_f(SchurExpansion(
            {shape: variants.choice((-1, 1)) * c for shape, c in chosen.items()}))
        alpha = variants.choice(((1, m - 1), variants.choice(list(f.terms)))) if m > 1 else (1,)
        skew = f + FExpansion({alpha: variants.choice((-2, -1, 1, 2))})
        for case in (f, mixed, skew):
            if (_schurify_outcome(schurify, case)
                    != _schurify_outcome(symfunc._schurify_by_peeling, case)):
                failures.append(("walk vs leading-support elimination", case.terms))
        if not symfunc.is_schur_positive(f):
            failures.append(("positivity", chosen))
        for built, read in ((f, symfunc.parse_f_expansion(symfunc.format_f_expansion(f))),
                            (g, symfunc.parse_schur_expansion(
                                symfunc.format_schur_expansion(g)))):
            if (read.terms, read.degree) != (built.terms, built.degree):
                failures.append(("format then parse", type(built).__name__, chosen))
    for alpha in [(1, 2), (2, 1, 3), (1, 1, 2)]:
        try:
            schurify(FExpansion({alpha: 1}))
            failures.append(("non-symmetric accepted", alpha))
        except symfunc.NotSymmetric:
            pass
        except Exception:
            failures.append(("wrong error type", alpha))
    return _report("fundamental-to-Schur round trips", failures)


THEOREM_SUITES = (
    ("parsing", parsing_suite),
    ("refinement-order", refinement_order_suite),
    ("crystal", crystal_suite),
    ("decomposition", decomposition_suite),
    ("counting", counting_suite),
    ("kostka", kostka_suite),
    ("rsk", rsk_suite),
    ("jdt", jdt_suite),
    ("evacuation", evacuation_suite),
    ("skeleton", skeleton_suite),
    ("dual-equivalence-involutions", dual_equivalence_suite),
    ("monomials", monomial_suite),
    ("schurify", schurify_suite),
)


# The largest size each theorem suite is run at; None marks the suites whose
# inputs are fixed, which take no size. Suites not listed run at any size.
_SIZE_CAPS = {"refinement-order": 8, "counting": 7, "kostka": 7,
              "evacuation": 5, "rsk": None, "jdt": None, "schurify": None}


def _timed(check, *args, **kwargs) -> Report:
    """The report of check(*args, **kwargs) with the seconds the call took."""
    started = time.perf_counter()
    report = check(*args, **kwargs)
    return replace(report, wall_time=time.perf_counter() - started)


def run_theorem_suite(name: str, max_size: int) -> Report:
    """The named theorem suite at max_size, or at its size cap, timed here."""
    suites = dict(THEOREM_SUITES)
    if name not in suites:
        raise InvalidParameters(f"unknown theorem suite {name!r}")
    cap = _SIZE_CAPS.get(name, max_size)
    size = {} if cap is None else {"max_size": min(max_size, cap)}
    return _timed(suites[name], **size)


# Each conjecture suite's checker, and the inputs it runs on up to a size.
CONJECTURE_SUITES = {
    "reordering": (check_reordering_conjecture, lambda size: range(1, size + 1)),
    "skeleton-strata": (check_skeleton_strata, _shapes),
    "dual-equivalence-containment": (check_dual_equivalence_conjecture, _shapes),
}


def run_conjecture_suite(name: str, max_size: int) -> list[Report]:
    """One report per size or shape up to max_size, each timed here."""
    if name not in CONJECTURE_SUITES:
        raise InvalidParameters(f"unknown conjecture suite {name!r}")
    check, inputs = CONJECTURE_SUITES[name]
    return [_timed(check, value) for value in inputs(max_size)]
