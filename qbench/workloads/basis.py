"""basis: Schur -> fundamental -> text -> fundamental -> Schur round trips.

Why: each request takes a positive Schur combination of degree 8 to 11,
expands it with schur_expansion_to_f, prints it with format_f_expansion,
reads it back with parse_f_expansion and rewrites it with schurify; the
result must equal the input exactly. One request in seven instead sends a
non-symmetric fundamental expansion, which schurify must reject with
NotSymmetric. The standard-tableau tables behind schur_to_f are filled
during set-up, so the timed work is the expansion arithmetic in symfunc
and the cold fill shows up in setup_s (degree 11 costs about 1.6 s cold).

Loads: symfunc; tableaux only through the set-up cache fill.
Bypasses: crystal, decomposition, skeleton, rsk, render, verify, CLI.

Inputs: a pool of 112 requests sent once per round, in a new seeded order
each round. Per degree, requests with k = 1..12 Schur terms, twice over,
each take the next k partitions in a fixed order, cycling, so every
partition of the degree appears about equally often; the non-symmetric
requests add c*F[1,d-1], which schurify meets only after every partition
term with a first part of at least 2. The seed draws every coefficient
from 1..4 and the orders; the supports, and so the work, are the same for
every seed (seeded supports moved throughput by 25% between seeds).

Oracle: the printed F expansion must equal the one oracle.py builds from
its own standard-tableau census (compared by digest), and schurify of the
parsed text must give back the input; a non-symmetric input must raise
NotSymmetric and nothing else.
"""

import random
import time

from .. import oracle
from ..harness import import_fresh, request_key

DEGREES, MAX_TERMS = range(8, 12), 12
TINY_DEGREES, TINY_MAX_TERMS = range(4, 6), 3
PASSES, ROUNDS = 2, 8
GROUP = 3  # rounds per min-of-k group (see harness.py)


def make_rounds(seed, tiny):
    rng = random.Random(seed)
    degrees, max_terms = (TINY_DEGREES, TINY_MAX_TERMS) if tiny else (DEGREES, MAX_TERMS)
    pool, table = [], {}
    for d in degrees:
        order, pos = oracle.partitions(d), 0
        for k in [k for _ in range(PASSES) for k in range(1, max_terms + 1)]:
            shapes = [order[(pos + j) % len(order)] for j in range(min(k, len(order)))]
            pos += k
            terms = [[list(s), rng.randint(1, 4)] for s in shapes]
            pool.append({"op": "roundtrip", "schur": terms})
            if k % 6 == 0:
                f = oracle.schur_combination_in_f(((tuple(s), c) for s, c in terms), table)
                f[(1, d - 1)] = f.get((1, d - 1), 0) + rng.randint(1, 4)
                pool.append({"op": "not_symmetric", "text": oracle.format_terms(f, "F")})
    return [rng.sample(pool, len(pool)) for _ in range(ROUNDS)]


def warm(state):
    schur_to_f = state.lib.symfunc.schur_to_f
    for rnd in state.rounds:
        for req in rnd:
            for shape, _ in req.get("schur", ()):
                schur_to_f(tuple(shape))


def expect(req, memo):
    """Fingerprint of the fundamental expansion the standard-tableau census gives."""
    if req["op"] != "roundtrip":
        return None
    terms = oracle.schur_combination_in_f(((tuple(s), c) for s, c in req["schur"]), memo)
    return oracle.digest(oracle.format_terms(terms, "F"))


def execute(req, lib, tr):
    sf = lib.symfunc
    if req["op"] == "not_symmetric":
        with tr.span("symfunc.parse_f_expansion.rejected"):
            f = sf.parse_f_expansion(req["text"])
        with tr.span("symfunc.schurify.rejected"):
            return sf.schurify(f)
    g = sf.SchurExpansion({tuple(s): c for s, c in req["schur"]})
    with tr.span("symfunc.schur_expansion_to_f"):
        f = sf.schur_expansion_to_f(g)
    with tr.span("symfunc.format_f_expansion"):
        text = sf.format_f_expansion(f)
    with tr.span("symfunc.parse_f_expansion"):
        parsed = sf.parse_f_expansion(text)
    with tr.span("symfunc.schurify"):
        back = sf.schurify(parsed)
    tr.count("f_terms", len(f.terms))
    tr.count("schur_terms", len(back.terms))
    return g, f, text, back


def check(req, result, error, state):
    if req["op"] == "not_symmetric":
        if error is None:
            return "a non-symmetric expansion was accepted"
        if type(error) is not state.lib.errors.NotSymmetric:
            return f"raised {type(error).__name__}, expected NotSymmetric"
        return None
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    g, f, text, back = result
    if oracle.digest(text) != state.expected[request_key(req)]:
        return "fundamental expansion differs from the standard-tableau census"
    if back != g:
        return "round trip through text and schurify is not exact"
    return None


def probe(state, tr, loop):
    """Cold fill of the standard-tableau tables, in a fresh import."""
    cold = import_fresh()
    shapes = {tuple(s) for rnd in state.rounds for req in rnd for s, _ in req.get("schur", ())}
    start = time.perf_counter()
    for shape in sorted(shapes):
        cold.tableaux.syt_descent_compositions(shape)
    cold_fill_s = time.perf_counter() - start
    c, trips = tr.counts, sum(1 for k in loop.kinds if k == "roundtrip")
    hit_ratio, now = None, _cache_counts(state.lib)
    if now is not None and state.cache_before is not None:
        hits, misses = now[0] - state.cache_before[0], now[1] - state.cache_before[1]
        hit_ratio = hits / (hits + misses) if hits + misses else None
    return {
        "tableaux.syt_descent_compositions.s": (cold_fill_s, "s"),
        **{f"symfunc.{fn}.s": (tr.mean(f"symfunc.{fn}"), "s")
           for fn in ("schur_expansion_to_f", "schurify", "parse_f_expansion", "format_f_expansion")},
        "symfunc.f_terms": (c["f_terms"] / trips, "count"),
        "symfunc.schur_terms": (c["schur_terms"] / trips, "count"),
        "symfunc.schur_to_f_cache.hit_ratio": (hit_ratio, "ratio"),
    }


def _cache_counts(lib):
    """(hits, misses) of the schur_to_f table, or None if it has no cache_info()."""
    info = getattr(getattr(lib.symfunc, "_schur_to_f_terms", None), "cache_info", None)
    return (info().hits, info().misses) if info else None


def before_traced(state):
    """Cache counters at the start of the traced pass, for the hit ratio."""
    state.cache_before = _cache_counts(state.lib)
