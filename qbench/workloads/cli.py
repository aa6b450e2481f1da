"""cli: one `python -m qcrystals.cli` process per request.

Why: every request starts a fresh interpreter with cold caches, so this is
the only workload that pays for process start and import (about 115 ms of
each call) and the only one that reaches rsk, render and verify. A round
holds 26 requests: count (ssyt, bm, kostka, plethysm-monomials), rsk,
evac, crystal and decompose in dot, json and text, skeleton,
dual-equivalence, schurify --input -, four `check` runs (three running
the theorem suites at --max-size 4, one the conjectures at --max-size 5),
and four requests that must fail with exit 2 (usage) or 1 (domain error).
The three theorem checks are 12% of the requests and cost about four
ordinary requests each, so latency_p90_ms falls inside them and moves with
the verify suites, while latency_p50_ms sits among the ordinary requests.
A fourth theorem check per round was tried, to put latency_p90_ms deeper
inside their cluster; its spread between runs stayed at 10%.

Loads: the CLI process as a whole; rsk, render and verify; small crystals.
Bypasses: nothing is cached between requests.

Oracle: the exit code must match, stderr must hold no traceback, and
stdout must equal the in-process library result for the same arguments
(with counts, insertion tableaux and Schur expansions also checked
against the independent formulas in oracle.py).
"""

import json
import os
import random
import subprocess
import sys
import time

from .. import oracle
from ..harness import SRC, per_call_us

TIMEOUT_S = 60


def _shape(rng, lo, hi):
    return list(rng.choice(oracle.partitions(rng.randint(lo, hi))))


def _small_crystal(rng, max_vertices):
    while True:
        shape = _shape(rng, 2, 4)
        n = rng.randint(len(shape), 5)
        if oracle.ssyt_count(shape, n) <= max_vertices:
            return shape, n


def _csv(xs):
    return ",".join(map(str, xs))


def _random_ssyt(rng, n):
    word = [rng.randint(1, n) for _ in range(rng.randint(4, 9))]
    return [list(row) for row in oracle.insertion(word)[0]]


def _round(rng, tiny):
    R = []

    def add(op, argv, rc=0, stdin=None):
        R.append({"op": op, "argv": argv, "rc": rc, "stdin": stdin})

    lam = _shape(rng, 3, 6)
    add("count", ["count", "ssyt", "--shape", _csv(lam), "--max-entry", str(rng.randint(3, 9))])
    add("count", ["count", "bm", "--size", str(rng.randint(1, 9)), "--max-entry", str(rng.randint(1, 9))])
    lam = _shape(rng, 3, 6)
    mu = [rng.randint(0, 3) for _ in range(sum(lam))]
    while sum(mu) != sum(lam):
        k = rng.randrange(len(mu))
        mu[k] = max(0, mu[k] + (1 if sum(mu) < sum(lam) else -1))
    add("count", ["count", "kostka", "--shape", _csv(lam), "--weight", _csv(mu)])
    add("count", ["count", "plethysm-monomials", "--outer", _csv(_shape(rng, 1, 3)),
                  "--inner", _csv(_shape(rng, 1, 3)), "--max-entry", str(rng.randint(1, 3))])
    add("rsk", ["rsk", "--word", "".join(str(rng.randint(1, 9)) for _ in range(rng.randint(6, 14)))])
    add("rsk", ["rsk", "--word", _csv(rng.randint(1, 15) for _ in range(rng.randint(6, 14)))])
    for _ in range(2):
        n = rng.randint(3, 6)
        add("evac", ["evac", "--tableau", json.dumps(_random_ssyt(rng, n)), "--max-entry", str(n)])
    for cmd, fmt, extra in (("crystal", "json", []), ("crystal", "dot", ["--decompose"]),
                            ("crystal", "text", []), ("decompose", "json", []),
                            ("decompose", "dot", [])):
        shape, n = _small_crystal(rng, 120 if tiny else 200)
        add(cmd, [cmd, "--shape", _csv(shape), "--max-entry", str(n), "--format", fmt] + extra)
    add("skeleton", ["skeleton", "--shape", _csv(_shape(rng, 3, 4 if tiny else 5)),
                     "--format", rng.choice(["json", "dot", "text"])])
    shape = _shape(rng, 3, 5)
    add("skeleton", ["skeleton", "--shape", _csv(shape), "--max-entry",
                     str(rng.randint(len(shape), len(shape) + 2)), "--format", "json"])
    add("dual-equivalence", ["dual-equivalence", "--shape", _csv(_shape(rng, 4, 6)),
                             "--format", rng.choice(["json", "dot"])])
    for _ in range(2):
        d = rng.randint(3, 6)
        terms = {s: rng.randint(1, 3) for s in rng.sample(oracle.partitions(d), 2)}
        text = oracle.format_terms(oracle.schur_combination_in_f(terms.items()), "F")
        add("schurify", ["schurify", "--input", "-"], stdin=text + "\n")
    small, large = (2, 3) if tiny else (4, 5)
    add("check", ["check", "--max-size", str(small)])
    add("check", ["check", "--max-size", str(small), "--json"])
    add("check", ["check", "--max-size", str(small), "--which", "theorems"])
    add("check", ["check", "--max-size", str(large), "--which", "conjectures", "--json"])
    add("error", ["crystal", "--shape", _csv(_shape(rng, 2, 4)) + ",x", "--max-entry", "3"], rc=2)
    add("error", ["rsk", "--word", "12a" + str(rng.randint(1, 9))], rc=2)
    add("error", ["count", "bm", "--size", "0", "--max-entry", str(rng.randint(1, 5))], rc=1)
    add("error", ["schurify", "--input", "-"], rc=1, stdin="F[1,2]\n")
    rng.shuffle(R)
    return R


ROUNDS = 8
GROUP = 1  # every send counts: 100 sends take 4 rounds, too few to repeat 100 distinct requests


def make_rounds(seed, tiny):
    rng = random.Random(seed)
    return [_round(rng, tiny) for _ in range(ROUNDS)]


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv, stdin=None):
    return subprocess.run([sys.executable] + argv, input=stdin, capture_output=True,
                          text=True, env=_env(), cwd=SRC.parent, timeout=TIMEOUT_S)


def warm(state):
    """Start one process, which also leaves compiled bytecode for the rest."""
    spawn(["-c", "import qcrystals.cli"])


def execute(req, lib, tr):
    with tr.span(f"cli.{req['op']}"):
        proc = spawn(["-m", "qcrystals.cli"] + req["argv"], req["stdin"])
    tr.count("stdout_bytes", len(proc.stdout))
    return proc


def check(req, proc, error, state):
    if error is not None:
        return f"could not run: {type(error).__name__}: {error}"
    if proc.returncode != req["rc"]:
        return f"exit {proc.returncode}, expected {req['rc']}"
    if "Traceback" in proc.stderr:
        return "traceback on stderr"
    if req["rc"] != 0:
        return None if proc.stderr.strip() and not proc.stdout else "error without message"
    key = json.dumps(req, sort_keys=True)
    if key not in state.memo:
        try:
            state.memo[key] = expected_stdout(req, state.lib)
        except Exception as exc:  # the library or the oracle disagrees: a failed request
            state.memo[key] = f"oracle: {type(exc).__name__}: {exc}"
    expected = state.memo[key]
    if isinstance(expected, str) and expected.startswith("oracle: "):
        return expected
    if isinstance(expected, str):
        return None if proc.stdout == expected else "stdout differs from the library result"
    try:
        return expected(proc.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable stdout: {type(exc).__name__}: {exc}"


class Mismatch(Exception):
    """The library disagrees with an independent formula for this request."""


def _require(ok, what):
    if not ok:
        raise Mismatch(what)


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _ints(text):
    return tuple(int(p) for p in text.split(","))


def expected_stdout(req, lib):
    """Expected stdout, or a function of stdout returning a failure reason."""
    argv = req["argv"]
    cmd, fmt = argv[0], _opt(argv, "--format", "text")
    if cmd == "count":
        what = argv[1]
        if what == "ssyt":
            shape, n = _ints(_opt(argv, "--shape")), int(_opt(argv, "--max-entry"))
            value = lib.decomposition.count_ssyt_formula(shape, n)
            _require(value == oracle.ssyt_count(shape, n), "count_ssyt_formula vs hook-content")
        elif what == "bm":
            value = lib.decomposition.count_bm(int(_opt(argv, "--size")), int(_opt(argv, "--max-entry")))
        elif what == "kostka":
            value = lib.decomposition.kostka(_ints(_opt(argv, "--shape")), _ints(_opt(argv, "--weight")))
        else:
            value = lib.symfunc.plethysm_monomial_count(
                _ints(_opt(argv, "--outer")), _ints(_opt(argv, "--inner")), int(_opt(argv, "--max-entry")))
        return f"{value}\n"
    if cmd == "rsk":
        text = _opt(argv, "--word")
        word = _ints(text) if "," in text else tuple(int(ch) for ch in text)
        P, Q = lib.rsk.rsk(word)
        _require((P, Q) == oracle.insertion(word), "rsk vs independent insertion")
        return json.dumps({"P": [list(r) for r in P], "Q": [list(r) for r in Q]}) + "\n"
    if cmd == "evac":
        T = tuple(map(tuple, json.loads(_opt(argv, "--tableau"))))
        n = int(_opt(argv, "--max-entry"))
        E = lib.rsk.evacuate(T, n)
        _require(oracle.is_semistandard(E, n) and tuple(map(len, E)) == tuple(map(len, T)),
                 "evacuation is not a tableau of the same shape")
        return lib.render.tableau_to_json(E) + "\n"
    if cmd in ("crystal", "decompose"):
        shape, n = _ints(_opt(argv, "--shape")), int(_opt(argv, "--max-entry"))
        G = lib.crystal.generate_crystal(shape, n)
        subs = lib.decomposition.decompose(G) if cmd == "decompose" or "--decompose" in argv else None
        if fmt == "dot":
            return lib.render.crystal_to_dot(G, subs)
        if fmt == "text" and subs is None:
            return f"{len(G.vertices)} vertices, {len(G.edges)} edges\n"
        if cmd == "crystal":
            return lib.render.crystal_to_json(G) + "\n"
        want = [(list(s.alpha), s.size, sorted(s.vertex_indices)) for s in subs]
        return lambda out: None if [(c["type"], c["size"], c["vertices"]) for c in
                                    json.loads(out)["classes"]] == want else "classes differ"
    if cmd == "skeleton":
        shape, n = _ints(_opt(argv, "--shape")), _opt(argv, "--max-entry")
        skel = lib.skeleton.skeleton_stable(shape) if n is None else lib.skeleton.build_skeleton(shape, int(n))
        if fmt == "dot":
            return lib.render.skeleton_to_dot(skel)
        if fmt == "json":
            return lib.render.skeleton_to_json(skel) + "\n"
        return f"{len(skel.vertices)} vertices, {len(skel.edges)} edges, stable bound {skel.stable_bound}\n"
    if cmd == "dual-equivalence":
        g = lib.skeleton.dual_equivalence_graph(_ints(_opt(argv, "--shape")))
        return (lib.render.dual_equivalence_to_dot(g) if fmt == "dot"
                else lib.render.dual_equivalence_to_json(g) + "\n")
    if cmd == "schurify":
        f = lib.symfunc.parse_f_expansion(req["stdin"])
        g = lib.symfunc.schurify(f)
        text = lib.symfunc.format_schur_expansion(g)
        _require(oracle.format_terms(oracle.schur_combination_in_f(g.terms.items()), "F")
                 == lib.symfunc.format_f_expansion(f), "schurify result does not expand back")
        return text + "\n"
    return _expected_check(argv, lib)


def _expected_check(argv, lib):
    size, which = int(_opt(argv, "--max-size")), _opt(argv, "--which", "all")
    verify = lib.verify
    theorems = [(name, verify.run_theorem_suite(name, size).passed)
                for name, _ in verify.THEOREM_SUITES] if which in ("theorems", "all") else []
    conjectures = [(name, all(r.passed for r in verify.run_conjecture_suite(name, size)))
                   for name in verify.CONJECTURE_SUITES] if which in ("conjectures", "all") else []
    if "--json" not in argv:
        lines = [f"theorem {n}: {'pass' if ok else 'FAIL'}" for n, ok in theorems]
        lines += [f"conjecture {n}: {'consistent' if ok else 'VIOLATION FOUND'}" for n, ok in conjectures]
        return "".join(line + "\n" for line in lines)

    def judge(out):
        results = json.loads(out)["results"]
        got_t = [(e["suite"], e["passed"]) for e in results["theorems"]]
        got_c = [(e["suite"], e["consistent"]) for e in results["conjectures"]]
        return None if (got_t, got_c) == (theorems, conjectures) else "suite verdicts differ"
    return judge


def process_start_s(reps=5):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        spawn(["-c", "import qcrystals.cli"])
        times.append(time.perf_counter() - start)
    return sorted(times)[reps // 2]


SUBCOMMANDS = ("count", "rsk", "evac", "crystal", "decompose", "skeleton",
               "dual-equivalence", "schurify", "check", "error")
THEOREM_SUITES = ("parsing", "refinement-order", "crystal", "decomposition", "counting",
                  "kostka", "rsk", "jdt", "evacuation", "skeleton",
                  "dual-equivalence-involutions", "monomials", "schurify")
CONJECTURE_SUITES = ("reordering", "skeleton-strata", "dual-equivalence-containment")
VERIFY_SIZE, TINY_VERIFY_SIZE = 4, 2


def _timed(present, fn, *args):
    """Seconds for one call, or None when the suite is no longer there."""
    if not present:
        return None
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def probe(state, tr, loop):
    """In-process layer timings on the cli inputs, plus process start."""
    lib, reqs = state.lib, state.rounds[0]
    metrics = {f"cli.{sub}.ms": (_median_ms(tr.durations(f"cli.{sub}")), "ms") for sub in SUBCOMMANDS}
    metrics["cli.process_start.s"] = (process_start_s(), "s")
    metrics["cli.stdout_bytes"] = (tr.counts.get("stdout_bytes", 0) / len(loop.latencies), "bytes")

    words = [_opt(r["argv"], "--word") for r in reqs if r["op"] == "rsk"]
    words = [(_ints(w) if "," in w else tuple(int(ch) for ch in w),) for w in words]
    tabs = [(tuple(map(tuple, json.loads(_opt(r["argv"], "--tableau")))), int(_opt(r["argv"], "--max-entry")))
            for r in reqs if r["op"] == "evac"]
    metrics["rsk.rsk.us"] = (per_call_us(lib.rsk.rsk, words, 200), "us")
    metrics["rsk.evacuate.us"] = (per_call_us(lib.rsk.evacuate, tabs, 50), "us")

    to_json = to_dot = 0.0
    rendered = graphs = 0
    for r in reqs:
        if r["op"] in ("crystal", "decompose"):
            G = lib.crystal.generate_crystal(_ints(_opt(r["argv"], "--shape")), int(_opt(r["argv"], "--max-entry")))
            subs = lib.decomposition.decompose(G)
            start = time.perf_counter()
            text = lib.render.crystal_to_json(G)
            mid = time.perf_counter()
            dot = lib.render.crystal_to_dot(G, subs)
            to_json, to_dot = to_json + mid - start, to_dot + time.perf_counter() - mid
            rendered, graphs = rendered + len(text) + len(dot), graphs + 1
    metrics["render.crystal_to_json.s"] = (to_json / graphs, "s")
    metrics["render.crystal_to_dot.s"] = (to_dot / graphs, "s")
    metrics["render.bytes"] = (rendered / graphs, "bytes")

    size = TINY_VERIFY_SIZE if state.tiny else VERIFY_SIZE
    theorems = dict(lib.verify.THEOREM_SUITES)
    for name in THEOREM_SUITES:
        metrics[f"verify.{name}.s"] = (
            _timed(name in theorems, lib.verify.run_theorem_suite, name, size), "s")
    for name in CONJECTURE_SUITES:
        metrics[f"verify.{name}.s"] = (
            _timed(name in lib.verify.CONJECTURE_SUITES, lib.verify.run_conjecture_suite, name, size), "s")
    return metrics


def _median_ms(durations):
    return sorted(durations)[len(durations) // 2] * 1e3 if durations else None
