"""Re-measure the single-call baseline rows of the ROADMAP's benchmark item.

    python3 qbench/roadmap_rows.py

Each row is one library call (or one CLI process) timed as the minimum of
k runs; a row marked cold runs in a fresh import, so its tableau caches
start empty. Prints one line per row and a JSON object at the end.
skeleton_stable((4,3,2,1)) (about 55 s) and skeleton_suite(9) (about
138 s) are too long to repeat and are left out.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from qbench import harness  # noqa: E402
from qbench.workloads.cli import spawn  # noqa: E402


def min_of(k, fn, cold=False):
    best = None
    for _ in range(k):
        lib = harness.import_fresh() if cold else None
        start = time.perf_counter()
        fn(lib)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def rows():
    lib = harness.import_fresh()
    G = lib.crystal.generate_crystal((4, 2, 1), 7)
    degree12 = lib.symfunc.SchurExpansion({s: 1 for s in lib.tableaux.partitions_of(12)})
    lib.symfunc.schur_expansion_to_f(degree12)  # fill the caches for the warm rows
    f12 = lib.symfunc.schur_expansion_to_f(degree12)
    yield "enumerate_ssyt((4,2,1), 7)", 5, min_of(5, lambda _: lib.tableaux.enumerate_ssyt((4, 2, 1), 7))
    yield "generate_crystal((4,2,1), 7)", 3, min_of(3, lambda _: lib.crystal.generate_crystal((4, 2, 1), 7))
    yield "decompose(generate_crystal((4,2,1), 7))", 3, min_of(3, lambda _: lib.decomposition.decompose(G))
    yield "schur_expansion_to_f(sum s_lambda, |lambda|=12), warm", 3, \
        min_of(3, lambda _: lib.symfunc.schur_expansion_to_f(degree12))
    yield "schurify of that expansion", 3, min_of(3, lambda _: lib.symfunc.schurify(f12))
    yield "schur_expansion_to_f(sum s_lambda, |lambda|=12), cold", 1, min_of(
        1, lambda c: c.symfunc.schur_expansion_to_f(
            c.symfunc.SchurExpansion({s: 1 for s in c.tableaux.partitions_of(12)})), cold=True)
    yield "skeleton_stable((4,3,2))", 2, min_of(2, lambda _: lib.skeleton.skeleton_stable((4, 3, 2)))
    yield "skeleton_stable((3,3,2,1))", 1, min_of(1, lambda _: lib.skeleton.skeleton_stable((3, 3, 2, 1)))
    yield "verify.skeleton_suite(8)", 1, min_of(1, lambda _: lib.verify.skeleton_suite(8))
    yield "conjecture skeleton-strata, size 8", 1, \
        min_of(1, lambda _: lib.verify.run_conjecture_suite("skeleton-strata", 8))
    yield "conjecture dual-equivalence-containment, size 8", 1, \
        min_of(1, lambda _: lib.verify.run_conjecture_suite("dual-equivalence-containment", 8))
    yield "CLI: qcrystals check --max-size 7", 1, \
        min_of(1, lambda _: spawn(["-m", "qcrystals.cli", "check", "--max-size", "7"]))
    yield "CLI: qcrystals skeleton --shape 4,3,2", 2, \
        min_of(2, lambda _: spawn(["-m", "qcrystals.cli", "skeleton", "--shape", "4,3,2"]))


def main():
    if not harness.program_present():
        print(f"error: {harness.SRC / 'qcrystals'} is missing", file=sys.stderr)
        return 2
    out = {}
    for name, k, seconds in rows():
        print(f"{name:58s} min of {k}: {seconds:9.4f} s", flush=True)
        out[name] = seconds
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
