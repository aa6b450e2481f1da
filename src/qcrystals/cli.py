"""Command-line interface.

Subcommands: crystal, decompose, skeleton, dual-equivalence, schurify,
count {ssyt,bm,kostka,plethysm-monomials}, check, evac, rsk.

Exit codes: 0 success, 1 domain error or a reader that closed standard
output early, 2 usage or parse error. Standard output is byte-identical
across identical invocations; wall times go to stderr. crystal and
decompose refuse, with exit 1, a crystal of more than MAX_VERTICES
tableaux before building it, counted by the hook-content formula; skeleton
refuses a skeleton of more than MAX_VERTICES standard tableaux, counted by
the hook-length formula or, under --max-entry n, as the standard tableaux
with at most n-1 descents in the descent census. dual-equivalence lists
every standard tableau of the shape, so it refuses a shape with more than
MAX_VERTICES of them. Both also refuse a listing of more than MAX_CELLS
cells, its tableaux times the cells of the shape, as a long shape makes
each tableau large. No guard count, and no count subcommand, lists a
tableau; count exits 1 for an answer longer than int's digit limit for text.

check runs its suites in forked workers, one per usable CPU and at most
one per suite, this process among them; with one usable CPU, or no
os.fork, it runs them in process. Its output is the same either way.

Each subcommand imports only the modules it runs: count, rsk and evac
load no crystal code, and no subcommand but check loads verify.
"""

import argparse
import json
import os
import sys

from .errors import InternalError, InvalidParameters, QCrystalsError
from .tableaux import (
    check_partition, count_bm, count_ssyt_formula, descent_count_census,
    hook_content_count, hook_length_count, kostka,
)

# most vertices a command builds
MAX_VERTICES = 1_000_000
# most cells in the standard tableaux that skeleton and dual-equivalence
# list: every shape of at most 16 cells that MAX_VERTICES accepts
MAX_CELLS = 16_000_000


def _parse_ints(text: str, parser: argparse.ArgumentParser, what: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        parser.error(f"cannot parse {what} {text!r}: expected comma-separated integers")


def _parse_shape(text, parser):
    parts = _parse_ints(text, parser, "shape")
    try:
        return check_partition(parts)
    except QCrystalsError as exc:
        parser.error(str(exc))


def _parse_word(text, parser):
    if "," in text:
        return _parse_ints(text, parser, "word")
    if not text.isdigit():
        parser.error(f"cannot parse word {text!r}: expected digits or comma-separated integers")
    return tuple(int(ch) for ch in text)


def _parse_tableau(text, parser):
    from .render import tableau_from_json
    try:
        return tableau_from_json(text)
    except (QCrystalsError, json.JSONDecodeError) as exc:
        parser.error(f"cannot parse tableau: {exc}")


def _check_size(count, what):
    if count > MAX_VERTICES:
        raise InvalidParameters(
            f"{what} has {count} vertices, more than the limit of {MAX_VERTICES}")


def _check_listing(count, shape, what):
    """_check_size of count standard tableaux of the shape, then their cells
    against MAX_CELLS."""
    _check_size(count, what)
    cells = count * sum(shape)
    if cells > MAX_CELLS:
        raise InvalidParameters(
            f"{what} has {count} vertices of {sum(shape)} cells, {cells} cells in all, "
            f"more than the limit of {MAX_CELLS}")


def _check_crystal_size(shape, n):
    _check_size(hook_content_count(shape, n),
                f"the crystal of shape {','.join(map(str, shape))} with entries <= {n}")


def _emit_crystal(G, fmt, subs=None):
    from .render import crystal_to_dot, crystal_to_json, tableau_to_json
    if fmt == "dot":
        sys.stdout.write(crystal_to_dot(G, subs))
    elif fmt == "json":
        print(crystal_to_json(G))
    else:
        print(f"{len(G.words)} vertices, {len(G.edges)} edges")
        if subs is not None:
            for sub in subs:
                print(f"  class {','.join(map(str, sub.alpha))}: "
                      f"{sub.size} vertices, source {tableau_to_json(sub.source)}")


def cmd_crystal(args, parser):
    from .crystal import generate_crystal
    shape = _parse_shape(args.shape, parser)
    _check_crystal_size(shape, args.max_entry)
    G = generate_crystal(shape, args.max_entry)
    subs = None
    if args.decompose:
        from .decomposition import decompose
        subs = decompose(G)
    _emit_crystal(G, args.format, subs)
    return 0


def cmd_decompose(args, parser):
    from .crystal import generate_crystal
    from .decomposition import decompose
    shape = _parse_shape(args.shape, parser)
    _check_crystal_size(shape, args.max_entry)
    G = generate_crystal(shape, args.max_entry)
    subs = decompose(G)
    if args.format == "json":
        payload = {
            "shape": shape,
            "max_entry": args.max_entry,
            "classes": [{
                "type": sub.alpha,
                "size": sub.size,
                "source": sub.source,
                "vertices": sorted(sub.vertex_indices),
            } for sub in subs],
        }
        print(json.dumps(payload))
    else:
        _emit_crystal(G, args.format, subs)
    return 0


def cmd_skeleton(args, parser):
    from .render import skeleton_to_dot, skeleton_to_json
    from .skeleton import build_skeleton, skeleton_stable
    shape = _parse_shape(args.shape, parser)
    what = f"the skeleton of shape {','.join(map(str, shape))}"
    if args.max_entry is None:
        _check_listing(hook_length_count(shape), shape, what)
        skel = skeleton_stable(shape)
    else:
        # its vertices: the standard tableaux with at most max_entry - 1 descents
        _check_listing(sum(count for d, count in descent_count_census(shape).items()
                           if d < args.max_entry),
                       shape, f"{what} with entries <= {args.max_entry}")
        skel = build_skeleton(shape, args.max_entry)
    if args.format == "dot":
        sys.stdout.write(skeleton_to_dot(skel))
    elif args.format == "json":
        print(skeleton_to_json(skel))
    else:
        print(f"{len(skel.vertices)} vertices, {len(skel.edges)} edges, "
              f"stable bound {skel.stable_bound}")
    return 0


def cmd_dual_equivalence(args, parser):
    from .render import dual_equivalence_to_dot, dual_equivalence_to_json
    from .skeleton import dual_equivalence_graph
    shape = _parse_shape(args.shape, parser)
    _check_listing(hook_length_count(shape), shape,
                   f"the dual equivalence graph of shape {','.join(map(str, shape))}")
    g = dual_equivalence_graph(shape)
    if args.format == "dot":
        sys.stdout.write(dual_equivalence_to_dot(g))
    elif args.format == "json":
        print(dual_equivalence_to_json(g))
    else:
        print(f"{len(g.vertices)} vertices, {len(g.edges)} labelled edges")
    return 0


def cmd_schurify(args, parser):
    from .symfunc import format_schur_expansion, parse_f_expansion, schurify
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InvalidParameters(f"cannot read {args.input}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise InvalidParameters(f"cannot read {args.input}: {exc}") from None
    expansion = parse_f_expansion(text)
    print(format_schur_expansion(schurify(expansion)))
    return 0


def cmd_count(args, parser):
    if args.what == "ssyt":
        count = count_ssyt_formula(_parse_shape(args.shape, parser), args.max_entry)
    elif args.what == "bm":
        count = count_bm(args.size, args.max_entry)
    elif args.what == "kostka":
        shape = _parse_shape(args.shape, parser)
        count = kostka(shape, _parse_ints(args.weight, parser, "weight"))
    else:  # plethysm-monomials
        from .symfunc import plethysm_monomial_count
        outer = _parse_shape(args.outer, parser)
        inner = _parse_shape(args.inner, parser)
        count = plethysm_monomial_count(outer, inner, args.max_entry)
    try:
        text = str(count)
    except ValueError as exc:  # a count longer than int's digit limit
        raise InvalidParameters(f"cannot write the count: {exc}") from None
    print(text)
    return 0


def cmd_evac(args, parser):
    from .render import tableau_to_json
    from .rsk import evacuate
    print(tableau_to_json(evacuate(_parse_tableau(args.tableau, parser), args.max_entry)))
    return 0


def cmd_rsk(args, parser):
    from .rsk import rsk
    w = _parse_word(args.word, parser)
    pair = rsk(w)
    print(json.dumps({"P": pair.P, "Q": pair.Q}))
    return 0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _claimed(jobs, claims):
    """(index, result or exception) of each job this process claims: it reads
    the next job index, one byte, from the claims pipe until that is empty."""
    while claim := os.read(claims, 1):
        run, name, size = jobs[claim[0]]
        try:
            yield claim[0], run(name, size)
        except Exception as exc:
            yield claim[0], exc


def _forked_outcomes(jobs, workers):
    """{index: result or exception} of the jobs run by this process and
    workers - 1 forked children; a child's results come over its own pipe."""
    import pickle
    import signal
    claims, claims_in = os.pipe()
    os.write(claims_in, bytes(range(len(jobs))))
    os.close(claims_in)
    sys.stdout.flush()  # so that no child holds a copy of pending output
    sys.stderr.flush()
    children = {}  # pid: read end of its result pipe
    try:
        for _ in range(workers - 1):
            results, results_in = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(results)
                    with open(results_in, "wb") as out:
                        for record in _claimed(jobs, claims):
                            pickle.dump(record, out)
                            out.flush()
                finally:  # the child's only way out, whatever happened
                    os._exit(0)
            os.close(results_in)
            children[pid] = results
        outcomes = dict(_claimed(jobs, claims))
        for results in children.values():
            with open(results, "rb", closefd=False) as stream:
                while True:
                    try:
                        outcomes.update([pickle.load(stream)])
                    except Exception:  # the end, or a record cut short
                        break
        return outcomes
    finally:
        os.close(claims)
        for pid, results in children.items():
            os.close(results)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_suites(jobs, workers):
    """Yield each job's result in job order; a job is (run, suite name, size)
    and its result is run(name, size).

    With one worker, or no os.fork, the jobs run here in turn. Otherwise
    this process and workers - 1 forked children each claim the next job
    from a shared pipe, so a long suite holds up no queue; the results are
    yielded once every job is done. A job that raised raises here, the
    first in job order first; a job whose worker died, or could not pickle
    its result, raises InternalError. No child outlives this call.
    """
    if workers < 2 or not hasattr(os, "fork"):
        for run, name, size in jobs:
            yield run(name, size)
        return
    outcomes = _forked_outcomes(jobs, workers)
    for index, (_, name, _) in enumerate(jobs):
        if index not in outcomes:
            raise InternalError(f"the {name} suite got no result: its worker process ended first")
        if isinstance(outcomes[index], Exception):
            raise outcomes[index]
        yield outcomes[index]


def cmd_check(args, parser):
    if args.max_size < 1:
        parser.error(f"--max-size must be >= 1, got {args.max_size}")
    from . import verify
    which = args.which
    results = {"theorems": [], "conjectures": []}
    theorems = [name for name, _ in verify.THEOREM_SUITES] \
        if which in ("theorems", "all") else []
    conjectures = list(verify.CONJECTURE_SUITES) if which in ("conjectures", "all") else []
    jobs = [(verify.run_theorem_suite, name, args.max_size) for name in theorems] \
        + [(verify.run_conjecture_suite, name, args.max_size) for name in conjectures]
    # one iterator for both loops: zip stops at the end of the names first
    outcomes = _run_suites(jobs, min(_usable_cpus(), len(jobs)))

    all_ok = True
    for name, report in zip(theorems, outcomes):
        results["theorems"].append({
            "suite": name, "name": report.name, "passed": report.passed,
            "details": _jsonable(report.details),
        })
        all_ok = all_ok and report.passed
        print(f"theorem {report.summary()}", file=sys.stderr)
    for name, reports in zip(conjectures, outcomes):
        entries = [{"name": r.name, "passed": r.passed, "details": _jsonable(r.details)}
                   for r in reports]
        consistent = all(r.passed for r in reports)
        results["conjectures"].append({
            "suite": name, "consistent": consistent, "reports": entries,
        })
        print(f"conjecture {name}: "
              f"{'consistent' if consistent else 'VIOLATION FOUND'}", file=sys.stderr)

    if args.json:
        payload = {
            "command": "check",
            "parameters": {"max_size": args.max_size, "which": which},
            "results": results,
        }
        print(json.dumps(payload))
    else:
        for entry in results["theorems"]:
            print(f"theorem {entry['suite']}: {'pass' if entry['passed'] else 'FAIL'}")
        for entry in results["conjectures"]:
            print(f"conjecture {entry['suite']}: "
                  f"{'consistent' if entry['consistent'] else 'VIOLATION FOUND'}")
    return 0 if all_ok else 1


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrystals",
        description="Crystals of tableaux, descent-class decomposition, "
                    "skeletons, and exact basis changes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", help="generate a crystal of tableaux")
    p.add_argument("--shape", required=True, help="partition, e.g. 4,3")
    p.add_argument("--max-entry", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p.add_argument("--decompose", action="store_true",
                   help="color vertices by descent class")
    p.set_defaults(run=cmd_crystal)

    p = sub.add_parser("decompose", help="decompose a crystal into descent classes")
    p.add_argument("--shape", required=True)
    p.add_argument("--max-entry", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("skeleton", help="skeleton of a crystal")
    p.add_argument("--shape", required=True)
    p.add_argument("--max-entry", type=int, default=None,
                   help="alphabet bound; defaults to the stable bound")
    p.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p.set_defaults(run=cmd_skeleton)

    p = sub.add_parser("dual-equivalence", help="dual equivalence graph")
    p.add_argument("--shape", required=True)
    p.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p.set_defaults(run=cmd_dual_equivalence)

    p = sub.add_parser("schurify", help="rewrite an F-expansion in the Schur basis")
    p.add_argument("--input", required=True, help="file path or - for stdin")
    p.set_defaults(run=cmd_schurify)

    p = sub.add_parser("count", help="exact counts")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("ssyt")
    q.add_argument("--shape", required=True)
    q.add_argument("--max-entry", type=int, required=True)
    q = what.add_parser("bm")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--max-entry", type=int, required=True)
    q = what.add_parser("kostka")
    q.add_argument("--shape", required=True)
    q.add_argument("--weight", required=True)
    q = what.add_parser("plethysm-monomials")
    q.add_argument("--outer", required=True)
    q.add_argument("--inner", required=True)
    q.add_argument("--max-entry", type=int, required=True)
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--which", choices=("theorems", "conjectures", "all"),
                   default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("evac", help="evacuation of a tableau")
    p.add_argument("--tableau", required=True, help="JSON array of rows")
    p.add_argument("--max-entry", type=int, default=None)
    p.set_defaults(run=cmd_evac)

    p = sub.add_parser("rsk", help="insertion and recording tableaux of a word")
    p.add_argument("--word", required=True,
                   help="digits, or comma-separated letters")
    p.set_defaults(run=cmd_rsk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args, parser)
        sys.stdout.flush()
        return code
    except QCrystalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed early: point stdout at devnull, so that the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
