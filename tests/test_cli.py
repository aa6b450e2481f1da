import hashlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qcrystals import cli
from qcrystals.cli import main
from qcrystals.crystal import generate_crystal, word_crystal_component
from qcrystals.decomposition import decompose
from qcrystals.errors import InternalError, NotSymmetric
from qcrystals.render import (
    composition_color, crystal_to_dot, crystal_to_json,
    skeleton_to_dot, tableau_from_json, tableau_to_json,
)
from qcrystals.skeleton import skeleton_stable

SRC = Path(__file__).resolve().parents[1] / "src"

NODE_RE = re.compile(r'^\s*(\w+)\s*\[label="(.*)"(?:, style=filled, '
                     r'fillcolor="(#[0-9a-f]{6})")?\];$')
EDGE_RE = re.compile(r"^\s*(\w+)\s*(->|--)\s*(\w+)\s*\[label=(\d+)\];$")


def parse_dot(text: str):
    """Tiny validator for the DOT subset this package emits."""
    lines = text.strip().splitlines()
    assert re.match(r"^(di)?graph \w+ \{$", lines[0])
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        if line.strip().startswith("rankdir"):
            continue
        node = NODE_RE.match(line)
        edge = EDGE_RE.match(line)
        assert node or edge, f"unparseable DOT line: {line!r}"
        if node:
            nodes[node.group(1)] = node.group(2)
        else:
            assert edge.group(1) in nodes and edge.group(3) in nodes
            edges.append((edge.group(1), edge.group(3), int(edge.group(4))))
    return nodes, edges


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    import sys
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def _suite_lines(err):
    """check's per-suite stderr lines, without their wall times."""
    return [re.sub(r" \(\d+\.\d+s\)$", "", line) for line in err.splitlines()
            if line.startswith(("theorem ", "conjecture "))]


@pytest.fixture
def forked(monkeypatch):
    """The pids this process forks during the test; each must be reaped by its end."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestRender:
    def test_tableau_json_roundtrip(self):
        t = ((1, 1, 2, 3), (2, 2, 3), (3,), (4,))
        assert tableau_from_json(tableau_to_json(t)) == t

    def test_tableau_json_rejects_invalid(self):
        from qcrystals.errors import InvalidParameters
        with pytest.raises(InvalidParameters):
            tableau_from_json("[[2,1]]")

    @pytest.mark.parametrize("G", [
        generate_crystal((2, 1), 3),
        word_crystal_component((2, 1, 3), 3),
        word_crystal_component((), 3),
    ], ids=["tableau", "word", "empty-word"])
    def test_crystal_json_encodes_the_graph(self, G):
        rows = [[list(row) for row in v] for v in G.vertices] \
            if G.kind == "tableau" else [list(v) for v in G.vertices]
        assert json.loads(crystal_to_json(G)) == {
            "vertices": rows,
            "edges": [list(edge) for edge in G.edges],
            "source": G.source,
            "max_entry": G.max_entry,
        }

    @pytest.mark.parametrize("w, n", [((2, 1, 3), 3), ((1, 1, 2, 3, 1), 4), ((4, 4), 5)])
    def test_word_crystal_json_is_the_list_copied_payload(self, w, n):
        G = word_crystal_component(w, n)
        assert crystal_to_json(G) == json.dumps({
            "vertices": [list(v) for v in G.vertices],
            "edges": [[u, v, i] for u, v, i in G.edges],
            "source": G.source,
            "max_entry": G.max_entry,
        })

    def test_crystal_dot_parses(self):
        G = generate_crystal((2, 1), 3)
        nodes, edges = parse_dot(crystal_to_dot(G))
        assert len(nodes) == len(G.vertices)
        assert len(edges) == len(G.edges)

    def test_decomposed_dot_colors_pair_reversed_types(self):
        G = generate_crystal((4, 3), 4)
        subs = decompose(G)
        colors = {sub.alpha: composition_color(sub.alpha) for sub in subs}
        assert colors[(2, 2, 3)] == colors[(3, 2, 2)]
        assert colors[(4, 3)] == colors[(3, 4)]
        assert colors[(4, 3)] != colors[(2, 3, 2)]
        parse_dot(crystal_to_dot(G, subs))

    def test_skeleton_dot_parses(self):
        skel = skeleton_stable((3, 2))
        nodes, edges = parse_dot(skeleton_to_dot(skel))
        assert len(nodes) == len(skel.vertices)
        assert len(edges) == len(skel.edges)


class TestCli:
    def test_count_ssyt(self):
        code, out, _ = run_cli(["count", "ssyt", "--shape", "4,3", "--max-entry", "7"])
        assert code == 0 and out.strip() == "4704"

    def test_crystal_json_vertex_count(self):
        code, out, _ = run_cli(["crystal", "--shape", "4,3", "--max-entry", "4",
                                "--format", "json"])
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 140

    def test_crystal_trivial(self):
        code, out, _ = run_cli(["crystal", "--shape", "1", "--max-entry", "1"])
        assert code == 0 and out.strip() == "1 vertices, 0 edges"

    def test_crystal_dot_validates(self):
        code, out, _ = run_cli(["crystal", "--shape", "2,1", "--max-entry", "3",
                                "--format", "dot"])
        assert code == 0
        nodes, edges = parse_dot(out)
        assert len(nodes) == 8

    def test_evac(self):
        code, out, _ = run_cli(["evac", "--tableau", "[[1,1,2,3],[2,2,3],[3],[4]]",
                                "--max-entry", "4"])
        assert code == 0
        assert json.loads(out) == [[1, 2, 2, 3], [2, 3, 4], [3], [4]]

    def test_schurify_stdin(self):
        code, out, _ = run_cli(["schurify", "--input", "-"], stdin_text="F[1]")
        assert code == 0 and out.strip() == "s[1]"

    def test_schurify_fig2(self):
        text = "F[4,3]+F[3,4]+F[3,3,1]+F[2,4,1]+F[3,2,2]+2*F[2,3,2]" \
               "+F[2,2,3]+F[1,4,2]+F[1,3,3]+F[2,2,2,1]+F[1,3,2,1]" \
               "+F[1,2,3,1]+F[1,2,2,2]"
        code, out, _ = run_cli(["schurify", "--input", "-"], stdin_text=text)
        assert code == 0 and out.strip() == "s[4,3]"

    def test_schurify_domain_error_exit_1(self):
        code, _, err = run_cli(["schurify", "--input", "-"], stdin_text="F[1,2]")
        assert code == 1 and "error" in err

    def test_schurify_missing_input_exit_1(self, tmp_path):
        missing = tmp_path / "absent.txt"
        code, out, err = run_cli(["schurify", "--input", str(missing)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: cannot read")

    def test_schurify_non_utf8_input_exit_1(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00F[1]")
        code, out, err = run_cli(["schurify", "--input", str(path)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {path}: ")

    def test_parse_error_exit_2(self):
        code, _, _ = run_cli(["crystal", "--shape", "x,y", "--max-entry", "3"])
        assert code == 2
        code, _, _ = run_cli(["crystal", "--shape", "1,2", "--max-entry", "3"])
        assert code == 2
        for size in ("0", "-1"):
            code, out, err = run_cli(["check", "--max-size", size])
            assert code == 2 and out == "" and "--max-size" in err

    def test_count_bm(self):
        code, out, _ = run_cli(["count", "bm", "--size", "10", "--max-entry", "5"])
        assert code == 0 and out.strip() == "1001"

    def test_count_kostka(self):
        code, out, _ = run_cli(["count", "kostka", "--shape", "2,1",
                                "--weight", "1,1,1"])
        assert code == 0 and out.strip() == "2"

    def test_count_plethysm(self):
        code, out, _ = run_cli(["count", "plethysm-monomials", "--outer", "2",
                                "--inner", "1", "--max-entry", "2"])
        assert code == 0 and out.strip() == "3"

    @pytest.mark.parametrize("argv", [
        ["ssyt", "--shape", "3", "--max-entry", "10**L"],
        ["bm", "--size", "100000", "--max-entry", "5000"],
        ["kostka", "--shape", "2,1", "--weight", "1,1,1"],
        ["plethysm-monomials", "--outer", "3", "--inner", "1", "--max-entry", "10**L"],
    ])
    def test_count_past_the_digit_limit_exit_1(self, argv, monkeypatch):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int's digit limit is switched off")
        # the counts of shape (3,) over 10**k letters have about 3k digits;
        # no kostka number that long is counted in seconds, so that one is faked
        argv = [str(10 ** (limit // 3 + 100)) if a == "10**L" else a for a in argv]
        monkeypatch.setattr(cli, "kostka", lambda shape, mu: 10 ** limit)
        code, out, err = run_cli(["count", *argv])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: cannot write the count: ")

    def test_rsk(self):
        code, out, _ = run_cli(["rsk", "--word", "321"])
        assert code == 0
        assert json.loads(out) == {"P": [[1], [2], [3]], "Q": [[1], [2], [3]]}

    def test_evac_non_integer_entry_is_a_parse_error(self):
        # refused like any other malformed --tableau, not truncated to [[1, 3], [2]]
        code, out, err = run_cli(["evac", "--tableau", "[[1.5,2],[3.2]]"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "qcrystals: error: cannot parse tableau: "
            "expected integers for tableau entries, got [1.5, 2]"]

    def test_rsk_letter_below_one_exit_1(self):
        for word in ("0", "102", "1,-2"):
            code, out, err = run_cli(["rsk", "--word", word])
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("error: ")

    def test_decompose_json(self):
        code, out, _ = run_cli(["decompose", "--shape", "2,1", "--max-entry", "3",
                                "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(tuple(c["type"]) for c in payload["classes"]) == \
            [(1, 2), (2, 1)]

    @pytest.mark.parametrize("sub, digest", [
        ("crystal", "45cd3cfb767fb96244922775000541f1e5a6c8a5f8079e866e7d253f09140b73"),
        ("decompose", "f60b5c49081429e1c1d679327a1485ff9ae3516eb57169734e106a5370105f22"),
    ])
    def test_json_of_shape_421_is_pinned(self, sub, digest):
        # sha256 recorded before crystals were generated on integer-keyed words
        code, out, _ = run_cli([sub, "--shape", "4,2,1", "--max-entry", "5",
                                "--format", "json"])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_skeleton_text(self):
        code, out, _ = run_cli(["skeleton", "--shape", "4,3"])
        assert code == 0 and out.strip().startswith("14 vertices, 32 edges")

    def test_dual_equivalence_dot(self):
        code, out, _ = run_cli(["dual-equivalence", "--shape", "3,2",
                                "--format", "dot"])
        assert code == 0
        parse_dot(out)

    def test_check_small(self):
        code, out, _ = run_cli(["check", "--max-size", "2", "--which", "all"])
        assert code == 0
        assert "theorem parsing: pass" in out
        assert "conjecture reordering: consistent" in out

    def test_check_json_payload(self):
        code, out, _ = run_cli(["check", "--max-size", "2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["parameters"] == {"max_size": 2, "which": "all"}
        assert all(t["passed"] for t in payload["results"]["theorems"])

    def test_decompose_dot_is_colored(self):
        code, out, _ = run_cli(["decompose", "--shape", "2,1", "--max-entry", "3",
                                "--format", "dot"])
        assert code == 0
        nodes, _ = parse_dot(out)
        assert len(nodes) == 8
        assert out.count("fillcolor") == 8

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("which", ["all", "theorems", "conjectures"])
    def test_check_in_workers_matches_in_process(self, monkeypatch, forked, which, json_flag):
        argv = ["check", "--max-size", "3", "--which", which, *json_flag]
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            runs[workers] = run_cli(argv)
        assert len(forked) == 1  # one child, besides this process, at two workers
        (code1, out1, err1), (code2, out2, err2) = runs[1], runs[2]
        assert code1 == code2 == 0
        assert out1 == out2
        assert _suite_lines(err1) == _suite_lines(err2)
        assert len(_suite_lines(err1)) == {"all": 16, "theorems": 13, "conjectures": 3}[which]

    def test_check_has_no_parallel_option(self):
        code, out, err = run_cli(["check", "--max-size", "2", "--parallel"])
        assert code == 2 and out == "" and "--parallel" in err

    def test_deterministic_output(self):
        argv = ["crystal", "--shape", "3,2", "--max-entry", "3", "--format", "dot"]
        assert run_cli(argv)[1] == run_cli(argv)[1]


def _in_child(parent, child_action, parent_delay=0.05):
    """A suite runner that calls child_action(name) in a forked worker; in
    parent, it waits parent_delay, so that the worker claims jobs too, then
    runs the real theorem suite."""
    from qcrystals.verify import run_theorem_suite

    def run(name, size):
        if os.getpid() != parent:
            return child_action(name)
        time.sleep(parent_delay)
        return run_theorem_suite(name, size)
    return run


def _raise(exc):
    raise exc


class TestCheckRunner:
    """cli._run_suites at two workers: failures read as they do in process."""

    def _jobs(self, run):
        from qcrystals import verify
        return [(run, name, 2) for name, _ in verify.THEOREM_SUITES]

    def test_a_failing_suite_gives_the_in_process_error(self, monkeypatch, forked):
        from qcrystals import verify
        broken = dict(verify.THEOREM_SUITES,
                      crystal=lambda max_size: _raise(NotSymmetric("the crystal suite broke")),
                      jdt=lambda: _raise(KeyError("jdt")))
        monkeypatch.setattr(verify, "THEOREM_SUITES", tuple(broken.items()))
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
            runs[workers] = run_cli(["check", "--max-size", "3"])
        assert len(forked) == 1
        (code1, out1, err1), (code2, out2, err2) = runs[1], runs[2]
        assert code1 == code2 == 1 and out1 == out2 == ""
        assert err1.splitlines()[-1] == err2.splitlines()[-1] == "error: the crystal suite broke"
        assert _suite_lines(err1) == _suite_lines(err2) == [
            "theorem parsing/standardization up to size 3: pass",
            "theorem refinement partial order up to size 3: pass"]

    @pytest.mark.parametrize("exc_type", [NotSymmetric, KeyError])
    def test_a_suite_raising_in_a_worker_raises_its_type_here(self, forked, exc_type):
        jobs = self._jobs(_in_child(os.getpid(), lambda name: _raise(exc_type(name))))
        with pytest.raises(exc_type) as caught:
            list(cli._run_suites(jobs, 2))
        assert caught.value.args[0] in [name for _, name, _ in jobs]
        # every job raising, in either process: the first in job order wins
        jobs = self._jobs(lambda name, size: _raise(exc_type(name)))
        with pytest.raises(exc_type) as caught:
            list(cli._run_suites(jobs, 2))
        assert caught.value.args[0] == "parsing"
        assert len(forked) == 2

    @pytest.mark.parametrize("death", [
        lambda name: os._exit(3),
        lambda name: os.kill(os.getpid(), signal.SIGKILL),
        lambda name: lambda: name,  # a result that cannot be pickled
    ], ids=["exit", "sigkill", "unpicklable"])
    def test_a_worker_that_dies_gives_internal_error(self, monkeypatch, forked, death):
        from qcrystals import verify
        monkeypatch.setattr(verify, "run_theorem_suite", _in_child(os.getpid(), death))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        start = time.perf_counter()
        code, out, err = run_cli(["check", "--max-size", "2", "--which", "theorems"])
        assert time.perf_counter() - start < 30
        assert len(forked) == 1
        assert code == 1 and out == ""
        assert "Traceback" not in err
        (error,) = [line for line in err.splitlines() if not line.startswith("theorem ")]
        assert re.fullmatch(r"error: the \S+ suite got no result: its worker process ended first",
                            error)
        with pytest.raises(InternalError):
            list(cli._run_suites(self._jobs(_in_child(os.getpid(), death)), 2))

    def test_an_interrupt_here_kills_the_workers(self, forked):
        def run(name, size):
            if os.getpid() != parent:
                time.sleep(60)
            time.sleep(0.05)
            raise KeyboardInterrupt
        parent = os.getpid()
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            list(cli._run_suites(self._jobs(run), 2))
        assert time.perf_counter() - start < 30
        assert len(forked) == 1


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


# what a subcommand may load, checked in a fresh interpreter for each argv
LOADED_BY = [
    (["count", "ssyt", "--shape", "3,2", "--max-entry", "3"], None),
    (["count", "bm", "--size", "3", "--max-entry", "3"], None),
    (["count", "kostka", "--shape", "3,2", "--weight", "2,2,1"], None),
    (["count", "plethysm-monomials", "--outer", "2", "--inner", "2", "--max-entry", "2"],
     None),
    (["rsk", "--word", "312"], None),
    (["evac", "--tableau", "[[1,2,4],[3]]"], None),
    (["crystal", "--shape", "2,1", "--max-entry", "3", "--format", "json"], None),
    (["crystal", "--shape", "2,1", "--max-entry", "3", "--format", "dot", "--decompose"],
     None),
    (["decompose", "--shape", "2,1", "--max-entry", "3", "--format", "json"], None),
    (["skeleton", "--shape", "2,1"], None),
    (["dual-equivalence", "--shape", "2,1"], None),
    (["schurify", "--input", "-"], "F[2]\n"),
    (["check", "--max-size", "2"], None),
    (["check", "--max-size", "2", "--which", "conjectures"], None),
]


@pytest.mark.parametrize("argv, stdin", LOADED_BY, ids=[" ".join(a) for a, _ in LOADED_BY])
def test_each_subcommand_loads_only_what_it_runs(argv, stdin):
    code = ("import json, sys, qcrystals.cli as c; assert c.main(sys.argv[1:]) == 0; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    command = argv[0]
    assert ("qcrystals.verify" in loaded) == (command == "check")
    if command not in ("skeleton", "dual-equivalence", "check"):
        assert "qcrystals.skeleton" not in loaded
    if argv[:2] in (["count", "bm"], ["count", "ssyt"]) or command == "rsk":
        assert not loaded & {"qcrystals.render", "qcrystals.symfunc"}
    if command == "count":
        # the counts live in tableaux
        assert not loaded & {"qcrystals.crystal", "qcrystals.decomposition"}
    if command == "crystal" and "json" in argv:
        assert "hashlib" not in loaded
    if command == "schurify":
        assert not loaded & {"qcrystals.crystal", "qcrystals.decomposition"}
    # check forks its workers itself: no command loads a process pool
    assert not loaded & {"concurrent.futures", "multiprocessing"}


def test_a_reader_that_closes_early_gets_no_traceback():
    argv = ["crystal", "--shape", "4,2,1", "--max-entry", "7", "--format", "json"]
    with subprocess.Popen([sys.executable, "-m", "qcrystals.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env()) as proc:
        # the output is far longer than a pipe buffer, so the writer is
        # still writing when the reader closes
        assert proc.stdout.read(20) == b'{"vertices": [[[1, 1'
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


def _bounded_child():
    # at most 512 MB of address space, so a missed guard fails instead of
    # filling the machine's memory
    limit = 512 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_bounded_child(argv):
    return subprocess.run([sys.executable, "-m", "qcrystals.cli", *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=60,
                          preexec_fn=_bounded_child)


class TestSizeGuard:
    @pytest.mark.parametrize("argv", [
        ["crystal", "--shape", "6,5,4", "--max-entry", "12"],
        ["decompose", "--shape", "6,5,4", "--max-entry", "12", "--format", "json"],
        # 1,662,804 standard tableaux, 1,629,420 of them with at most 11 descents
        ["skeleton", "--shape", "5,5,5,5"],
        ["skeleton", "--shape", "5,5,5,5", "--max-entry", "12"],
        # 55,099,278 standard tableaux: the bound S must not list them
        ["skeleton", "--shape", "8,6,4,2"],
        # it lists all 1,662,804 standard tableaux of the shape
        ["dual-equivalence", "--shape", "5,5,5,5"],
    ], ids=["crystal", "decompose", "skeleton", "skeleton-max-entry",
            "skeleton-many-standard-tableaux", "dual-equivalence"])
    def test_huge_crystal_is_refused_before_building(self, argv):
        proc = _run_bounded_child(argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "more than the limit of 1000000" in lines[0]

    def test_limit_is_inclusive(self, monkeypatch):
        # the crystal of shape 3,2 over 1..3 has 15 vertices
        argv = ["crystal", "--shape", "3,2", "--max-entry", "3"]
        monkeypatch.setattr(cli, "MAX_VERTICES", 15)
        assert run_cli(argv)[:2] == (0, "15 vertices, 18 edges\n")
        monkeypatch.setattr(cli, "MAX_VERTICES", 14)
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == ("error: the crystal of shape 3,2 with entries <= 3 has 15 "
                       "vertices, more than the limit of 14\n")

    def test_standard_tableau_listings_are_limited_inclusively(self, monkeypatch):
        # 3,2 has 5 standard tableaux
        dual = ["dual-equivalence", "--shape", "3,2"]
        monkeypatch.setattr(cli, "MAX_VERTICES", 5)
        assert run_cli(dual)[:2] == (0, "5 vertices, 6 labelled edges\n")
        monkeypatch.setattr(cli, "MAX_VERTICES", 4)
        assert run_cli(dual) == (1, "", "error: the dual equivalence graph of shape 3,2 "
                                 "has 5 vertices, more than the limit of 4\n")

    def test_skeleton_guard_counts_standard_tableaux(self, monkeypatch):
        # 3,2,1 has 16 standard tableaux, 8 with 2 descents and 8 with 3; its
        # crystal at the bound S = 4 has 64 tableaux
        monkeypatch.setattr(cli, "MAX_VERTICES", 16)
        assert run_cli(["skeleton", "--shape", "3,2,1"])[:2] == (
            0, "16 vertices, 26 edges, stable bound 4\n")
        assert run_cli(["skeleton", "--shape", "3,2,1", "--max-entry", "9"])[0] == 0
        monkeypatch.setattr(cli, "MAX_VERTICES", 15)
        code, out, err = run_cli(["skeleton", "--shape", "3,2,1"])
        assert (code, out) == (1, "")
        assert err == ("error: the skeleton of shape 3,2,1 has 16 vertices, "
                       "more than the limit of 15\n")
        monkeypatch.setattr(cli, "MAX_VERTICES", 8)
        assert run_cli(["skeleton", "--shape", "3,2,1", "--max-entry", "3"])[:2] == (
            0, "8 vertices, 8 edges, stable bound 4\n")
        monkeypatch.setattr(cli, "MAX_VERTICES", 7)
        code, _, err = run_cli(["skeleton", "--shape", "3,2,1", "--max-entry", "3"])
        assert code == 1
        assert err == ("error: the skeleton of shape 3,2,1 with entries <= 3 has 8 "
                       "vertices, more than the limit of 7\n")

    @pytest.mark.parametrize("argv, stdout", [
        (["skeleton", "--shape", "1200", "--format", "text"],
         "1 vertices, 0 edges, stable bound 1\n"),
        (["dual-equivalence", "--shape", "1200"], "1 vertices, 0 labelled edges\n"),
    ], ids=["skeleton", "dual-equivalence"])
    def test_a_row_of_1200_cells_is_built(self, argv, stdout):
        # a fill that recursed once per cell passed the interpreter's depth limit
        proc = _run_bounded_child(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    @pytest.mark.parametrize("command", ["skeleton", "dual-equivalence"])
    def test_long_tableaux_are_refused_by_their_cells(self, command):
        # 1198,2 has 718,200 standard tableaux, under the vertex limit, but
        # of 1,200 cells each
        start = time.perf_counter()
        proc = _run_bounded_child([command, "--shape", "1198,2"])
        assert time.perf_counter() - start < 5.0
        assert (proc.returncode, proc.stdout) == (1, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith("has 718200 vertices of 1200 cells, 861840000 cells in all, "
                                 "more than the limit of 16000000")

    def test_cell_limit_is_inclusive(self, monkeypatch):
        # 3,2,1 has 16 standard tableaux of 6 cells, 8 of them with 2 descents
        monkeypatch.setattr(cli, "MAX_CELLS", 96)
        assert run_cli(["skeleton", "--shape", "3,2,1"])[:2] == (
            0, "16 vertices, 26 edges, stable bound 4\n")
        assert run_cli(["dual-equivalence", "--shape", "3,2,1"])[0] == 0
        monkeypatch.setattr(cli, "MAX_CELLS", 95)
        assert run_cli(["dual-equivalence", "--shape", "3,2,1"]) == (
            1, "", "error: the dual equivalence graph of shape 3,2,1 has 16 vertices of 6 "
            "cells, 96 cells in all, more than the limit of 95\n")
        monkeypatch.setattr(cli, "MAX_CELLS", 47)
        assert run_cli(["skeleton", "--shape", "3,2,1", "--max-entry", "3"])[0] == 1
        monkeypatch.setattr(cli, "MAX_CELLS", 48)
        assert run_cli(["skeleton", "--shape", "3,2,1", "--max-entry", "3"])[:2] == (
            0, "8 vertices, 8 edges, stable bound 4\n")

    @pytest.mark.parametrize("argv, stdout", [
        (["count", "ssyt", "--shape", "5,5,5,5", "--max-entry", "4"], "1\n"),
        (["skeleton", "--shape", "5,5,5,5", "--max-entry", "4"],
         "1 vertices, 0 edges, stable bound 16\n"),
        (["skeleton", "--shape", "4,4,3,1"], "2970 vertices, 12158 edges, stable bound 9\n"),
    ], ids=["count-ssyt", "skeleton-max-entry", "skeleton-stable"])
    def test_many_standard_tableaux_need_not_be_listed(self, argv, stdout):
        # 5,5,5,5 has 1,662,804 standard tableaux and one tableau with entries
        # <= 4; the crystal of 4,4,3,1 at its bound 9 has 1,764,180 vertices
        proc = _run_bounded_child(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    @pytest.mark.parametrize("shape, weight, stdout", [
        ("5,5,5,5", "5,5,5,5", "1\n"),
        ("8,6,4,2", ",".join(["1"] * 20), "55099278\n"),
    ], ids=["highest-weight", "standard-weight"])
    def test_count_kostka_needs_no_guard(self, shape, weight, stdout):
        # 5,5,5,5 has 1,662,804 standard tableaux and 8,6,4,2 has 55,099,278:
        # kostka counts them by corner removal, without listing one
        proc = _run_bounded_child(["count", "kostka", "--shape", shape, "--weight", weight])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")
