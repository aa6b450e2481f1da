"""Self-check: every workload at a tiny size emits every metric with its unit.

    python3 qbench/selfcheck.py

Runs run.py --tiny on each workload with tracing off and once with tracing
on, and checks that the last line is the JSON result with every metric of
BENCHMARK.json under its declared unit, that the required names below are
all declared, that no output check failed, and that the human-readable
report carries failed_frac and the requests digest. Finally it copies only
BENCHMARK.json and qbench/ into qbench/out/bare/, where run.py must exit
non-zero without a result because there is no program to measure.
Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("crystal", "skeleton", "basis", "cli")

END_TO_END = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
SUITES = ("parsing", "refinement-order", "crystal", "decomposition", "counting", "kostka",
          "rsk", "jdt", "evacuation", "skeleton", "dual-equivalence-involutions",
          "monomials", "schurify", "reordering", "skeleton-strata",
          "dual-equivalence-containment")
SUBCOMMANDS = ("count", "rsk", "evac", "crystal", "decompose", "skeleton",
               "dual-equivalence", "schurify", "check", "error")
PER_LAYER = {
    "tableaux.descent_composition.us": "us", "tableaux.enumerate_ssyt.s": "s",
    "tableaux.syt_descent_compositions.s": "s",
    "crystal.generate_crystal.s": "s", "crystal.f_tableau.us": "us", "crystal.f_word.us": "us",
    "crystal.vertices": "count", "crystal.edges": "count", "crystal.operator_attempts": "count",
    "crystal.edge_yield": "ratio", "crystal.gen_over_enum": "ratio",
    "decomposition.decompose.s": "s", "decomposition.classes": "count",
    "decomposition.vertices_per_s": "1/s",
    "skeleton.skeleton_stable.s": "s", "skeleton.build_skeleton.s": "s", "skeleton.self.s": "s",
    "skeleton.dual_equivalence_graph.s": "s", "skeleton.check_skeleton_strata.s": "s",
    "skeleton.check_dual_equivalence_conjecture.s": "s",
    "symfunc.schur_expansion_to_f.s": "s", "symfunc.schurify.s": "s",
    "symfunc.parse_f_expansion.s": "s", "symfunc.format_f_expansion.s": "s",
    "symfunc.f_terms": "count", "symfunc.schur_terms": "count",
    "symfunc.schur_to_f_cache.hit_ratio": "ratio",
    "rsk.rsk.us": "us", "rsk.evacuate.us": "us",
    "render.crystal_to_json.s": "s", "render.crystal_to_dot.s": "s", "render.bytes": "bytes",
    "cli.process_start.s": "s", "cli.stdout_bytes": "bytes",
    **{f"verify.{s}.s": "s" for s in SUITES},
    **{f"cli.{c}.ms": "ms" for c in SUBCOMMANDS},
    **{f"trace.{w}.traced_over_untraced_rps": "ratio" for w in WORKLOADS},
}


def run(args, cwd):
    proc = subprocess.run([sys.executable, "qbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(label, stdout, declared, problems):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}, "
                        f"units {[n for n in got if n in declared and got[n] != declared[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{label}: {name} is {m['value']!r}, not a number")
    if not any("failed_frac" in line for line in lines):
        problems.append(f"{label}: no failed_frac line in the report")
    if not any("digest" in line for line in lines):
        problems.append(f"{label}: no requests digest in the report")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for required, declared, kind in ((END_TO_END, end_to_end, "end_to_end"),
                                     (PER_LAYER, per_layer, "per_layer")):
        for name, unit in required.items():
            if declared.get(name) != unit:
                problems.append(f"BENCHMARK.json {kind} lacks {name} [{unit}]")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the workloads checked here")

    runs = [(w, "0") for w in WORKLOADS] + [("crystal", "1")]
    for workload, trace in runs:
        label, before = f"{workload} --trace {trace}", len(problems)
        code, out, err = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", trace, "--tiny"], ROOT)
        if code != 0:
            problems.append(f"{label}: exit {code}: {err.strip()[-400:]}")
            continue
        check_result(label, out, per_layer if trace == "1" else end_to_end, problems)
        print(f"{label}: {'ok' if len(problems) == before else 'PROBLEMS'}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "qbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out, _ = run(["--workload", "crystal", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        problems.append(f"without src/ the benchmark exited {code} and printed {out.strip()[:200]!r}")

    for p in problems:
        print("PROBLEM", p)
    print("selfcheck:", "PASS" if not problems else f"FAIL ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
