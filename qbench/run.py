"""qcrystals benchmark: one closed-loop client per run, inputs from a seed.

    python3 qbench/run.py --workload crystal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the run reports the end-to-end metrics of one workload.
With --trace 1 it runs every workload (the named one first) twice on the
same rounds, once untraced and once with spans around each call into the
library, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line is the JSON result.
--tiny shrinks every input for a quick self-check (see selfcheck.py).
"""

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from qbench import harness  # noqa: E402
from qbench.workloads import basis, cli, crystal, skeleton  # noqa: E402

WORKLOADS = {"crystal": crystal, "skeleton": skeleton, "basis": basis, "cli": cli}
TRACE_SHARE = 8  # each traced workload gets seconds / TRACE_SHARE untraced, then the same rounds traced


def _failures_report(name, attempted, failures):
    failed = len(failures)
    harness.report_line(name, "failed_frac", failed / attempted, "ratio",
                        f"  ({failed} of {attempted})")
    seen = set()
    for req, reason in failures:
        key = (repr(req), reason)
        if key not in seen and len(seen) < 20:
            seen.add(key)
            print(f"FAILED {name}: {reason} <- {req}")


def timed_run(name, seed, seconds, tiny):
    wl = WORKLOADS[name]
    state, setup_s = harness.setup(wl, seed, tiny)
    print(f"{name}: seed {seed}, requests digest {harness.digest(state.rounds)}, "
          f"{len(state.rounds)} rounds of {len(state.rounds[0])} requests")
    min_requests = 5 if tiny else harness.MIN_REQUESTS
    group = wl.GROUP
    loop = harness.closed_loop(wl, state, harness.NullTracer(), seconds, min_requests, group)
    rss = harness.peak_rss_mb(children=wl is cli)
    samples, metrics = harness.end_to_end(loop, setup_s, rss)
    _, raw = harness.end_to_end(loop, state.setup_raw_s, rss, scale=False)
    how = (f"each the min of {group} sends, {loop.rounds // group} groups of {group} rounds"
           if group > 1 else "one send each")
    print(f"{name}: times scaled to a {harness.REFERENCE_S * 1e3:g} ms reference loop; "
          f"it took {statistics.median(loop.references) * 1e3:.4f} ms (median) in this run")
    for metric, (value, unit) in metrics.items():
        extra = f"  (raw {raw[metric][0]:.6g})" if metric != "peak_rss_mb" else ""
        if metric.startswith(("latency", "throughput")):
            extra += f"  (n={samples} requests, {how}; {len(loop.latencies)} sends)"
        harness.report_line(name, metric, value, unit, extra)
    _failures_report(name, len(loop.latencies), loop.failures)
    for line in getattr(wl, "findings", lambda s: [])(state):
        print(f"FINDING {name}: {line}")
    return loop, metrics


def traced_run(first, seed, seconds, tiny):
    order = [first] + [w for w in WORKLOADS if w != first]
    metrics, attempted, failed = {}, 0, 0
    for name in order:
        wl = WORKLOADS[name]
        state, _ = harness.setup(wl, seed, tiny, reps=1)
        plain = harness.closed_loop(wl, state, harness.NullTracer(), seconds / TRACE_SHARE, 1)
        tracer = harness.Tracer()
        if hasattr(wl, "before_traced"):
            wl.before_traced(state)
        traced = harness.closed_loop(wl, state, tracer, 0, 0, max_rounds=plain.rounds)
        layer = wl.probe(state, tracer, traced)
        rates = [harness.throughput(harness.request_latencies(loop)) for loop in (plain, traced)]
        layer[f"trace.{name}.traced_over_untraced_rps"] = (rates[1] / rates[0], "ratio")
        print(f"{name}: seed {seed}, digest {harness.digest(state.rounds)}, untraced "
              f"{rates[0]:.4g}/s, traced {rates[1]:.4g}/s over {plain.rounds} rounds each")
        for metric, (value, unit) in layer.items():
            harness.report_line(name, metric, value, unit)
        runs = len(plain.latencies) + len(traced.latencies)
        _failures_report(name, runs, plain.failures + traced.failures)
        attempted, failed = attempted + runs, failed + len(plain.failures) + len(traced.failures)
        tracer.dump(harness.ROOT / "qbench" / "out" / f"trace-{name}-seed{seed}.jsonl")
        metrics.update(layer)
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not harness.program_present():
        print(f"error: no program to measure: {harness.SRC / 'qcrystals'} is missing",
              file=sys.stderr)
        return 2
    if args.trace:
        attempted, failed, metrics = traced_run(args.workload, args.seed, args.seconds, args.tiny)
    else:
        loop, metrics = timed_run(args.workload, args.seed, args.seconds, args.tiny)
        attempted, failed = len(loop.latencies), len(loop.failures)
    harness.emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
