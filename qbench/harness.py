"""Closed-loop client, tracer and result assembly shared by every workload.

One client in one process sends a request only after the previous one
returned (a closed loop with a single client, no threads). A run is a whole
number of groups of rounds: it stops after the first group that ends with
at least `seconds` of busy time and at least MIN_REQUESTS sends, so every
run sees the same mix of requests. Busy time is the sum of request
latencies; oracle checks run between requests and are not timed.

Other load on a shared machine slows this process by up to 2x, for
seconds to minutes at a time. Two measures keep the figures steady:

- Reference-loop scaling. Before every send the loop times a fixed piece of
  pure-Python work (reference_loop, about 1 ms). Each send's latency is
  divided by the median of the seven reference timings around it and
  multiplied by REFERENCE_S, so times read as on a machine where the
  reference loop takes exactly REFERENCE_S. Set-up is scaled the same way.
  The raw figures are printed beside the scaled ones.
- Min-of-k. The in-process workloads send the same pool of at least
  MIN_REQUESTS distinct requests in every round, in a new seeded order, and
  group the rounds by the workload's GROUP. A distinct request's latency
  in a group is the minimum over its GROUP sends there, so every sample is
  a minimum over the same number of sends however fast the program is; a
  faster program fills more groups, which adds samples, not a deeper
  minimum. Before every round each library memo table that set-up left
  empty is cleared, so a repeated request is never answered from a memo.
  The cli workload sends new requests in every round and uses every send.

Latency percentiles are over those latencies; throughput is their count
divided by their sum.

Expected outputs are computed by the workload's expect() in a forked child
process, so the oracle's tables never count in this process's peak RSS.
"""

import gc
import hashlib
import importlib
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("tableaux", "crystal", "decomposition", "rsk", "skeleton",
           "symfunc", "render", "verify", "cli", "errors")
MIN_REQUESTS = 100
SETUP_REPS = 3
REFERENCE_S = 1e-3
NEIGHBOURS = 3  # reference timings taken on each side of a send
WALL_CAP_S = 120.0  # stop after a group past this, leaving set-up and checks room inside 180 s


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work shaped like the program's own:
    tuples of tuples interned in a dict, then a sort. The garbage collector
    is paused meanwhile, so the program's heap does not change the yardstick."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        index, rows = {}, []
        for i in range(1500):
            vertex = ((i % 5, i % 7, i % 3 + 1), (i % 11, i % 13), (i % 17,))
            if vertex not in index:
                index[vertex] = len(rows)
                rows.append(vertex)
        sorted((index[v], k) for k, v in enumerate(rows) if k % 3)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scaled(latencies, references):
    """Each latency times REFERENCE_S over the median reference timing near it."""
    out = []
    for i, latency in enumerate(latencies):
        near = references[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]
        out.append(latency * REFERENCE_S / statistics.median(near))
    return out


def program_present() -> bool:
    return (SRC / "qcrystals" / "__init__.py").is_file()


def import_fresh() -> SimpleNamespace:
    """Import qcrystals from the checkout's src/ with every cache cold."""
    for name in [m for m in sys.modules if m == "qcrystals" or m.startswith("qcrystals.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("qcrystals")
    if Path(pkg.__file__).resolve().parent != (SRC / "qcrystals").resolve():
        raise ImportError(f"qcrystals imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"qcrystals.{m}") for m in MODULES})


def digest(rounds) -> str:
    return hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()[:16]


def request_key(req) -> str:
    return json.dumps(req, sort_keys=True)


def memo_tables(lib) -> dict:
    """Every module-level functools cache of the library, by qualified name."""
    tables = {}
    for module in vars(lib).values():
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__:
                tables[f"{module.__name__}.{name}"] = obj
    return tables


def clear_cold_memos(state):
    """Empty every memo table that set-up's warm-up left empty."""
    for name, table in memo_tables(state.lib).items():
        if name not in state.warm_tables:
            table.cache_clear()


def in_child(fn, *args):
    """fn(*args), computed in a forked child process and passed back pickled."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 0
        try:
            with os.fdopen(write_end, "wb") as out:
                pickle.dump(fn(*args), out)
        except BaseException:
            traceback.print_exc()
            code = 1
        os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"the oracle process failed ({status})")
    return pickle.loads(data)


def expectations(workload, rounds) -> dict:
    """{request key: workload.expect(request, memo)} for every distinct request."""
    memo, out = {}, {}
    for rnd in rounds:
        for req in rnd:
            key = request_key(req)
            if key not in out:
                out[key] = workload.expect(req, memo)
    return out


class Tracer:
    """In-memory spans (name, start, end, parent, request) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (name, start, time.perf_counter(), parent, self.request)
            self._stack.pop()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def mean(self, name):
        d = self.durations(name)
        return sum(d) / len(d) if d else None

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")


class NullTracer:
    """Tracing off: spans and counters cost one call each and record nothing."""
    request = None
    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, k=1):
        pass


def setup(workload, seed, tiny, reps=SETUP_REPS):
    """Import, input generation and cache warm-up, reps times.

    Returns the state of the last repetition and the median set-up seconds.
    The expected outputs are computed afterwards, untimed.
    """
    times, references = [], []
    for _ in range(reps):
        state = lib = None
        gc.collect()  # free the previous repetition's modules, so peak RSS holds one copy
        references.append(statistics.median(reference_loop() for _ in range(2 * NEIGHBOURS + 1)))
        start = time.perf_counter()
        lib = import_fresh()
        state = SimpleNamespace(lib=lib, seed=seed, tiny=tiny, memo={})
        state.rounds = workload.make_rounds(seed, tiny)
        workload.warm(state)
        times.append(time.perf_counter() - start)
    state.setup_raw_s = statistics.median(times)
    state.warm_tables = {name for name, table in memo_tables(lib).items()
                         if getattr(table, "cache_info", None) and table.cache_info().currsize}
    state.expected = (in_child(expectations, workload, state.rounds)
                      if hasattr(workload, "expect") else {})
    return state, statistics.median(t * REFERENCE_S / r for t, r in zip(times, references))


def closed_loop(workload, state, tracer, min_seconds, min_requests, group=1, max_rounds=None):
    """Send whole groups of rounds until busy time and request count reach their minimums."""
    latencies, references, failures, kinds, keys = [], [], [], [], []
    busy, rounds, wall0 = 0.0, 0, time.perf_counter()
    while True:
        if workload.GROUP > 1:
            clear_cold_memos(state)
        for req in state.rounds[rounds % len(state.rounds)]:
            tracer.request = len(latencies)
            references.append(reference_loop())
            start = time.perf_counter()
            try:
                result, error = workload.execute(req, state.lib, tracer), None
            except Exception as exc:  # a raised error is an outcome the oracle judges
                result, error = None, exc
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            kinds.append(req["op"])
            keys.append((request_key(req), rounds // group))
            busy += elapsed
            reason = workload.check(req, result, error, state)
            if reason:
                failures.append((req, reason))
        rounds += 1
        if rounds % group:
            continue
        if max_rounds is not None and rounds >= max_rounds:
            break
        if busy >= min_seconds and len(latencies) >= min_requests:
            break
        if time.perf_counter() - wall0 > WALL_CAP_S:
            break
    return SimpleNamespace(latencies=latencies, references=references, failures=failures,
                           kinds=kinds, keys=keys, busy=busy, rounds=rounds, group=group)


def request_latencies(loop, scale=True):
    """Per-request latencies, scaled or raw: the minimum per distinct request
    and group of rounds, or every send when a group is one round."""
    lat = scaled(loop.latencies, loop.references) if scale else loop.latencies
    if loop.group == 1:
        return lat
    best = {}
    for key, latency in zip(loop.keys, lat):
        best[key] = min(latency, best.get(key, latency))
    return list(best.values())


def throughput(latencies):
    return len(latencies) / sum(latencies)


def per_call_us(fn, args, reps):
    """Mean microseconds of fn(*a) over every a in args, repeated reps times."""
    start = time.perf_counter()
    for _ in range(reps):
        for a in args:
            fn(*a)
    return (time.perf_counter() - start) / (reps * len(args)) * 1e6


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(loop, setup_s, rss_mb, scale=True):
    """The five end-to-end metrics of a timed run."""
    lat = request_latencies(loop, scale)
    deciles = statistics.quantiles(lat, n=10)
    return len(lat), {
        "throughput_rps": (throughput(lat), "1/s"),
        "latency_p50_ms": (deciles[4] * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def report_line(workload, metric, value, unit, extra=""):
    shown = "null" if value is None else f"{value:.6g}"
    print(f"{workload:9s} {metric:48s} {shown:>14s} {unit}{extra}")


def emit(correct, attempted, failed, metrics):
    """The last line of stdout: the machine-readable result."""
    payload = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    print(json.dumps(payload), flush=True)
