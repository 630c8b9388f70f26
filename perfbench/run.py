"""Closed-loop benchmark of intorder's recognize/decide CLI paths.

Usage (from the repository root):

    python3 perfbench/run.py --workload {recognize,decide,cli} --seed N \
        --seconds S --trace {0,1}

One caller sends one graph at a time and waits for the answer. Every
answer must match the exit code and stdout digest recorded in
expected.json at the commit that defined the benchmark, and its
certificate must pass the checkers in checks.py. An op that overruns
OP_LIMIT_S fails as a timeout.

--trace 0 measures the end-to-end metrics with no wrappers installed. The
latency of a graph is its best repeat in the run (Tally), scaled by
the host's speed during the run (Reference). Set-up time and peak RSS are
measured after the loop, in fresh processes.
--trace 1 alternates untraced passes and passes with tracing.Tracer
installed until --seconds have passed; the per-layer metrics are per-op
averages of the traced passes, and the time difference between the two
kinds of pass is the tracing overhead. The last stdout line is one JSON object;
the lines before it print each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import IMPORT, LAYER_SPANS, OP, ORDER_CHECK, PROCESS, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".perfbench"
OP_LIMIT_S = 10.0
OVERRUN_S = 40.0
REFERENCE_NOMINAL_S = 0.020  # Reference total on the host that defined the benchmark
SETUP_REPEATS = 15
SETUP_LIMIT_S = 60.0
RSS_PASS_LIMIT_S = 30.0
MIN_GRAPHS = 100  # p90 needs at least ten graphs beyond it


class OpTimeout(Exception):
    pass


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> float:
    """Import intorder from this checkout's src/, returning the import time."""
    if not (SRC / "intorder" / "__init__.py").is_file():
        die(f"no intorder package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import intorder.cli

    elapsed = time.perf_counter() - started
    if Path(intorder.__file__).resolve().parent != SRC / "intorder":
        die(f"imported intorder from {intorder.__file__}, not from {SRC}")
    return elapsed


def time_generation() -> list[float]:
    """Accumulate, in the returned cell, the time spent in intorder.gadgets."""
    import intorder

    spent = [0.0]
    for name in ("random_interval_graph", "build_gadget"):
        def timed(*args, _fn=getattr(intorder, name), **kwargs):
            started = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - started

        setattr(intorder, name, timed)
    return spent


# ---------------------------------------------------------------------------
# Executing one op
# ---------------------------------------------------------------------------

def raise_timeout(signum, frame):
    raise OpTimeout()


def in_process(item, tracer=None):
    """Run the command through intorder.cli.run under a SIGALRM limit."""
    import intorder.cli

    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    started = time.perf_counter()
    if tracer is not None:
        tracer.op += 1
        span = tracer.begin(OP, started)
    try:
        code, out, _ = intorder.cli.run(item.argv, item.text)
    finally:
        finished = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end(span, finished)
    return finished - started, code, out


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def subprocess_op(item, tracer=None):
    """Run the command as its own process, fed the graph on stdin."""
    if tracer is None:
        argv = [sys.executable, "-m", "intorder", *item.argv]
    else:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(SRC), *item.argv]
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, input=item.text, capture_output=True, text=True,
                              timeout=OP_LIMIT_S, cwd=ROOT, env=_env())
    except subprocess.TimeoutExpired:
        raise OpTimeout() from None
    finished = time.perf_counter()
    if tracer is None:
        return finished - started, proc.returncode, proc.stdout
    if proc.returncode != 0:
        raise RuntimeError(f"traced child exited {proc.returncode}: {proc.stderr[-300:]}")
    child = json.loads(proc.stdout)
    tracer.op += 1
    span = tracer.begin(OP, started)
    outside = (finished - started) - child["inside_s"]
    tracer.spans.append([PROCESS, started, started + outside, span, tracer.op])
    tracer.adopt(child["spans"], child["counts"], span)
    tracer.end(span, finished)
    return finished - started, child["code"], child["out"]


class Reference:
    """Fixed pure-Python jobs (checks.pair_components on reference_graphs)
    placed at evenly spaced slots of every pass and timed like graphs.

    The shared host's speed drifts by tens of percent over minutes, which
    no statistic taken within one run removes. Every reported op time is
    multiplied by `scale`: REFERENCE_NOMINAL_S over the sum of the jobs'
    best times in the same run. The jobs are sampled the way graphs are,
    once per pass each and best repeat kept, so the scale sees the same
    mix of fast and slow stretches that the graphs' best repeats do. The
    jobs do not use intorder, so no change to the package can move them.
    """

    def __init__(self, stream_length: int):
        from corpus import reference_graphs

        self.graphs = reference_graphs()
        self.length = stream_length
        self.slots = {round(k * stream_length / len(self.graphs)): k
                      for k in range(len(self.graphs))}
        self.best = [float("inf")] * len(self.graphs)

    def tick(self, op: int) -> None:
        from checks import pair_components

        k = self.slots.get(op % self.length)
        if k is None:
            return
        started = time.perf_counter()
        pair_components(self.graphs[k])
        self.best[k] = min(self.best[k], time.perf_counter() - started)

    def time_once(self) -> float:
        """The summed time of one run of every job."""
        from checks import pair_components

        started = time.perf_counter()
        for graph in self.graphs:
            pair_components(graph)
        return time.perf_counter() - started

    @property
    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / sum(self.best)


# ---------------------------------------------------------------------------
# Correctness and per-graph records
# ---------------------------------------------------------------------------

class Judge:
    """Checks each op's answer as it ends: the recorded exit code, stdout
    digest and input digest, then the certificate (checks.certify). A
    certificate is checked once per distinct graph and stdout digest.
    """

    def __init__(self, stream, expected):
        from corpus import input_digest

        self.expected = expected
        self.bad_inputs = {item.key for item in stream
                           if input_digest(item) != expected[item.key][1]}
        self.certified: dict[tuple[str, str], tuple[str | None, bool]] = {}

    def __call__(self, item, code, out) -> tuple[str | None, bool]:
        """The failure, or None, and whether the answer holds a buried set."""
        from checks import certify
        from corpus import digest

        exp_code, _, exp_output = self.expected[item.key]
        if item.key in self.bad_inputs:
            return "input digest differs from the recorded input", False
        if code != exp_code:
            return f"exit code {code}, recorded {exp_code}", False
        out_digest = digest(out)
        if out_digest != exp_output:
            return "stdout digest differs from the recorded output", False
        key = (item.key, out_digest)
        if key not in self.certified:
            try:
                payload = json.loads(out)
            except json.JSONDecodeError as exc:
                self.certified[key] = (f"stdout is not JSON: {exc}", False)
            else:
                problem = certify(item, code, payload)
                self.certified[key] = (problem, "buried" in payload or payload.get("found") is True)
        problem, buried = self.certified[key]
        return ("certificate: " + problem if problem else None), buried


@dataclass
class Graph:
    """One graph's latencies over its repeats in a run."""

    item: object
    first: float
    best: float
    code: int | None  # None once any repeat has failed


class Tally:
    """What a run keeps: per-graph records, op counts and the first few
    failures. No op's output is kept, so the runner's memory, and with it
    peak_rss_mb, does not grow with the number of ops that fit in a run.

    A graph's `best` is its least latency over its repeats. The host's
    speed drifts by tens of percent over seconds, and drift only ever adds
    time, so the least repeat is the steadiest estimate. A graph with any
    failed repeat counts as OP_LIMIT_S, missing any latency limit, with no
    exit code.
    """

    def __init__(self, judge: Judge):
        self.judge = judge
        self.graphs: dict[str, Graph] = {}
        self.attempted = self.failed = self.yes = self.no = self.buried = 0
        self.op_time = 0.0
        self.failures: list[tuple[object, str]] = []

    def add(self, item, latency, code=None, out=None, failure=None) -> None:
        self.attempted += 1
        if failure is None:
            failure, buried = self.judge(item, code, out)
            self.buried += buried
        if failure:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append((item, failure))
            latency, code = OP_LIMIT_S, None
        else:
            self.yes += code == 0
            self.no += code == 1
        self.op_time += latency
        graph = self.graphs.get(item.key)
        if graph is None:
            self.graphs[item.key] = Graph(item, latency, latency, code)
        elif code is None or graph.code is None:
            graph.best, graph.code = OP_LIMIT_S, None
        elif latency < graph.best:
            graph.best, graph.code = latency, code

    @property
    def first_pass_ratio(self) -> float:
        """Summed first latencies over summed best latencies. A change that
        reuses results across calls would pay full cost only on the first
        repeat and push this far above its usual value."""
        return (sum(g.first for g in self.graphs.values())
                / sum(g.best for g in self.graphs.values()))


def run_loop(stream, execute, seconds, reference, tally, count=None, tracer=None) -> float:
    """Closed loop over the stream: whole passes until `seconds` have passed,
    or exactly `count` ops. Whole passes keep the work identical across
    seeds; past seconds + OVERRUN_S the loop stops mid-pass, so a slow
    regression still ends the run in time. Returns the loop's wall time.
    """
    started = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        if count is not None and i >= count:
            break
        if count is None and i % len(stream) == 0 and elapsed >= seconds:
            break
        if elapsed >= seconds + OVERRUN_S:
            break
        reference.tick(i)
        item = stream[i % len(stream)]
        try:
            latency, code, out = execute(item, tracer)
        except OpTimeout:
            tally.add(item, OP_LIMIT_S, failure="timeout")
        except Exception as exc:  # a crash is a failed op, not a failed run
            tally.add(item, OP_LIMIT_S, failure=f"exception {exc!r}")
        else:
            tally.add(item, latency, code, out)
        i += 1
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def p90(values):
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def end_to_end(tally, setup_s, peak_rss_mb, scale) -> dict:
    best = [(g.best * scale, g.code) for g in tally.graphs.values()]
    latencies = [latency * 1000 for latency, _ in best]
    yes = [latency * 1000 for latency, code in best if code == 0]
    no = [latency * 1000 for latency, code in best if code == 1]
    certified = sum(1 for _, code in best if code is not None)
    return {
        "setup_s": setup_s,
        "ops_per_s": certified / sum(latency for latency, _ in best),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90(latencies),
        "yes_p50_ms": statistics.median(yes) if yes else 0.0,
        "no_p50_ms": statistics.median(no) if no else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced, untraced, setups, workload, scale) -> dict:
    ops = traced.attempted
    selves = self_times(tracer.spans)
    values = {f"{name}_ms": selves.get(name, 0.0) * scale * 1000 / ops
              for name in {s[0] for s in LAYER_SPANS} | {ORDER_CHECK, PROCESS}}
    if workload == "cli":
        values["cli.import_ms"] = selves.get(IMPORT, 0.0) * scale * 1000 / ops
    else:
        values["cli.import_ms"] = statistics.median(s["import_s"] for s in setups) * 1000
    values["gadgets.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    for name in ("recognition.cliques", "orderability.pairs", "orderability.wq_components",
                 "orderability.candidates_grown", "orderability.closure_stages",
                 "graphs.order_pairs"):
        values[name] = tracer.counts[name] / ops
    grown = tracer.counts["orderability.candidates_grown"]
    values["orderability.buried_hit_ratio"] = traced.buried / grown if grown else 0.0
    op_total = sum(end - start for name, start, end, _, _ in tracer.spans if name == OP)
    values["trace.coverage_pct"] = 100 * (1 - selves.get(OP, 0.0) / op_total)
    base = sum(untraced.graphs[key].best for key in traced.graphs)
    wrapped = sum(g.best for g in traced.graphs.values())
    values["trace.overhead_pct"] = 100 * (wrapped / base - 1)
    values["trace.traced_ops"] = ops
    values["trace.first_pass_ratio"] = untraced.first_pass_ratio
    return values


# ---------------------------------------------------------------------------
# Set-up, measured in fresh processes
# ---------------------------------------------------------------------------

def setup_only(args) -> None:
    """Child mode: import, build the stream, report the parts' times."""
    import_s = import_package()
    spent = time_generation() if args.trace == 1 else [0.0]
    import corpus

    corpus.stream(args.workload, args.seed)
    print(json.dumps({"import_s": import_s, "generate_s": spent[0]}))


def own_peak_rss_mb() -> float:
    """This process's peak RSS since its exec. ru_maxrss would not do: on
    Linux a child's ru_maxrss starts from its parent's peak at spawn time."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    die("no VmHWM line in /proc/self/status")


def peak_rss_only(args) -> None:
    """Child mode: one in-process pass over the stream with the outputs
    discarded, then report this process's peak RSS. Nothing the runner
    keeps or checks counts towards it. A pass that runs past
    RSS_PASS_LIMIT_S stops early."""
    import_package()
    import corpus

    signal.signal(signal.SIGALRM, raise_timeout)
    started = time.perf_counter()
    for item in corpus.stream(args.workload, args.seed):
        if time.perf_counter() - started > RSS_PASS_LIMIT_S:
            break
        try:
            in_process(item)
        except Exception:  # failures are the loop's to report
            pass
    print(json.dumps({"peak_rss_mb": own_peak_rss_mb()}))


def child(args, mode: str, limit_s: float) -> tuple[dict, float]:
    """Run this script in a child mode; its last stdout line and wall time."""
    argv = [sys.executable, str(Path(__file__).resolve()), mode, "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=limit_s)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        die(f"{mode} process failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def measure_setups(args, reference) -> list[dict]:
    """SETUP_REPEATS fresh set-up processes, one after another, each timed
    from start to ready. Each report holds its `setup_s` and the parts the
    process timed itself, all scaled like the op times, but by the
    reference jobs timed right before and right after that process: a
    set-up takes a few tenths of a second, and only a reference taken
    alongside it sees the same host speed."""
    reports = []
    before = reference.time_once()
    for _ in range(SETUP_REPEATS):
        report, wall = child(args, "--setup-only", SETUP_LIMIT_S)
        after = reference.time_once()
        scale = 2 * REFERENCE_NOMINAL_S / (before + after)
        reports.append({name: value * scale for name, value in dict(report, setup_s=wall).items()})
        before = after
    return reports


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {sys.version.split()[0]}, nproc {len(os.sched_getaffinity(0))}, "
            f"load average {load}")


def declared_metrics(trace: bool) -> list[dict]:
    manifest = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        die(f"cannot read {manifest}: {exc}")
    return spec["per_layer" if trace else "end_to_end"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("recognize", "decide", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--peak-rss-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        setup_only(args)
        return
    if args.peak_rss_only:
        peak_rss_only(args)
        return

    declared = declared_metrics(args.trace == 1)
    import_package()
    import corpus

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    stream = corpus.stream(args.workload, args.seed)
    execute = subprocess_op if args.workload == "cli" else in_process
    signal.signal(signal.SIGALRM, raise_timeout)

    reference = Reference(len(stream))
    if args.trace == 0:
        counted = Tally(Judge(stream, expected))
        tallies = [counted]
        wall = run_loop(stream, execute, args.seconds, reference, counted)
        peak_rss_mb = child(args, "--peak-rss-only", RSS_PASS_LIMIT_S + SETUP_LIMIT_S)[0]["peak_rss_mb"]
        setups = [s["setup_s"] for s in measure_setups(args, reference)]
        values = end_to_end(counted, statistics.median(setups), peak_rss_mb, reference.scale)
        print(f"# unscaled: {counted.attempted} ops ({counted.attempted / len(stream):.3g} passes) "
              f"in {counted.op_time:.3g} s of op time, "
              f"{counted.attempted / counted.op_time:.6g} ops/s; loop wall time {wall:.3g} s")
        print(f"# first pass over best repeats: {counted.first_pass_ratio:.4g}")
        print("# set-up processes, scaled (s): " + " ".join(f"{x:.4f}" for x in setups))
    else:
        # alternate untraced and traced passes, so host drift falls on both alike
        judge = Judge(stream, expected)
        tracer = Tracer()
        untraced, traced = Tally(judge), Tally(judge)
        started = time.perf_counter()
        while not traced.attempted or time.perf_counter() - started < args.seconds:
            run_loop(stream, execute, 0, reference, untraced, count=len(stream))
            if args.workload != "cli":
                tracer.install()
            try:
                run_loop(stream, execute, 0, reference, traced, count=len(stream), tracer=tracer)
            finally:
                tracer.uninstall()
        values = per_layer(tracer, traced, untraced, measure_setups(args, reference), args.workload,
                           reference.scale)
        tracer.write(TRACE_DIR / f"trace-{args.workload}.jsonl")
        tallies = [untraced, traced]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for tally in tallies:
        for item, failure in tally.failures:
            print(f"perfbench: failed {item.key} ({item.command}): {failure}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}, {environment()}")
    print(f"# host speed: reference {sum(reference.best) * 1000:.4g} ms, "
          f"times scaled by {reference.scale:.4g}")
    print(f"# ops {attempted} (yes {sum(t.yes for t in tallies)}, no {sum(t.no for t in tallies)}), "
          f"distinct graphs {len(stream)}, failed {failed}, "
          f"failed_ratio {failed / max(1, attempted):.6g}")
    measured = len(set().union(*(t.graphs for t in tallies)))
    if measured < MIN_GRAPHS:
        print(f"# warning: only {measured} graphs measured, fewer than {MIN_GRAPHS}")
    metrics = {}
    for spec in declared:
        if spec["name"] not in values:
            die(f"metric {spec['name']} declared in BENCHMARK.json is not measured")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']} = {values[spec['name']]:.6g} {spec['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
