"""Benchmark of the kmln library and its CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (README.md says why each exists): compose-stream, classify-mix,
verify-cli.  One caller, one thread, closed loop, pinned to one CPU.
Inputs come from --seed; every output is checked.

--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, op_ms_p50 and
peak_rss_mb.  Times are at nominal machine speed (speed.py).  --trace 1
makes the separate traced run and prints the per-layer metrics, with the
op_ms_p99 of its untraced operations.
The last line of standard output is one JSON object {"correct",
"attempted", "failed", "metrics"}; the lines before it give the same
numbers for a reader, with sample counts, raw times, the error fraction
and a provenance record.  The full record, and in a traced run the spans,
are written under .bench_build/perfbench/.

The program is imported from src/ of the checkout this script sits in; the
benchmark exits non-zero, printing no result, when it is not there.
"""

import os

# BLAS/OpenMP threads pinned to 1, here and in every child process, before
# numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: Fresh interpreters whose set-up time is the median; one more runs first,
#: untimed, so the bytecode cache is filled as it is after installation.
SETUP_RUNS = 21
CHILD_TIMEOUT_S = 60


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import kmln
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kmln from {SRC}: {exc}")
    if not Path(kmln.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: kmln was imported from {kmln.__file__}, "
                 f"not from {SRC}")
    return kmln


kmln = import_program()

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Tally:
    """Attempted and failed operations; keeps the first failure's text."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def record(self, ok, error=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = error or "output check failed"


class Histogram:
    """Per-op times in ns: counts in log-spaced bins 0.1 % wide from 10 ns to
    1000 s, and their exact count and sum.

    The bins are allocated and written in full when it is made, so it takes
    the same memory however many ops it holds: the peak resident memory of
    the process doing the work does not grow with the length of the run.
    """

    PER_DECADE = 2303  # 10 ** (1 / 2303) = 1.001
    LOW_NS = 10.0
    DECADES = 11

    def __init__(self):
        self.counts = np.full(self.PER_DECADE * self.DECADES, 0, dtype=np.int64)
        self.n = 0
        self.total_ns = 0.0

    def add(self, values_ns):
        v = np.asarray(values_ns, dtype=float)
        bins = np.floor(np.log10(v / self.LOW_NS) * self.PER_DECADE)
        np.add.at(self.counts, np.clip(bins, 0, len(self.counts) - 1)
                  .astype(np.intp), 1)
        self.n += len(v)
        self.total_ns += float(v.sum())

    def mean(self):
        return self.total_ns / self.n

    def quantile(self, q):
        """The time a share ``q`` of the ops take at most, interpolated
        within the bin that holds it (relative error under 0.1 %)."""
        cum = np.cumsum(self.counts)
        rank = q * self.n
        i = int(np.searchsorted(cum, rank))
        frac = (rank - (cum[i] - self.counts[i])) / self.counts[i]
        return self.LOW_NS * 10.0 ** ((i + frac) / self.PER_DECADE)


class Timings:
    """Per-op times, raw and at nominal speed, for untraced and traced ops."""

    def __init__(self):
        self.raw = {False: Histogram(), True: Histogram()}
        self.nominal = {False: Histogram(), True: Histogram()}

    def add(self, traced, raw_ns, scale):
        self.raw[traced].add(raw_ns)
        self.nominal[traced].add([t * scale for t in raw_ns])


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)


def measure_setup(workload, seed):
    """Median over fresh interpreters of ``import kmln`` plus the first cold
    call, at nominal speed; and the raw median."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)]
    raw, nominal = [], []
    for i in range(SETUP_RUNS + 1):
        before = speed.probe_ns()
        proc = run_child(cmd)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        if i:
            raw.append(rec["import_s"] + rec["call_s"])
            nominal.append(raw[-1] * speed.factor(before, rec["probe_ns"]))
    return statistics.median(nominal), statistics.median(raw)


# --- in-process workloads ----------------------------------------------------


def run_block(w, stream, tally, tracer=None):
    """Run one block of operations; returns their raw walls in ns.

    Inputs are drawn before and outputs checked after the timed calls, with
    the tracer (if any) installed only around the calls.
    """
    block = [next(stream) for _ in range(w.block)]
    outs, walls = [], []
    if tracer is not None:
        tracer.install()
    try:
        for inp, _ in block:
            if tracer is not None:
                tracer.op = tally.attempted + len(outs)
            t0 = perf_counter_ns()
            try:
                out = w.op(inp)
            except Exception as exc:  # a raised exception is a failed op
                out = exc
            walls.append(perf_counter_ns() - t0)
            outs.append(out)
    finally:
        if tracer is not None:
            tracer.op = -1
            tracer.uninstall()
    for (inp, expect), out in zip(block, outs):
        if isinstance(out, Exception):
            tally.record(False, "".join(traceback.format_exception(out)))
            continue
        try:
            tally.record(w.check(inp, expect, out))
        except Exception:
            tally.record(False, traceback.format_exc())
    return walls


def run_inprocess(w, seed, seconds, tracer):
    """Closed loop for ``seconds``, a speed probe between blocks.  With a
    tracer, blocks alternate between untraced and traced.  Returns the
    tally, the timings and this process's peak resident kB, read as the
    loop ends."""
    stream = w.inputs(np.random.default_rng(seed))
    tally = Tally()
    times = Timings()
    run_block(w, stream, tally)  # warm-up: checked, not timed
    traced = False
    before = speed.probe_ns()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or (tracer and not times.raw[True].n):
        walls = run_block(w, stream, tally, tracer if traced else None)
        after = speed.probe_ns()
        times.add(traced, walls, speed.factor(before, after))
        before = after
        traced = tracer is not None and not traced
    return tally, times, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- verify-cli --------------------------------------------------------------


def run_verify(w, seed, seconds, trace):
    """Closed loop of ``kmln verify`` processes for ``seconds`` (at least one).
    With ``trace``, processes alternate between untraced and traced (at
    least one each); returns (tally, timings, spans)."""
    stream = w.inputs(np.random.default_rng(seed))
    tally = Tally()
    times = Timings()
    spans = []
    started = {False: 0, True: 0}
    traced = False
    record_path = OUT / "verify-child.json"
    start = perf_counter()
    while (not started[False] or (trace and not started[True])
           or perf_counter() - start < seconds):
        vseed, expect = next(stream)
        started[traced] += 1
        cmd = [sys.executable, str(HERE / "child.py"), "verify", str(vseed),
               str(record_path)]
        if traced:
            cmd.append(str(tally.attempted))
        t0 = perf_counter_ns()
        try:
            proc = run_child(cmd)
        except subprocess.TimeoutExpired:
            tally.record(False, f"verify --seed {vseed}: timed out")
            traced = trace and not traced
            continue
        wall = perf_counter_ns() - t0
        tally.record(w.check(vseed, expect, (proc.returncode, proc.stdout)),
                     f"verify --seed {vseed}: exit {proc.returncode}\n"
                     f"{proc.stdout[-300:]}{proc.stderr[-2000:]}")
        if record_path.exists():
            rec = json.loads(record_path.read_text())
            record_path.unlink()
            times.add(traced, [wall - rec["probe_ns"]], rec["factor"])
            if "trace" in rec:
                offset = len(spans)
                spans += [s._replace(parent=s.parent + offset if s.parent >= 0
                                     else -1)
                          for s in tracing.spans_from_json(rec["trace"])]
        traced = trace and not traced
    return tally, times, spans


# --- metrics -----------------------------------------------------------------


def end_to_end(setup_s, nominal, peak_rss_kb):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e9 / nominal.mean(), "1/s"),
        "op_ms_p50": (nominal.quantile(0.5) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(spans, times):
    metrics = tracing.layer_metrics(spans)
    suite = {s.op: s.end - s.start for s in spans
             if s.name == "harness.run_suite"}
    per_process = [(s.end - s.start - suite.get(s.op, 0)) / 1e9
                   for s in spans if s.name == tracing.CLI_VERIFY]
    metrics["cli.verify.overhead_s"] = (
        statistics.median(per_process) if per_process else 0.0, "s")
    traced, untraced = times.nominal[True], times.nominal[False]
    metrics["trace.overhead_frac"] = (
        traced.mean() / untraced.mean() - 1, "ratio")
    metrics["trace.window_s"] = (times.raw[True].total_ns / 1e9, "s")
    # The tail moves with the host's load even at nominal speed (run-to-run
    # spread 0.18-0.35 against 0.04 for the median), so it is reported here,
    # without a bound, rather than as an end-to-end metric.
    metrics["op_ms_p99"] = (untraced.quantile(0.99) / 1e6, "ms")
    return metrics


def isolation(workload, metrics):
    """The isolation each workload is built for, for the reader; it does
    not fail a run."""
    window = metrics["trace.window_s"][0]

    def share(name):
        return metrics[name][0] / window if window else 0.0

    if workload == "compose-stream":
        return [("families.membership.calls == 0",
                 metrics["families.membership.calls"][0] == 0),
                (f"core.compose.self_s share {share('core.compose.self_s'):.3f}"
                 " >= 0.80", share("core.compose.self_s") >= 0.80)]
    if workload == "classify-mix":
        return [("core.compose.calls == 0", metrics["core.compose.calls"][0] == 0),
                (f"families.membership.self_s share "
                 f"{share('families.membership.self_s'):.3f} >= 0.70",
                 share("families.membership.self_s") >= 0.70)]
    return []


# --- provenance --------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, nproc, cpu):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nominal_probe_ns": speed.NOMINAL_NS,
    }


# --- main --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    # Probes and work share one CPU (children inherit the affinity), so a
    # probe measures the core the work ran on.
    cpus = os.sched_getaffinity(0)
    prov = provenance(args, len(cpus), max(cpus))
    os.sched_setaffinity(0, {max(cpus)})

    tracer = tracing.Tracer() if args.trace else None
    setup_s = setup_raw_s = None
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(w.name, args.seed)
    if w.name == "verify-cli":
        tally, times, spans = run_verify(w, args.seed, args.seconds,
                                         bool(args.trace))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        tally, times, peak_kb = run_inprocess(w, args.seed, args.seconds,
                                              tracer)
        spans = tracer.spans if tracer else []

    if not times.raw[False].n:
        sys.exit(f"perfbench: no operation completed\n{tally.first_error}")
    checks = []
    if args.trace:
        metrics = per_layer(spans, times)
        checks = isolation(w.name, metrics)
        (OUT / f"trace-{w.name}-seed{args.seed}.json").write_text(
            json.dumps(tracing.spans_to_json(spans), separators=(",", ":")))
    else:
        metrics = end_to_end(setup_s, times.nominal[False], peak_kb)
    raw = {"op_ms_p50": times.raw[False].quantile(0.5) / 1e6,
           "op_ms_p99": times.raw[False].quantile(0.99) / 1e6}
    if setup_raw_s is not None:
        raw["setup_s"] = setup_raw_s

    record = {
        "provenance": prov,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "timed_ops": {"untraced": times.raw[False].n,
                      "traced": times.raw[True].n},
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "raw": raw,
        "isolation": {claim: ok for claim, ok in checks},
    }
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    if tally.first_error:
        print(f"first failure:\n{tally.first_error}", file=sys.stderr)
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  timed ops: {times.raw[False].n} untraced, "
          f"{times.raw[True].n} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(f"  {'error_frac':40s} {tally.failed / tally.attempted:>16.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    for name, value in raw.items():
        print(f"  {name + ' (raw, not speed-scaled)':40s} {value:>16.6g}")
    for claim, ok in checks:
        print(f"  isolation: {claim}: {'met' if ok else 'NOT MET'}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
