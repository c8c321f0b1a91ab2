"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py [--seeds 0-9] [--trace] [--out FILE]

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` for its
``run_seconds`` once per seed and prints every end-to-end metric with its
unit: the median over seeds, the quartiles and the spread
(q3 - q1) / median next to the metric's bound.  With --trace, adds one traced run per workload (first
seed) and prints its per-layer metrics.  --out writes the summary, with
every run's full record (raw times and provenance included), as JSON.
Runs are sequential; each one's human-readable report goes to standard
error.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "perfbench"


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    """One run of run.py; returns its full record (metrics, raw times,
    provenance)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"collect: {' '.join(cmd)} exited {proc.returncode}")
    record = RESULTS / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"seeds": args.seeds, "seconds": seconds, "runs": results,
                 "end_to_end": {}}
        print(f"{workload}  ({len(results)} runs of {seconds:g} s; "
              f"failed ops {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)})")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            stats = spread(values) if len(values) > 1 else {"median": values[0]}
            entry["end_to_end"][name] = dict(stats, unit=unit, values=values)
            line = f"  {name:14s} {stats['median']:>14.6g} {unit:6s}"
            if "spread" in stats:
                line += (f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                         f"spread {stats['spread']:.3f} (bound {bound})")
            print(line)
        if args.trace:
            traced = run(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = traced["metrics"]
            for name, m in traced["metrics"].items():
                print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
        summary[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
