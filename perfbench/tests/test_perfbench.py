"""Tests of the benchmark itself: its checkers, its self-time arithmetic,
its tracer, and a short smoke run of every workload.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kmln
import tracing
from tracing import Span
from workloads import VERIFY_SUMMARY, WORKLOADS

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_inputs(name, count, seed=0):
    stream = WORKLOADS[name].inputs(np.random.default_rng(seed))
    return [next(stream) for _ in range(count)]


# --- checkers ----------------------------------------------------------------


def test_compose_checker_rejects_a_perturbed_product():
    w = WORKLOADS["compose-stream"]
    (inp, expect), = first_inputs(w.name, 1)
    out = w.op(inp)
    assert w.check(inp, expect, out)
    g = kmln.assemble(out)
    g[1, 2] += 1e-6 * np.linalg.norm(g)
    assert not w.check(inp, expect, kmln.disassemble(g))


def test_classify_checker_accepts_every_kind_and_rejects_wrong_reports():
    w = WORKLOADS["classify-mix"]
    seen = set()
    for text, expect in first_inputs(w.name, len(w.KINDS)):
        kind, label = expect
        seen.add(kind)
        report = w.op(text)
        assert w.check(text, expect, report)
        if kind == "family":
            fams = tuple(mb for mb in report.families if mb.tag != label)
            wrong = dataclasses.replace(report, families=fams)
        elif kind == "variant":
            wrong = dataclasses.replace(report, variants=())
        else:
            member = kmln.membership("K-1", kmln.zero_params())
            wrong = dataclasses.replace(report, families=(member,))
            assert not w.check(text, expect,
                               dataclasses.replace(report, rank=3))
        assert not w.check(text, expect, wrong)
    assert seen == set(w.KINDS)


def test_classify_inputs_cover_every_family_and_variant():
    w = WORKLOADS["classify-mix"]
    labels = {expect for _, expect in first_inputs(w.name, 5 * 20)}
    tags = {label for kind, label in labels if kind == "family"}
    vids = {label for kind, label in labels if kind == "variant"}
    assert tags == set(kmln.FAMILY_TAGS)
    assert vids == set(kmln.VARIANT_IDS)


def test_inputs_follow_the_seed():
    a = [t for t, _ in first_inputs("classify-mix", 6, seed=3)]
    b = [t for t, _ in first_inputs("classify-mix", 6, seed=3)]
    c = [t for t, _ in first_inputs("classify-mix", 6, seed=4)]
    assert a == b
    assert a != c
    assert len(set(a)) == len(a)


def test_verify_checker_rejects_a_wrong_summary_or_exit_code():
    w = WORKLOADS["verify-cli"]
    good = "check=... status=pass\n" + VERIFY_SUMMARY + "\n"
    assert w.check(0, VERIFY_SUMMARY, (0, good))
    wrong = good.replace("discrepancy=24", "discrepancy=23")
    assert not w.check(0, VERIFY_SUMMARY, (0, wrong))
    assert not w.check(0, VERIFY_SUMMARY, (1, good))
    assert not w.check(0, VERIFY_SUMMARY, (0, ""))


# --- timing records ----------------------------------------------------------


def test_histogram_quantiles_match_exact_ones_in_fixed_memory():
    from run import Histogram

    values = np.random.default_rng(0).lognormal(np.log(3e5), 0.3, 50_001)
    h = Histogram()
    nbytes = h.counts.nbytes
    for chunk in np.array_split(values, 500):
        h.add(chunk)
    assert h.n == len(values)
    assert h.mean() == pytest.approx(values.mean(), rel=1e-12)
    for q in (0.5, 0.99):
        assert h.quantile(q) == pytest.approx(np.quantile(values, q), rel=2e-3)
    assert h.counts.nbytes == nbytes


# --- spans -------------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0, 100, -1, 0, None),
        Span("a", 10, 40, 0, 0, None),
        Span("a.child", 20, 30, 1, 0, None),
        Span("b", 50, 70, 0, 0, None),
        # overlapping children: their union, 10..60, counts once
        Span("overlap", 200, 300, -1, 1, None),
        Span("x", 210, 40 + 200, 4, 1, None),
        Span("y", 230, 260, 4, 1, None),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20, 50, 30, 30]


def test_layer_metrics_counts_self_time_and_hit_ratio():
    spans = [
        Span("classify.classify", 0, 1000, -1, 0, None),
        Span("families.membership", 100, 300, 0, 0, True),
        Span("families.membership", 300, 400, 0, 0, False),
        Span("families.membership", 400, 500, 0, 0, False),
        Span("families.membership", 500, 900, 0, 0, False),
    ]
    m = tracing.layer_metrics(spans)
    assert m["classify.classify.calls"] == (1, "count")
    assert m["classify.classify.self_s"] == (200 / 1e9, "s")
    assert m["families.membership.calls"] == (4, "count")
    assert m["families.membership.self_s"] == (800 / 1e9, "s")
    assert m["families.membership.us_p50"] == (0.15, "us")
    assert m["families.membership.hit_ratio"] == (0.25, "ratio")
    assert m["core.compose.calls"] == (0, "count")


def test_tracer_wraps_every_name_a_function_is_held_under():
    original = kmln.core.compose
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (kmln, kmln.core, kmln.families, kmln.harness):
            assert module.compose is not original
            assert module.compose.__wrapped__ is original
        tracer.op = 7
        kmln.classify(np.eye(4))
    finally:
        tracer.uninstall()
    for module in (kmln, kmln.core, kmln.families, kmln.harness):
        assert module.compose is original
    names = [s.name for s in tracer.spans]
    assert names.count("families.membership") == len(kmln.FAMILY_TAGS)
    assert names[0] == "classify.classify"
    assert all(s.parent == 0 for s in tracer.spans
               if s.name == "families.membership")
    assert {s.op for s in tracer.spans} == {7}
    data = json.loads(json.dumps(tracing.spans_to_json(tracer.spans)))
    assert tracing.spans_from_json(data) == tracer.spans


# --- smoke runs --------------------------------------------------------------


def bench(*args, cwd=ROOT, script=PERFBENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: (m["unit"]) for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_build" / "perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(PERFBENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "compose-stream", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=bare,
                     script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stderr.startswith("perfbench: ")
    assert not proc.stdout.strip()
