"""Self-tests of the benchmark harness (not of pms itself).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench-out" / "test-work"


def _inputs(name, seed, rounds=2):
    w = workloads.WORKLOADS[name](seed, WORK / f"{name}-{seed}")
    return [op.inputs for i in range(rounds) for op in w.round(i)]


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        first = _inputs(name, 7)
        assert first == _inputs(name, 7), name
        assert first != _inputs(name, 8), name
        w = workloads.WORKLOADS[name](7, WORK / name)
        assert len(first) == 2 * w.round_size


def test_tail_rule_leaves_ten_samples_above():
    rng = random.Random(0)
    for min_samples in range(20, 400):
        q = run.tail_percentile(min_samples)
        higher = [x for x in run.TAIL_LADDER if x > q]
        if higher:  # the chosen percentile is the highest that qualifies
            assert min(higher) in run.TAIL_LADDER
            assert int(min_samples * (1 - min(higher) / 100) + 1e-9) < 10
        for n in (min_samples, min_samples + 7, 3 * min_samples):
            samples = [rng.random() for _ in range(n)]
            value = run.nearest_rank(samples, q)
            assert sum(x > value for x in samples) >= 10


def _planted(name, answer):
    if name == "endo-calculus":
        verdict, conj, inv = answer
        return ("iso" if verdict != "iso" else "non_injective"), conj, inv
    if name == "family-sweep":
        return dict(answer, parameter_dim=answer["parameter_dim"] + 1)
    if name == "cocycle-search":
        if isinstance(answer, bool):
            return not answer
        witness, report = answer
        status = "found" if report["status"] != "found" else "none_within_bound"
        return witness, dict(report, status=status)
    code, out, err = answer
    return code, '{"answer":"planted"}\n', err


def test_checker_counts_a_planted_wrong_answer():
    for name in workloads.WORKLOADS:
        w = workloads.WORKLOADS[name](3, WORK / f"planted-{name}")
        ops = w.round(0)
        if name in ("cocycle-search", "family-sweep"):
            ops = [op for op in ops if op.label.endswith("/b3")]
        if name == "cli-cold":  # out-of-domain operations only check the contract
            ops = [op for op in ops if not op.label.startswith("out-of-domain")]
        for op in ops:
            answer = op.run()
            assert harness._status(op, answer, None) == ("pass", ""), op.label
            status, _ = harness._status(op, _planted(name, answer), None)
            assert status == "wrong", op.label


def test_traced_and_untraced_answers_are_identical():
    summary = run.traced("endo-calculus", 5, 1.0, time.perf_counter() + 170)
    assert summary["attempted"] > 0
    assert summary["wrong"] == 0 and summary["failed"] == 0
    assert not summary["failures"]
    metrics = summary["metrics"]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in listed]
    assert all(metrics[m["name"]][1] == m["unit"] for m in listed)
    assert metrics["laurent_core.arith.calls"][0] > 0
    assert metrics["trace.overhead_ratio"][0] > 0


def test_cli_worker_matches_the_entry_point():
    w = workloads.CliCold(4, WORK / "cli-worker")
    ops = [op for op in w.round(0) if op.label.startswith(("carpet/dec", "out-of"))]
    trace_dir = WORK / "cli-worker-spans"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for op in ops[:3]:
        plain = op.run()
        w.traced, w.trace_dir = True, trace_dir
        traced = op.run()
        w.traced = False
        assert op.digest(plain) == op.digest(traced), op.label
        agg = json.loads((trace_dir / f"op-{w.op_id}.json").read_text())
        assert agg["spans"]["cli.main"][0] == 1


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_w = tracer.wrap("demo.leaf", leaf)

    def parent():
        time.sleep(0.01)
        leaf_w()
        leaf_w()

    parent_w = tracer.wrap("demo.parent", parent)
    tracer.on = True
    tracer.op = 9
    parent_w()
    tracer.on = False
    spans = tracer.aggregate()["spans"]
    calls, total, self_s = spans["demo.parent"]
    assert calls == 1 and spans["demo.leaf"][0] == 2
    assert abs(self_s - (total - spans["demo.leaf"][1])) < 0.005
    path = WORK / "demo.spans"
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(path)
    names, rows = tracing.read_spans(path)
    assert [names[r[0]] for r in rows] == ["demo.parent", "demo.leaf", "demo.leaf"]
    assert [r[1] for r in rows] == [-1, 0, 0] and {r[2] for r in rows} == {9}
    assert all(rows[0][3] <= r[3] <= r[4] <= rows[0][4] for r in rows[1:])


def test_missing_program_fails_without_a_result():
    bare = WORK / "bare-checkout"
    copy = bare / "perfbench"
    copy.mkdir(parents=True, exist_ok=True)
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
