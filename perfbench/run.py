"""pms benchmark: one workload, end to end or traced, in isolated processes.

    python3 perfbench/run.py --workload endo-calculus --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` the per-layer metrics of a traced run and the tracing
overhead.  Every operation's answer is checked exactly.  Human-readable lines
come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Detailed results go
to ``.perfbench-out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("endo-calculus", "family-sweep", "cocycle-search", "cli-cold")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
BARE_START_RUNS = 5


class BenchError(Exception):
    """A run that cannot produce a result."""


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile leaving at least ten of ``min_samples`` above.

    A run always has at least ``min_samples`` samples, in whole rounds of a
    fixed mix, so the percentile is fixed per workload and does not jump when
    a faster program fits more rounds into the run.
    """
    for q in TAIL_LADDER:
        if math.floor(min_samples * (1 - q / 100) + 1e-9) >= 10:
            return q
    raise BenchError(f"{min_samples} samples cannot leave ten above a percentile")


def nearest_rank(samples: list[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def bare_start_s() -> float:
    """Median start-and-exit time of a bare interpreter: the floor of cli-cold."""
    times = []
    for _ in range(BARE_START_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_child(workload: str, seed: int, seconds: float, mode: str,
              deadline: float) -> tuple[float, float, dict | None]:
    """Run one harness process.

    Returns the raw set-up seconds, the calibration scale measured during
    set-up, and the report (None in ``setup`` mode).
    """
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    t0 = time.perf_counter()
    # a session of its own, so a timeout also stops the CLI processes it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.wait()
    ready = first.split()
    if proc.returncode != 0 or ready[:1] != ["READY"]:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}")
    scale = float(ready[1])
    if mode == "setup":
        return setup_s, scale, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{mode} process for {workload} printed no result")
    return setup_s, scale, json.loads(lines[-1][len("RESULT "):])


def _failures(records) -> list[str]:
    return [f"{r['label']}: {r['status']}: {r['message']}"
            for r in records if r["status"] != "pass"]


def _timings(setups, latencies, passed, q) -> dict:
    tail = nearest_rank(latencies, q)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (passed / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
    }


def end_to_end(workload, seed, seconds, deadline) -> dict:
    """Set up ``SETUP_SAMPLES`` times, run once, and derive the metrics."""
    samples = [run_child(workload, seed, seconds, "setup", deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    samples.append(run_child(workload, seed, seconds, "run", deadline))
    report = samples[-1][2]
    records = report["records"]
    checked = report["warmup"] + records
    passed = sum(r["status"] == "pass" for r in records)
    failed = sum(r["status"] != "pass" for r in checked)
    q = tail_percentile(report["min_samples"])
    metrics = _timings([s * k for s, k, _ in samples],
                       [r["calibrated_s"] for r in records], passed, q)
    metrics["pass_ratio"] = (1 - failed / len(checked), "ratio")
    metrics["peak_rss_mb"] = (report["peak_rss_kb"] / 1024, "MB")
    raw = _timings([s for s, _, _ in samples],
                   [r["latency_s"] for r in records], passed, q)
    tail = metrics["op_tail_ms"][0] / 1000
    return {
        "attempted": len(checked),
        "failed": failed,
        "wrong": sum(r["status"] == "wrong" for r in checked),
        "metrics": metrics,
        "notes": {
            "raw": {name: value for name, (value, _) in raw.items()},
            "setup_scales": [k for _, k, _ in samples],
            "tail_percentile": q,
            "samples": len(records),
            "samples_above_tail": sum(r["calibrated_s"] > tail for r in records),
            "fail_ratio": failed / len(checked),
            "rounds": report["rounds"],
            "measure_s": report["measure_s"],
        },
        "failures": _failures(checked),
        "records": records,
    }


def traced(workload, seed, seconds, deadline) -> dict:
    """A traced run and an untraced replay of the same operations."""
    sys.path.insert(0, str(HERE))
    import tracing

    tr_report = run_child(workload, seed, seconds, "trace", deadline)[2]
    un_report = run_child(workload, seed, seconds, "replay", deadline)[2]
    records, replay = tr_report["records"], un_report["records"]
    checked = tr_report["warmup"] + records
    checked_replay = un_report["warmup"] + replay
    if [r["inputs"] for r in checked] != [u["inputs"] for u in checked_replay]:
        raise BenchError("traced and untraced runs got different inputs")
    failures = _failures(checked) + _failures(checked_replay)
    failed = 0
    for r, u in zip(checked, checked_replay):
        if r["digest"] != u["digest"]:
            failures.append(f"{r['label']}: traced answer differs from untraced")
        failed += not (r["status"] == u["status"] == "pass"
                       and r["digest"] == u["digest"])
    aggregate = tr_report["aggregate"]
    traced_s = sum(r["calibrated_s"] for r in records)
    plain_s = sum(u["calibrated_s"] for u in replay)
    # span times are raw; calibrate them with the traced run's overall factor
    factor = traced_s / sum(r["latency_s"] for r in records)
    metrics = {
        name: (value * factor if unit == "s" else value, unit)
        for name, (value, unit) in tracing.layer_metrics(aggregate).items()
    }
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return {
        "attempted": len(checked),
        "failed": failed,
        "wrong": sum(r["status"] == "wrong" for r in checked + checked_replay)
        + sum(r["digest"] != u["digest"] for r, u in zip(checked, checked_replay)),
        "metrics": metrics,
        "notes": {
            "samples": len(records),
            "traced_s": traced_s,
            "untraced_s": plain_s,
            "calibration_factor": factor,
            "spans_stored": aggregate["spans_stored"],
            "spans_dropped": aggregate["spans_dropped"],
            "spans_files": tr_report["spans_files"],
            "span_totals": aggregate["spans"],
            "counters": aggregate["counters"],
        },
        "failures": failures,
        "records": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (ROOT / "src" / "pms" / "cli.py").is_file():
        print(f"error: no pms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "bare_start_s": bare_start_s(),
    }
    measure = traced if args.trace else end_to_end
    try:
        summary = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    notes = summary["notes"]
    print(f"pms benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; python {env['python']}, nproc {env['nproc']}, "
          f"bare interpreter start {env['bare_start_s'] * 1000:.1f} ms")
    for name, (value, unit) in summary["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  op_tail_ms is p{notes['tail_percentile']:g} of {notes['samples']} "
              f"samples ({notes['samples_above_tail']} above it); fail_ratio "
              f"{notes['fail_ratio']:.6g} ({summary['failed']} of "
              f"{summary['attempted']} failed); setup_s is the median of "
              f"{SETUP_SAMPLES} set-ups")
        print("  times are calibrated to the reference kernel (calibrate.py); raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in notes["raw"].items()))
    for line in summary["failures"][:25]:
        print(f"  failure: {line}")

    result = {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in summary["metrics"].items()
        },
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    detail = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(
        {"result": result, "env": env, "notes": notes,
         "failures": summary["failures"], "records": summary["records"]},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
