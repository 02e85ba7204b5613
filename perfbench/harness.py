"""One workload process: set-up, operations, checks, and a JSON report.

Run by ``run.py``, one process per workload run, so caches and peak memory
belong to that run alone::

    python3 perfbench/harness.py --workload endo-calculus --seed 1 \
        --seconds 15 --mode run

Modes:
  setup   set up, print ``READY`` and exit (repeated set-up samples);
  run     set up, then time whole rounds until ``--seconds`` have passed and
          at least the workload's minimum number of rounds is done;
  trace   like ``replay`` but with every layer wrapped by ``tracing``;
  replay  set up, then run exactly the workload's traced rounds, untraced.

The process prints ``READY <scale>`` when set-up ends, just before the first
timed operation, and ``RESULT <json>`` as its last line.  ``<scale>`` is the
``calibrate`` factor measured during set-up; each operation record carries
its raw latency and its latency calibrated by the reference runs around it
(``calibrate.WINDOW_S``).  The answers of the warm-up and of the first rounds
are checked only once peak memory has been read, so the checkers' work is not
part of it; a failed warm-up operation is reported like a timed one.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def _status(op, answer, error):
    """(status, message): pass, wrong (wrong answer), contract or error."""
    if error is not None:
        return "error", error
    try:
        bad = op.check(answer)
    except Exception as exc:  # a malformed answer is a wrong answer
        return "wrong", f"checker raised {type(exc).__name__}: {exc}"
    return ("pass", "") if bad is None else bad


def _attempt(op):
    """Run ``op``: (answer, error message or None, seconds)."""
    t0 = time.perf_counter()
    try:
        answer, error = op.run(), None
    except Exception as exc:  # an operation that raises is a failure
        answer, error = None, f"{type(exc).__name__}: {exc}"
    return answer, error, time.perf_counter() - t0


def _settle(pending) -> None:
    """Check the pending answers and fill in their records' status."""
    for record, op, answer, error in pending:
        status, message = _status(op, answer, error)
        try:
            digest = op.digest(answer) if error is None else ""
        except Exception as exc:  # an answer of the wrong shape
            digest = ""
            status, message = "wrong", f"undigestable answer: {exc}"
        record.update(status=status, message=message, digest=digest)
    pending.clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "replay"))
    args = parser.parse_args(argv)

    import calibrate

    if hasattr(os, "sched_setaffinity"):
        # one core for this process and the CLI processes it starts, so the
        # reference kernel runs where the timed work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_refs = [calibrate.reference_s()]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import pms.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - start

    tracer = None
    traced_cli = args.mode == "trace" and args.workload == "cli-cold"
    if args.mode == "trace" and not traced_cli:
        import tracing

        tracer = tracing.Tracer()
        tracer.import_s.append(import_s)
        tracing.install(tracer)

    import workloads

    workdir = OUT / "work" / args.workload
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    spans_dir = OUT / "spans" / args.workload
    if traced_cli:
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("op-*"):
            old.unlink()
        workload.traced = True
        workload.trace_dir = spans_dir

    # answers wait here to be checked until peak memory has been read, so the
    # checkers' own work (oracle paths, their cache entries) is not counted
    pending = []
    warmup = []
    for op in workload.warmup():
        if tracer:
            tracer.on = True
        answer, error, _ = _attempt(op)
        if tracer:
            tracer.on = False
        warmup.append({"label": op.label, "inputs": workloads.sha(op.inputs)})
        pending.append((warmup[-1], op, answer, error))
        setup_refs.append(calibrate.reference_s())
    setup_refs.append(calibrate.reference_s())
    print(f"READY {calibrate.scale(setup_refs)!r}", flush=True)
    if args.mode == "setup":
        return 0

    fixed = args.mode != "run"
    rounds_wanted = workload.trace_rounds if fixed else workload.min_rounds
    records = []
    rounds = 0
    peak_kb = None
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    began = time.perf_counter()
    refs = [(time.perf_counter(), calibrate.reference_s())]
    while rounds < rounds_wanted or (
        not fixed and time.perf_counter() - began < args.seconds
    ):
        for op in workload.round(rounds):
            op_id = len(records)
            workload.op_id = op_id
            if tracer:
                tracer.op = op_id
                tracer.on = True
            start_s = time.perf_counter() - began
            answer, error, latency = _attempt(op)
            if tracer:
                tracer.on = False
            refs.append((time.perf_counter(), calibrate.reference_s()))
            record = {
                "label": op.label,
                "start_s": start_s,
                "latency_s": latency,
                "inputs": workloads.sha(op.inputs),
            }
            records.append(record)
            pending.append((record, op, answer, error))
            if peak_kb is not None:
                _settle(pending)
        rounds += 1
        if rounds == rounds_wanted:
            # fixed work, so the figure does not grow with the run's speed
            peak_kb = resource.getrusage(who).ru_maxrss
            _settle(pending)
    measure_s = time.perf_counter() - began
    stamps = [t - began for t, _ in refs]
    for record in records:
        lo = bisect.bisect_left(stamps, record["start_s"] - calibrate.WINDOW_S)
        hi = bisect.bisect_right(
            stamps, record["start_s"] + record["latency_s"] + calibrate.WINDOW_S)
        window = [ref for _, ref in refs[lo:hi]]
        record["calibrated_s"] = record["latency_s"] * calibrate.scale(window)

    report = {
        "workload": args.workload,
        "mode": args.mode,
        "rounds": rounds,
        "min_samples": workload.min_rounds * workload.round_size,
        "measure_s": measure_s,
        "peak_rss_kb": peak_kb,
        "warmup": warmup,
        "records": records,
    }
    if tracer:
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / "spans.bin"
        tracer.write_spans(spans_file)
        report["aggregate"] = tracer.aggregate()
        report["spans_files"] = [str(spans_file.relative_to(ROOT))]
    elif traced_cli:
        import tracing

        files = sorted(spans_dir.glob("op-*.json"))
        report["aggregate"] = tracing.merge(
            [json.loads(f.read_text()) for f in files])
        report["spans_files"] = [
            str(f.relative_to(ROOT)) for f in sorted(spans_dir.glob("op-*.spans"))
        ]
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
