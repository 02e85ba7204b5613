"""Traced stand-in for ``python -m pms.cli``: one CLI command per process.

    python3 perfbench/cli_worker.py --out PREFIX --op N -- <pms arguments>

Times the import of ``pms.cli`` (every layer), installs the same wrappers as
the library workloads, then calls ``pms.cli.main(argv)`` exactly as the
``pms`` entry point does: its return value becomes the exit code, and an
uncaught exception still prints its traceback and exits 1.  The aggregate is
written to ``PREFIX.json`` and the spans to ``PREFIX.spans`` on the way out.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    split = sys.argv.index("--")
    own, argv = sys.argv[1:split], sys.argv[split + 1:]
    out = Path(own[own.index("--out") + 1])
    op_id = int(own[own.index("--op") + 1])

    sys.path.insert(0, str(HERE.parent / "src"))
    start = time.perf_counter()
    import pms.cli
    import_s = time.perf_counter() - start

    import tracing

    tracer = tracing.Tracer()
    tracer.import_s.append(import_s)
    tracing.install(tracer)
    tracer.op = op_id
    tracer.on = True
    try:
        code = pms.cli.main(argv)
    finally:
        tracer.on = False
        out.with_suffix(".json").write_text(json.dumps(tracer.aggregate()))
        tracer.write_spans(out.with_suffix(".spans"))
    sys.exit(code)


if __name__ == "__main__":
    main()
