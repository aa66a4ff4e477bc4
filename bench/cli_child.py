"""Run one ordcone CLI command with the bench tracer installed.

Usage: python bench/cli_child.py TRACE_FILE ARG...

ARG... is the argv of ``python -m ordcone.cli``.  The command's stdout,
stderr and exit code are passed through unchanged; the import time, the
time inside ``ordcone.cli.main``, the call counters and the spans go to
TRACE_FILE as JSON.  The cli-mix workload starts this script in place of
``python -m ordcone.cli`` for traced runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    started = time.perf_counter()
    cli = importlib.import_module("ordcone.cli")
    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    span = tracer.open_span("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close_span(span)
        sys.stdout.flush()
        main_s = tracer.spans[span][3] - tracer.spans[span][2]
        Path(trace_file).write_text(
            json.dumps(
                {
                    "import_s": import_s,
                    "main_s": main_s,
                    "counts": tracer.counts,
                    "spans": tracer.spans,
                }
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
