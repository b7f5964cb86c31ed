"""`python -m phodge.cli` with the benchmark's trace installed.

    python perfbench/cli_shim.py <phodge cli arguments>

Installs the wrappers of layertrace.py, runs phodge.cli.main with the given
arguments, and on exit writes the per-layer metrics (and the spans) to the
files named by PERFBENCH_TRACE_OUT and PERFBENCH_SPANS_OUT.  Standard output
and the exit code are those of the CLI, so the traced commands are checked
against the same references as the untraced ones.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layertrace  # noqa: E402

import phodge.cli  # noqa: E402


def main() -> int:
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return phodge.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        out = os.environ.get("PERFBENCH_TRACE_OUT")
        if out:
            Path(out).write_text(json.dumps(tracer.metrics()))
        spans = os.environ.get("PERFBENCH_SPANS_OUT")
        if spans:
            tracer.write_spans(Path(spans))


if __name__ == "__main__":
    sys.exit(main())
