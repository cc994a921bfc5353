"""Run one forcing-lab CLI command with the benchmark's span recorder.

Behaves like ``python3 -m forcing_lab ARGS`` (same stdout, stderr and exit
code) and also writes the command's spans and per-layer metrics as JSON to
``--out``. The package must be importable (``PYTHONPATH=src``).

    python3 bench/cli_traced.py --out FILE --op N [--memory] -- ARGS...

``--memory`` also records the tracemalloc peaks of build and verify.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from forcing_lab import cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = args.op
    tracer.memory = args.memory
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        Path(args.out).write_text(json.dumps({"spans": tracer.spans,
                                              "layers": tracer.take_pass(0)}))


if __name__ == "__main__":
    sys.exit(main())
