"""Run one ``repro`` server command with its layers traced.

Usage::

    python benchmarks/e2e/node.py TRACE_DIR serve ref.fa [serve flags ...]
    python benchmarks/e2e/node.py TRACE_DIR route --backends HOST:PORT ...

Wraps the public entry points of each layer (see ``tracing.py``), calls
``repro.cli.main`` with the rest of the command line, and writes the
process's spans to ``TRACE_DIR`` when the command returns. ``run.py
--trace 1`` launches its servers through this file; ``src/`` on
``PYTHONPATH`` supplies ``repro``.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    directory, command = argv[0], argv[1:]
    tracer = tracing.Tracer(directory)
    if command[0] == "route":
        tracing.install_router(tracer)
    else:
        tracing.install_server(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(command)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
