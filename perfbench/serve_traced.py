"""``python -m repro serve ...`` with the benchmark's spans installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py SPANS_OUT serve --tcp 0 [serve options]

Wraps the registry, session and checkpoint calls (see ``tracing.py``), runs
the package's own command line unchanged, and writes the recorded spans to
``SPANS_OUT`` when the server exits.
"""

import runpy
import sys
from pathlib import Path

from tracing import Tracer, wrap_server

if __name__ == "__main__":
    out = Path(sys.argv[1])
    tracer = Tracer()
    wrap_server(tracer)
    sys.argv = ["repro", *sys.argv[2:]]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        tracer.dump(out)
