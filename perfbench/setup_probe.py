"""One cold start of the in-process tuning path, for the ``setup_s`` metric.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/setup_probe.py BENCH[,BENCH...] TUNER BUDGET [POLICY]

Imports the package, builds every named benchmark (``get_benchmark`` runs
the expert search), starts a session on the first one and asks once.  It
then prints one JSON line with the time each step took inside the process;
the parent times the whole process from spawn to that line.
"""

import json
import sys
import time

started = time.perf_counter()
from repro.experiments.runner import make_session  # noqa: E402
from repro.workloads.registry import get_benchmark  # noqa: E402

imported = time.perf_counter()
names = sys.argv[1].split(",")
for name in names:
    get_benchmark(name)
built = time.perf_counter()
policy = sys.argv[4] if len(sys.argv) > 4 else None
session, _ = make_session(names[0], sys.argv[2], int(sys.argv[3]), 0, surrogate_policy=policy)
session.ask(1)
asked = time.perf_counter()
print(json.dumps({
    "import_s": imported - started,
    "benchmark_build_s": built - imported,
    "first_ask_s": asked - built,
}), flush=True)
