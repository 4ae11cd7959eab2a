#!/usr/bin/env python
"""Replay the cached paper runs and check that today's code reproduces them.

Every ``results/cache/*.json`` cell (except ``sweep_manifest.json``) is one
tuning run keyed by ``benchmark|tuner|budget|seed|fidelity``.  The key carries
no code version, so this script reruns each cell from scratch with
``run_single(..., use_cache=False)`` and compares its ``evaluations`` with the
cached JSON, value for value.  It writes nothing and exits non-zero, naming
every diverging cell, when any rerun differs:

    python scripts/verify_cache.py                     # all cells
    python scripts/verify_cache.py results/cache/hpvm_bfs__*.json

The reruns use the default experiment configuration (``REPRO_*`` environment
variables apply, as for the sweep that built the cache) on two worker
processes.
"""

from __future__ import annotations

import json
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.config import default_config  # noqa: E402
from repro.experiments.runner import run_single  # noqa: E402

_BUDGET = re.compile(r"__b(\d+)__")
_WORKERS = 2


def _replay(path: Path) -> tuple[str, str | None, float]:
    """Rerun one cached cell; return ``(name, divergence or None, seconds)``."""
    cached = json.loads(path.read_text())
    match = _BUDGET.search(path.name)
    if match is None:
        return path.name, "no budget in the file name", 0.0
    start = time.perf_counter()
    history = run_single(
        cached["benchmark"],
        cached["tuner"],
        int(match.group(1)),
        int(cached["seed"]),
        config=replace(default_config(), use_cache=False),
    )
    elapsed = time.perf_counter() - start
    fresh = history.to_dict()["evaluations"]
    if json.dumps(fresh) == json.dumps(cached["evaluations"]):
        return path.name, None, elapsed
    for i, (a, b) in enumerate(zip(fresh, cached["evaluations"])):
        if json.dumps(a) != json.dumps(b):
            return path.name, f"first differs at evaluation {i}", elapsed
    return path.name, f"{len(fresh)} evaluations, cached {len(cached['evaluations'])}", elapsed


def main(argv: list[str]) -> int:
    if argv:
        cells = sorted(Path(arg) for arg in argv)
    else:
        cells = sorted((ROOT / "results" / "cache").glob("*.json"))
    cells = [p for p in cells if p.name != "sweep_manifest.json"]
    if not cells:
        print("no cached cells found", file=sys.stderr)
        return 1
    diverging: list[str] = []
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=_WORKERS) as pool:
        for name, problem, seconds in pool.map(_replay, cells):
            if problem is None:
                print(f"ok       {name} ({seconds:.1f} s)", flush=True)
            else:
                print(f"DIVERGED {name}: {problem}", flush=True)
                diverging.append(name)
    elapsed = time.perf_counter() - start
    print(
        f"{len(cells) - len(diverging)}/{len(cells)} cells reproduced "
        f"in {elapsed:.0f} s"
    )
    if diverging:
        print("diverging cells:", *diverging, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
