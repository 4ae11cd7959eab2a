"""Compare two reports written by ``run.py --out``, only when their sizes match.

Usage::

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both reports with the ratio after / before.  Exits
with code 1, comparing nothing, when the workloads were run at different
sizes (tuner, policy, budgets, session counts, connections, registry cap):
a quick run measured against a full-size one says nothing about a change.
The seed and the number of passes may differ; each pass has the same mix.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: recorded beside the sizes but free to differ between comparable runs
FREE = ("seed", "passes")


def comparable_sizes(report: dict) -> dict:
    return {k: v for k, v in report["context"]["sizes"].items() if k not in FREE}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    if comparable_sizes(before) != comparable_sizes(after):
        print("error: the reports were run at different sizes:", file=sys.stderr)
        for report, label in ((before, argv[0]), (after, argv[1])):
            print(f"  {label}: {json.dumps(comparable_sizes(report), sort_keys=True)}",
                  file=sys.stderr)
        return 1
    old, new = before["result"]["metrics"], after["result"]["metrics"]
    for name in (name for name in old if name in new):
        a, b = old[name]["value"], new[name]["value"]
        ratio = f"{b / a:8.3f}x" if a else "      n/a"
        print(f"{name:32s} {a:14.6g} {b:14.6g} {ratio} {old[name]['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
