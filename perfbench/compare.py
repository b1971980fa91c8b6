"""Per-layer comparison of two benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding a result of perfbench/run.py (its last stdout
line, or the file written with --out), normally of traced runs of one
workload on two commits.  Each metric is printed with its base value, its new
value and the change, absolute and relative to the base.
"""

from __future__ import annotations

import argparse
import json
import sys


def read_result(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: no result line")
    return json.loads(lines[-1])


def rows(base: dict, new: dict) -> list[tuple]:
    """(metric, unit, base value, new value, change, relative change) for every
    metric either result has; a missing side reads None."""
    out = []
    names = list(base["metrics"]) + [m for m in new["metrics"] if m not in base["metrics"]]
    for name in names:
        b, n = base["metrics"].get(name), new["metrics"].get(name)
        unit = (b or n)["unit"]
        bv = b["value"] if b else None
        nv = n["value"] if n else None
        change = nv - bv if bv is not None and nv is not None else None
        relative = change / abs(bv) if change is not None and bv else None
        out.append((name, unit, bv, nv, change, relative))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = read_result(args.base), read_result(args.new)

    def fmt(v):
        return "-" if v is None else f"{v:.6g}"

    print(f"{'metric':30} {'unit':6} {'base':>12} {'new':>12} {'change':>12} {'rel':>8}")
    for name, unit, bv, nv, change, relative in rows(base, new):
        rel = "-" if relative is None else f"{relative:+.1%}"
        print(f"{name:30} {unit:6} {fmt(bv):>12} {fmt(nv):>12} {fmt(change):>12} {rel:>8}")
    for label, result in (("base", base), ("new", new)):
        print(f"{label}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
