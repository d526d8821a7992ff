#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RUNS_DIR CHANGE_RUNS_DIR

Each directory holds the run records run.py saves under .bench_out/runs/.
Runs of the same workload and seed on both sides form a pair. For every
workload and metric it prints each side's median and quartiles, the share
of pairs the change won (ties count for neither) and, for end-to-end
metrics, a verdict against the bound in BENCHMARK.json:

  improved    the change won at least 9/10 of at least 10 pairs and the
              medians differ by more than the parent's interquartile range
  no worse    the change's median is within the bound of the parent's, and
              the parent's spread is within the bound (or every change run
              beats every parent run)
  worse       the median is worse by more than the bound, spread within it
  unresolved  the parent's spread is wider than the bound

Run at least ten pairs, alternating which side runs first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """(workload, trace) -> metric -> {seed: value}."""
    runs = defaultdict(lambda: defaultdict(dict))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, metric in record["result"]["metrics"].items():
            runs[(record["workload"], record["trace"])][name][record["seed"]] = metric["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    won = f"{wins}/{len(seeds)}"
    if bound is None:
        return won, "-"
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gain > 0 and abs(c_med - p_med) > p_q3 - p_q1:
        return won, "improved"
    if all(sign * (c - p) > 0 for c in change.values() for p in parent.values()):
        return won, "no worse"
    if spread > bound:
        return won, "unresolved"
    return won, "worse" if -gain > bound else "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: (m, 0) for m in spec["end_to_end"]}
    declared.update({m["name"]: (m, 1) for m in spec["per_layer"]})
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':8s} {'metric':42s} {'unit':8s} {'parent q1/median/q3':34s} "
          f"{'change q1/median/q3':34s} {'won':7s} verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, (metric, trace) in declared.items():
            p = parent[(workload, trace)].get(name, {})
            c = change[(workload, trace)].get(name, {})
            if not p or not c:
                continue
            won, result = verdict(p, c, metric["better"], metric.get("bound"))
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(list(v.values())))
            print(f"{workload:8s} {name:42s} {metric['unit']:8s} {fmt(p):34s} {fmt(c):34s} {won:7s} {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
