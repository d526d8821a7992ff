#!/usr/bin/env python3
"""cfstereo benchmark: stereo-pair latency, peak memory and accuracy.

    python3 perfbench/run.py --workload desk|mid|large|all --seed N \\
        --seconds S --trace 0|1

A closed loop: one client in one fresh process matches one pair at a time
and waits for each result. --trace 0 prints the end-to-end metrics; setup_s
is the median of several fresh processes that each import cfstereo, load
the config and run one warm-up pair. --trace 1 runs traced and untraced
pairs alternately and prints the per-layer metrics; the spans go to
.bench_out/<workload>/trace.json. Every pair's output is checked. A pair
that raised or gave invalid outputs is listed, counted in `failed`, and
makes `correct` false. Desk pairs with valid outputs that miss a criterion
5 or 6 bound are quality misses: listed and reported as
quality_miss_fraction, not counted in `failed`.

The last stdout line is the result JSON for the (last) workload. Each run
is also saved under .bench_out/runs/ for compare.py. --tiny shrinks every
workload to 128x256 for the smoke test (perfbench/test_smoke.py).

Seeds 1-30 were used while tuning; seed 7919 is held out for checking
later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0  # whole run, all worker processes included


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CFSTEREO_THREADS"] = str(WORKLOADS[args.workload]["threads"])
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
        "--workdir", str(OUT / args.workload),
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples beyond it; None (omitted)
    when the run has too few pairs."""
    n = len(times)
    if n < 11:
        return None
    return {"value": sorted(times)[n - 11], "unit": "s", "percentile": 100.0 * (n - 10) / n, "samples": n}


def run_workload(args, deadline: float) -> tuple[dict, dict]:
    declared = declared_metrics()
    if args.trace:
        result = run_worker(args, "trace", deadline)
        units = declared["per_layer"]
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in units.items() if name in result["layers"]}
        report = dict(result.get("report", {}))
    else:
        result = run_worker(args, "measure", deadline)
        setups = [result["setup_s"]]
        for _ in range(WORKLOADS[args.workload]["setup_samples"] - 1):
            setups.append(run_worker(args, "setup", deadline)["setup_s"])
        times = result["pair_s"]
        values = {
            "pairs_per_s": result["pairs_per_s"],
            "pair_s.p50": statistics.median(times) if times else None,
            "pair_ref.p50": statistics.median(t / r for t, r in zip(times, result["ref_s"])) if times else None,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            **{name: m["value"] for name, m in result["accuracy"].items()},
        }
        units = declared["end_to_end"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if values.get(name) is not None}
        # Printed with the declared metrics but not bounded: their spread
        # across seeds is wider than any bound BENCHMARK.json may set.
        report = {name: {"value": v, "unit": u} for name, v, u in (
            ("pairs_per_s", values["pairs_per_s"], "1/s"),
            ("pair_s.p50", values["pair_s.p50"], "s"),
            ("ref_s.p50", statistics.median(result["ref_s"]) if times else None, "s"),
        ) if name not in units and v is not None}
        report.update({name: m for name, m in result["accuracy"].items() if name not in units})
        report["pair_s.tail"] = tail(times)
        report["accuracy_pairs"] = {"value": WORKLOADS[args.workload]["accuracy_pairs"], "unit": "count"}
        report["setup_s.samples"] = setups
        report["pair_s"] = times
        report["ref_s"] = result["ref_s"]
    attempted, failures, misses = result["attempted"], result["failures"], result["misses"]
    report["failed_fraction"] = {"value": len(failures) / attempted, "unit": "fraction"}
    report["quality_miss_fraction"] = {"value": len(misses) / attempted, "unit": "fraction"}
    report["failures"] = failures
    report["quality_misses"] = misses
    final = {
        "correct": not failures and len(metrics) == len(units),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return final, report


def print_report(args, final: dict, report: dict) -> None:
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={final['attempted']} failed={final['failed']} correct={final['correct']}")
    for name, m in list(final["metrics"].items()) + list(report.items()):
        if name in ("failures", "quality_misses", "pair_s", "ref_s") or m is None:
            continue
        if isinstance(m, dict):
            more = "".join(f" {k}={v:.6g}" for k, v in m.items() if k not in ("value", "unit"))
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}{more}")
        else:
            print(f"  {name:42s} {json.dumps(m)}")
    for label, key in (("FAILED", "failures"), ("QUALITY MISS", "quality_misses")):
        for f in report[key]:
            print(f"  {label} pair {f['pair']} ({f['spec']}, scene seed {f['scene_seed']}): "
                  f"{'; '.join(f['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="128x256 pairs on every workload (smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cfstereo" / "__init__.py").is_file():
        print(f"error: no cfstereo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    line = None
    for name in names:
        args.workload = name
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            final, report = run_workload(args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(args, final, report)
        (OUT / "runs").mkdir(parents=True, exist_ok=True)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny, "result": final, "report": report}
        path = OUT / "runs" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        line = json.dumps(final)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
