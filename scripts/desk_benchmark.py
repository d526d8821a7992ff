#!/usr/bin/env python3
"""Run the desk-scale benchmark: seeded random-dot scenes through the full
pipeline, scored against ground truth and the block-matching baseline.

Each row also shows how dropping high-variance pixels (sqrt(U) at or above
the threshold) changes D1. With --sigma above 0, Gaussian noise is added to
both images first.
"""

import argparse
import sys
import time

import numpy as np

from cfstereo.benchmarks import add_noise, desk_config, desk_scene, evaluate_scene


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="number of seeded scenes")
    parser.add_argument("--sigma", type=float, default=0.0, help="image noise std dev")
    args = parser.parse_args(argv)

    cfg = desk_config()
    rows, reductions = [], []
    t0 = time.time()
    for seed in range(args.seeds):
        scene = desk_scene(seed)
        if args.sigma > 0:
            scene = add_noise(scene, args.sigma)
        report, _ = evaluate_scene(scene, cfg)
        f = report.filtered
        rel = (report.d1 - f.d1_kept) / report.d1 if report.d1 > 0 else 0.0
        rows.append(report)
        reductions.append(rel)
        print(
            f"seed={seed:3d} spec={report.spec:16s} median={report.median_abs_err:6.3f}px "
            f"bad2={report.bad2:7.4f} oracle_bad2={report.oracle_bad2:7.4f} "
            f"coverage={report.coverage:6.4f} d1={report.d1:7.4f} "
            f"d1_kept={f.d1_kept:7.4f} kept={f.kept_fraction:6.4f} reduction={rel:7.2%}"
        )
    elapsed = time.time() - t0
    print("-" * 88)
    print(
        f"worst median={max(r.median_abs_err for r in rows):.3f}px  "
        f"worst bad2 gap={max(r.bad2 - r.oracle_bad2 for r in rows):+.4f}  "
        f"min coverage={min(r.coverage for r in rows):.4f}  "
        f"({elapsed:.1f}s for {len(rows)} scenes)"
    )
    print(f"mean relative D1 reduction: {np.mean(reductions):.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
