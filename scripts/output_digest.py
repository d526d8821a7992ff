#!/usr/bin/env python3
"""Print one SHA-256 digest over the pipeline outputs of a fixed set of runs.

Two trees give the same digest only if every run's disparity and
uncertainty maps are byte-identical, so comparing the line printed at two
commits checks that a change kept the outputs exactly. The digest pins the
float32-volume pipeline (float32 cost volumes, float64 cost and maps); it
is not the digest of an all-float64 run. The set covers desk
scenes 0-19 under `desk_config()` with fusion on, with fusion off, and with
(1,1,1) smoothing over two passes, plus one 256x512 two-plane scene at
dmax 256.

    PYTHONPATH=src python3 scripts/output_digest.py
"""

import hashlib
import sys
import time
from dataclasses import replace

from cfstereo.benchmarks import desk_config, desk_scene
from cfstereo.cascade import run_pipeline
from cfstereo.synth import random_dot_stereogram


def cases():
    cfg = desk_config()
    variants = (
        cfg,
        replace(cfg, fusion_enabled=False),
        replace(cfg, fusion_smooth_radius=(1, 1, 1), fusion_passes=2),
    )
    for variant in variants:
        for seed in range(20):
            yield desk_scene(seed), variant
    yield random_dot_stereogram(256, 512, "two-plane:20,90", 5), replace(cfg, pipeline_dmax=256)


def main() -> int:
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    count = 0
    for scene, cfg in cases():
        out = run_pipeline(scene.left, scene.right, cfg)
        digest.update(out.disparity.tobytes())
        digest.update(out.uncertainty.tobytes())
        count += 1
    elapsed = time.perf_counter() - t0
    print(f"{digest.hexdigest()}  ({count} runs, {elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
