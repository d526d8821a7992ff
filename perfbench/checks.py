"""Inputs, output checks and accuracy scores for the benchmark workloads.

Scenes come from cfstereo.synth / cfstereo.benchmarks and are seeded by
the run's --seed; the matcher only ever sees the generated images.
"""

from __future__ import annotations

import numpy as np

from cfstereo.benchmarks import DESK_SPECS, SQRT_U_THRESHOLD, add_noise, desk_scene, interior_mask
from cfstereo.metrics import avg_error, bad_tau, coverage_rate, d1_all, downsample_gt, filtered_metrics
from cfstereo.synth import random_dot_stereogram

NOISE_SIGMA = 0.05


def scene_spec(k: int, width: int) -> str:
    """Desk spec k (rotating), disparities scaled from 256 px to `width`."""
    kind, _, values = DESK_SPECS[k % len(DESK_SPECS)].partition(":")
    return kind + ":" + ",".join(str(int(v) * width // 256) for v in values.split(","))


def make_scene(workload: str, shape, seed: int, k: int):
    """Pair k of a run; desk pairs alternate clean and noisy."""
    scene_seed = seed * 1000 + k
    spec = scene_spec(k, shape[1])
    if workload == "desk":
        scene = desk_scene(scene_seed, spec)
        return add_noise(scene, NOISE_SIGMA) if is_noisy(workload, k) else scene
    return random_dot_stereogram(shape[0], shape[1], spec, scene_seed)


def is_noisy(workload: str, k: int) -> bool:
    return workload == "desk" and k % 2 == 1


def check_output(disp, unc, shape, dmax: int) -> list[str]:
    """Problems with one pair's outputs; empty when they pass."""
    disp = np.asarray(disp)
    unc = np.asarray(unc)
    if disp.shape != tuple(shape) or unc.shape != tuple(shape):
        return [f"output shapes {disp.shape}/{unc.shape} differ from input {tuple(shape)}"]
    problems = []
    if not np.isfinite(disp).all():
        problems.append("disparity has non-finite values")
    elif disp.min() < 0 or disp.max() >= dmax:
        problems.append(f"disparity range [{disp.min()}, {disp.max()}] outside [0, {dmax})")
    if not np.isfinite(unc).all():
        problems.append("uncertainty has non-finite values")
    elif unc.min() < 0:
        problems.append(f"uncertainty has negative values (min {unc.min()})")
    return problems


def score_pair(scene, disp, unc, stage1_planes) -> dict:
    """Accuracy on the interior mask, as evaluate_scene measures it."""
    interior = interior_mask(scene)
    gt_interior = np.where(interior, scene.gt, 0.0)
    filt = filtered_metrics(disp, gt_interior, unc, SQRT_U_THRESHOLD)
    gt_half = downsample_gt(np.where(scene.valid, scene.gt, 0.0), 2)
    return {
        "median_err_px": float(np.median(np.abs(disp - scene.gt)[interior])),
        "bad2": bad_tau(disp, gt_interior, 2.0),
        "d1_all": d1_all(disp, gt_interior),
        "avg_error_px": avg_error(disp, gt_interior),
        "d1_kept": filt.d1_kept,
        "kept_fraction": filt.kept_fraction,
        "coverage": coverage_rate(gt_half, stage1_planes),
    }


def check_scores(workload: str, k: int, scores: dict) -> list[str]:
    """Desk bounds: criterion 5 on clean pairs, criterion 6 on noisy ones."""
    if workload != "desk":
        return []
    problems = []
    if is_noisy(workload, k):
        if scores["d1_kept"] > scores["d1_all"] + 1e-12:
            problems.append(f"filtering raised D1 {scores['d1_all']} -> {scores['d1_kept']}")
    else:
        if scores["median_err_px"] > 1.0:
            problems.append(f"median abs error {scores['median_err_px']} px > 1")
        if scores["coverage"] < 0.95:
            problems.append(f"stage-1 coverage {scores['coverage']} < 0.95")
    return problems


def cascade_stats(out, min_step: float) -> dict:
    """Window widths, floor share and sqrt(U) spread from PipelineOutput.stages."""
    stats = {}
    for stage in out.stages[1:]:
        values = stage.planes.values
        width = values[-1] - values[0]
        floor = (values.shape[0] - 1) * min_step
        name = f"stage{stage.scale}"
        stats[f"floor_share.{name}"] = float(np.mean(width <= floor + 1e-9))
        stats[f"window_px.p50.{name}"] = float(np.median(width)) * (1 << stage.scale)
    sqrtu = np.sqrt(out.uncertainty)
    stats["sqrtu.p50"] = float(np.percentile(sqrtu, 50))
    stats["sqrtu.p90"] = float(np.percentile(sqrtu, 90))
    return stats
