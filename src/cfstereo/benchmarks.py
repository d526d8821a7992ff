"""Desk-scale evaluation harness: seeded scenes, pipeline, oracle, metrics.

Shared by the experiment scripts and the acceptance suite so both measure
exactly the same quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cascade import PipelineOutput, run_pipeline
from .config import RunConfig
from .metrics import (
    FilteredMetrics,
    bad_tau,
    coverage_rate,
    d1_all,
    downsample_gt,
    filtered_metrics,
)
from .synth import SyntheticScene, block_match_oracle, random_dot_stereogram

DESK_SPECS = ("constant:12", "two-plane:8,24", "slanted:6,20")
DESK_SHAPE = (128, 256)
DESK_DMAX = 64
SQRT_U_THRESHOLD = 2.5
INTERIOR_MARGIN = 16  # px dropped at each border before scoring
ORACLE_RADIUS = 4  # block-match oracle's SAD window radius


def desk_config() -> RunConfig:
    """Configuration used by the desk-scale experiments (dmax 64).

    Cost weights act as a softmax temperature: 12.0 keeps the plane
    distribution peaked enough for sharp sub-plane estimates while leaving
    the variance informative for the filtering experiments. Plane-axis
    smoothing is off so pooling does not wash out the cost minimum.
    """
    return replace(
        RunConfig(),
        pipeline_dmax=DESK_DMAX,
        cost_w_group=12.0,
        cost_w_absdiff=12.0,
        fusion_smooth_radius=(0, 2, 2),
        cascade_beta=(0.5, 0.25),
    )


def desk_scene(seed: int, spec: str | None = None) -> SyntheticScene:
    if spec is None:
        spec = DESK_SPECS[seed % len(DESK_SPECS)]
    return random_dot_stereogram(DESK_SHAPE[0], DESK_SHAPE[1], spec, seed)


def add_noise(scene: SyntheticScene, sigma: float) -> SyntheticScene:
    """Independent clipped Gaussian noise on both images, seeded by the scene."""
    rng = np.random.default_rng(900_000 + scene.seed)
    left = np.clip(scene.left + rng.normal(0.0, sigma, scene.left.shape), 0.0, 1.0)
    right = np.clip(scene.right + rng.normal(0.0, sigma, scene.right.shape), 0.0, 1.0)
    return replace(scene, left=left, right=right)


def interior_mask(scene: SyntheticScene) -> np.ndarray:
    m = np.zeros_like(scene.valid)
    m[INTERIOR_MARGIN:-INTERIOR_MARGIN, INTERIOR_MARGIN:-INTERIOR_MARGIN] = True
    return m & scene.valid


@dataclass(frozen=True)
class SceneReport:
    spec: str
    seed: int
    median_abs_err: float
    bad2: float
    oracle_bad2: float
    coverage: float
    d1: float
    filtered: FilteredMetrics


def evaluate_scene(scene: SyntheticScene, config: RunConfig) -> tuple[SceneReport, PipelineOutput]:
    out = run_pipeline(scene.left, scene.right, config)
    interior = interior_mask(scene)
    gt_interior = np.where(interior, scene.gt, 0.0)

    err = np.abs(out.disparity - scene.gt)
    median_err = float(np.median(err[interior])) if interior.any() else float("nan")
    bad2 = bad_tau(out.disparity, gt_interior, 2.0)
    d1 = d1_all(out.disparity, gt_interior)
    filt = filtered_metrics(out.disparity, gt_interior, out.uncertainty, SQRT_U_THRESHOLD)

    oracle = block_match_oracle(scene.left, scene.right, config.pipeline_dmax, ORACLE_RADIUS)
    oracle_bad2 = bad_tau(oracle, gt_interior, 2.0)

    stage1 = out.stages[-1]
    gt_half = downsample_gt(np.where(scene.valid, scene.gt, 0.0), 2)
    coverage = coverage_rate(gt_half, stage1.planes)

    report = SceneReport(
        spec=scene.spec,
        seed=scene.seed,
        median_abs_err=median_err,
        bad2=bad2,
        oracle_bad2=oracle_bad2,
        coverage=coverage,
        d1=d1,
        filtered=filt,
    )
    return report, out


def stagewise_bad2(scene: SyntheticScene, out: PipelineOutput, tau: float = 2.0) -> list[float]:
    """bad-tau in full-resolution units for stages 3, 2, 1 and the final map."""
    values = []
    for stage in out.stages:
        factor = 1 << stage.scale
        gt_ds = downsample_gt(np.where(scene.valid, scene.gt, 0.0), factor)
        pred_full_units = stage.disparity * factor
        gt_full_units = gt_ds * factor
        values.append(bad_tau(pred_full_units, gt_full_units, tau))
    values.append(bad_tau(out.disparity, np.where(scene.valid, scene.gt, 0.0), tau))
    return values
