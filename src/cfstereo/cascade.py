"""Uncertainty-driven coarse-to-fine disparity refinement.

Stage 3 decodes the fused dense volumes; stages 2 and 1 re-match inside a
per-pixel search window derived from the previous stage's estimate and its
variance, sampled with uniformly spaced hypothesis planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .cost_volume import HypothesisPlanes, soft_argmin, stream_cost, uncertainty
from .errors import PipelineError
from .features import LEVELS, build_pyramid
from .fusion import aggregate, fuse_volumes
from .tensor_ops import DTYPE, as_grid, bilinear_upsample2x

__all__ = [
    "RangeParams",
    "StageResult",
    "PipelineOutput",
    "uncertainty",
    "range_bounds",
    "next_range",
    "sample_planes",
    "run_pipeline",
]


@dataclass(frozen=True)
class RangeParams:
    """Search-window parameters per refinement step (stage 3->2, then 2->1).

    alpha scales the sqrt-variance term, beta adds constant slack; both
    default to 0 so the window is exactly one standard deviation wide each
    side. min_step keeps the sampled planes distinct when the variance
    collapses.
    """

    alpha: tuple[float, float] = (0.0, 0.0)
    beta: tuple[float, float] = (0.0, 0.0)
    min_step: float = 0.25
    plane_counts: tuple[int, int] = (16, 12)  # planes at stage 2, stage 1

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.alpha, *self.beta, self.min_step)):
            raise ValueError("alpha, beta and min_step must be finite")
        if any(a < -1.0 for a in self.alpha):
            raise ValueError("alpha must be >= -1")
        if any(b < 0.0 for b in self.beta):
            raise ValueError("beta must be >= 0")
        if self.min_step <= 0.0:
            raise ValueError("min_step must be > 0")
        if any(n < 2 for n in self.plane_counts):
            raise ValueError("plane counts must be >= 2")

    def for_stage(self, stage: int) -> tuple[float, float, int]:
        """(alpha, beta, next-stage plane count) for the step leaving `stage`."""
        if stage not in (3, 2):
            raise ValueError(f"no refinement step leaves stage {stage}")
        k = 0 if stage == 3 else 1
        return self.alpha[k], self.beta[k], self.plane_counts[k]


@dataclass(frozen=True, eq=False)
class StageResult:
    scale: int
    disparity: np.ndarray
    uncertainty: np.ndarray
    planes: HypothesisPlanes


@dataclass(frozen=True, eq=False)
class PipelineOutput:
    """Per-stage results (scales 3, 2, 1) plus the full-resolution maps."""

    stages: tuple[StageResult, ...]
    disparity: np.ndarray
    uncertainty: np.ndarray


def range_bounds(
    d_hat: np.ndarray, u: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Window around the estimate before any resampling or unit conversion:
    d_hat -+ ((alpha + 1) * sqrt(u) + beta)."""
    d = as_grid(d_hat)
    uu = as_grid(u)
    if d.shape != uu.shape:
        raise ValueError(f"shape mismatch: {d.shape} vs {uu.shape}")
    if (uu < 0).any():
        raise ValueError("uncertainty must be non-negative")
    half = (alpha + 1.0) * np.sqrt(uu) + beta
    return d - half, d + half


def next_range(
    d_hat: np.ndarray,
    u: np.ndarray,
    params: RangeParams,
    stage: int,
    dmax: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel search window at the next (finer) scale.

    Bounds are computed at the current scale, bilinearly upsampled 2x,
    doubled to convert disparity units, clamped to the representable range,
    and finally widened to at least (N-1)*min_step. The widening shifts
    inward at the borders so all N planes stay distinct.
    """
    alpha, beta, n_planes = params.for_stage(stage)
    lo, hi = range_bounds(d_hat, u, alpha, beta)
    lo = 2.0 * bilinear_upsample2x(lo)
    hi = 2.0 * bilinear_upsample2x(hi)
    d_top = dmax / (1 << (stage - 1)) - 1.0
    lo = np.clip(lo, 0.0, d_top)
    hi = np.clip(hi, 0.0, d_top)
    floor = min((n_planes - 1) * params.min_step, d_top)
    narrow = (hi - lo) < floor
    center = 0.5 * (lo + hi)
    lo = np.where(narrow, center - 0.5 * floor, lo)
    hi = np.where(narrow, center + 0.5 * floor, hi)
    shift = np.maximum(0.0, -lo)
    lo += shift
    hi += shift
    shift = np.maximum(0.0, hi - d_top)
    lo -= shift
    hi -= shift
    return np.maximum(lo, 0.0), hi


def sample_planes(d_min: np.ndarray, d_max: np.ndarray, n: int) -> HypothesisPlanes:
    """N values linearly spaced from d_min to d_max inclusive, per pixel."""
    if n < 2:
        raise ValueError("need at least 2 planes")
    lo = as_grid(d_min, 2, "d_min")
    hi = as_grid(d_max, 2, "d_max")
    if lo.shape != hi.shape:
        raise ValueError(f"shape mismatch: {lo.shape} vs {hi.shape}")
    if (hi < lo).any():
        raise ValueError("d_min must not exceed d_max")
    return HypothesisPlanes.per_pixel(np.linspace(lo, hi, n, axis=0))


def _stage(tag: str, fn):
    try:
        return fn()
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{tag}: {exc}") from exc


def run_pipeline(left: np.ndarray, right: np.ndarray, config: RunConfig) -> PipelineOutput:
    """Full cascade: fused initial estimate, two sparse refinements, final 2x output.

    Output disparity and uncertainty are at full resolution in full-resolution
    pixel units (uncertainty scales by 4 as a variance).
    """
    li = as_grid(left, 2, "left image").astype(DTYPE, copy=False)
    ri = as_grid(right, 2, "right image").astype(DTYPE, copy=False)
    if li.shape != ri.shape:
        raise PipelineError(f"input: image shapes differ: {li.shape} vs {ri.shape}")
    step = 1 << LEVELS
    if li.shape[0] % step or li.shape[1] % step:
        raise PipelineError(f"input: image dims {li.shape} must be divisible by {step}")
    dmax = config.pipeline_dmax
    params = RangeParams(
        alpha=config.cascade_alpha,
        beta=config.cascade_beta,
        min_step=config.cascade_min_step,
        plane_counts=(config.cascade_n2, config.cascade_n1),
    )
    w_g, w_a = config.cost_w_group, config.cost_w_absdiff

    def feats():
        kw = dict(
            census_radius=config.features_census_radius,
            stat_radius=config.features_stat_radius,
        )
        # features in float64, cast once: every volume below is float32
        return tuple(
            {s: f.astype(np.float32) for s, f in build_pyramid(img, **kw).items()}
            for img in (li, ri)
        )

    feat_l, feat_r = _stage("features", feats)

    def smooth(volume):
        return aggregate(volume, config)

    def fuse(v3, v4, v5):
        return fuse_volumes(v3, v4, v5, config)

    # One correlation group: stream_cost reduces the C+1 layout block by block.
    def decode(inputs, scale, regularize):
        sv = stream_cost(inputs, scale, regularize, w_g, w_a)
        d = soft_argmin(sv)
        return StageResult(scale, d, uncertainty(sv, d), sv.planes)

    def stage3():
        scales = (3, 4, 5) if config.fusion_enabled else (3,)
        inputs = [(feat_l[s], feat_r[s], HypothesisPlanes.dense(dmax, s)) for s in scales]
        return decode(inputs, 3, fuse if config.fusion_enabled else smooth)

    results = [_stage("stage 3", stage3)]

    for stage in (3, 2):
        def refine(stage=stage):
            prev = results[-1]
            lo, hi = next_range(prev.disparity, prev.uncertainty, params, stage, dmax)
            planes = sample_planes(lo, hi, params.for_stage(stage)[2])
            scale = stage - 1
            return decode([(feat_l[scale], feat_r[scale], planes)], scale, smooth)

        results.append(_stage(f"stage {stage - 1}", refine))

    def output():
        final = results[-1]
        disp = 2.0 * bilinear_upsample2x(final.disparity)
        unc = 4.0 * bilinear_upsample2x(final.uncertainty)
        return disp, unc

    disp, unc = _stage("output", output)
    return PipelineOutput(tuple(results), disp, unc)
