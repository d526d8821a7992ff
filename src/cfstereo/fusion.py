"""Multi-scale volume fusion with fixed smoothing kernels.

The encoder regularizes and pools the finest volume, merges it with each
coarser volume, and the decoder upsamples back while mixing in the stored
skip volumes. Every stage is a convex combination of inputs, so values are
never amplified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost_volume import CombinationVolume, ScoreVolume, reduce_to_cost, soft_argmin, uncertainty
from .tensor_ops import avgpool_volume, box_smooth_axis, trilinear_upsample2x


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for the fixed-kernel aggregation blocks.

    smooth_radius is (plane, x, y); passes repeats the separable smoothing;
    hourglass_passes repeats the final down-up refinement.
    """

    smooth_radius: tuple[int, int, int] = (1, 1, 1)
    passes: int = 1
    hourglass_passes: int = 1
    enabled: bool = True

    def __post_init__(self):
        if any(r < 0 for r in self.smooth_radius):
            raise ValueError("smoothing radii must be >= 0")
        if self.passes < 1 or self.hourglass_passes < 1:
            raise ValueError("pass counts must be >= 1")


def box_smooth_volume(data: np.ndarray, radii: tuple[int, int, int], passes: int = 1) -> np.ndarray:
    """Separable box smoothing of the trailing (planes, H, W) axes, edge-clamped."""
    r_d, r_x, r_y = radii
    out = data
    for _ in range(passes):
        out = box_smooth_axis(out, out.ndim - 3, r_d)
        out = box_smooth_axis(out, out.ndim - 1, r_x)
        out = box_smooth_axis(out, out.ndim - 2, r_y)
    return out


def aggregate(data: np.ndarray, cfg: FusionConfig) -> np.ndarray:
    """Regularize a (…, planes, H, W) grid: smoothed half-mixed with the input."""
    if data.ndim not in (3, 4):
        raise ValueError(f"expected 3D or 4D volume, got shape {data.shape}")
    return 0.5 * (data + box_smooth_volume(data, cfg.smooth_radius, cfg.passes))


def concat_reduce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Feature-concatenate two volumes, then average fixed channel pairs back to F."""
    if a.shape != b.shape:
        raise ValueError(f"cannot merge volumes shaped {a.shape} and {b.shape}")
    cat = np.concatenate([a, b], axis=0)
    f = a.shape[0]
    return cat.reshape((2, f) + a.shape[1:]).mean(axis=0)


def _check_pyramid_ratios(v3: CombinationVolume, v4: CombinationVolume, v5: CombinationVolume):
    for vol, scale in ((v3, 3), (v4, 4), (v5, 5)):
        if vol.scale != scale:
            raise ValueError(f"expected scale-{scale} volume, got scale {vol.scale}")
    s3, s4, s5 = v3.data.shape, v4.data.shape, v5.data.shape
    if s3[0] != s4[0] or s3[0] != s5[0]:
        raise ValueError(f"feature counts differ across scales: {s3[0]}, {s4[0]}, {s5[0]}")
    for axis in (1, 2, 3):
        if s3[axis] != 2 * s4[axis] or s4[axis] != 2 * s5[axis]:
            raise ValueError(
                f"plane/space ratios must halve per scale, got {s3} / {s4} / {s5}"
            )


def fuse_volumes(
    v3: CombinationVolume,
    v4: CombinationVolume,
    v5: CombinationVolume,
    cfg: FusionConfig,
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
) -> ScoreVolume:
    """Merge the three dense volumes into one scale-3 score volume.

    Encoder: regularize, pool to the next scale, merge with that scale's
    regularized volume. Decoder: trilinear upsample plus skip mixing, then a
    down-up hourglass pass, then the cost reduction, all on difference volumes.
    """
    _check_pyramid_ratios(v3, v4, v5)
    skip3 = aggregate(v3.difference(), cfg)
    merged4 = concat_reduce(avgpool_volume(skip3), aggregate(v4.difference(), cfg))
    skip4 = aggregate(merged4, cfg)
    merged5 = concat_reduce(avgpool_volume(skip4), aggregate(v5.difference(), cfg))
    bottom = aggregate(merged5, cfg)
    up4 = 0.5 * (trilinear_upsample2x(bottom) + skip4)
    up3 = 0.5 * (trilinear_upsample2x(up4) + skip3)
    for _ in range(cfg.hourglass_passes):
        down = aggregate(avgpool_volume(aggregate(up3, cfg)), cfg)
        up3 = 0.5 * (up3 + trilinear_upsample2x(down))
    return reduce_to_cost(up3, v3.planes, v3.scale, w_group, w_absdiff)


def single_volume_score(
    v3: CombinationVolume,
    cfg: FusionConfig,
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
) -> ScoreVolume:
    """Fusion-disabled path: regularize the scale-3 volume alone and reduce it."""
    return reduce_to_cost(aggregate(v3.difference(), cfg), v3.planes, v3.scale, w_group, w_absdiff)


def initial_disparity(fused: ScoreVolume) -> tuple[np.ndarray, np.ndarray]:
    """Scale-3 disparity and its variance from the fused score volume."""
    d3 = soft_argmin(fused)
    u3 = uncertainty(fused, d3)
    return d3, u3
