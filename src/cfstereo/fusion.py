"""Multi-scale volume fusion with fixed smoothing kernels.

The encoder regularizes and pools the finest volume, merges it with each
coarser volume, and the decoder upsamples back while mixing in the stored
skip volumes. Every stage is a convex combination of inputs, so values are
never amplified, and the whole fusion is a linear map on the volumes.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .tensor_ops import as_grid, avgpool_volume, box_smooth_axis, trilinear_upsample2x


def box_smooth_volume(data: np.ndarray, radii: tuple[int, int, int], passes: int = 1) -> np.ndarray:
    """Separable box smoothing of the trailing (planes, H, W) axes, edge-clamped."""
    r_d, r_x, r_y = radii
    out = data
    for _ in range(passes):
        for axis, radius in ((-3, r_d), (-1, r_x), (-2, r_y)):
            if radius:
                out = box_smooth_axis(out, axis, radius)
    # fresh even when every radius is 0, as box_smooth_axis is
    return data.copy() if out is data else out


def aggregate(data: np.ndarray, config: RunConfig) -> np.ndarray:
    """Regularize a (…, planes, H, W) grid: `box_smooth_volume` half-mixed
    with the input. The pipeline calls it on one `stream_cost` block at a
    time (`cascade.plan`), so it needs no tiling of its own."""
    data = as_grid(data)
    if data.ndim not in (3, 4):
        raise ValueError(f"expected 3D or 4D volume, got shape {data.shape}")
    out = box_smooth_volume(data, config.fusion_smooth_radius, config.fusion_passes)
    out += data
    out *= 0.5
    return out


def _check_pyramid_ratios(v3: np.ndarray, v4: np.ndarray, v5: np.ndarray):
    """Same leading axes at every scale; trailing (planes, H, W) halve per scale."""
    s3, s4, s5 = v3.shape, v4.shape, v5.shape
    if s3[:-3] != s4[:-3] or s3[:-3] != s5[:-3]:
        raise ValueError(f"feature counts differ across scales: {s3[:-3]}, {s4[:-3]}, {s5[:-3]}")
    if any(a != 2 * b or b != 2 * c for a, b, c in zip(s3[-3:], s4[-3:], s5[-3:])):
        raise ValueError(f"plane/space ratios must halve per scale, got {s3} / {s4} / {s5}")


def fuse_volumes(v3: np.ndarray, v4: np.ndarray, v5: np.ndarray, config: RunConfig) -> np.ndarray:
    """Merge the (F, N, H, W) or (N, H, W) volumes of scales 3, 4 and 5 into one scale-3 volume.

    Encoder: regularize, pool to the next scale, average with that scale's
    regularized volume. Decoder: trilinear upsample plus skip mixing, then
    one down-up hourglass pass.
    """
    _check_pyramid_ratios(v3, v4, v5)
    skip3 = aggregate(v3, config)
    skip4 = aggregate(0.5 * (avgpool_volume(skip3) + aggregate(v4, config)), config)
    bottom = aggregate(0.5 * (avgpool_volume(skip4) + aggregate(v5, config)), config)
    up4 = 0.5 * (trilinear_upsample2x(bottom) + skip4)
    up3 = 0.5 * (trilinear_upsample2x(up4) + skip3)
    down = aggregate(avgpool_volume(aggregate(up3, config)), config)
    return 0.5 * (up3 + trilinear_upsample2x(down))
