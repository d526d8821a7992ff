"""Deterministic multi-scale image features for left/right matching.

Each pyramid level stacks, in fixed order: intensity, horizontal gradient,
vertical gradient, local mean, local standard deviation, and census-sign
channels for the (2r+1)^2-1 neighborhood. Channels are normalized to zero
mean / unit variance over the image; constant channels are left at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import DTYPE, as_grid, box_smooth_axis, require_finite, weighted_smooth_axis

# binomial 5-tap, the usual pyramid antialias kernel
_BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@dataclass(frozen=True, eq=False)
class FeaturePyramid:
    """Per-scale feature maps, scale i -> (channels, H/2^i, W/2^i)."""

    levels: dict[int, np.ndarray]
    channel_count: int


def blur_decimate2(image: np.ndarray) -> np.ndarray:
    """Separable binomial blur followed by 2x decimation (even samples)."""
    sm = weighted_smooth_axis(image, 0, _BLUR_KERNEL)
    sm = weighted_smooth_axis(sm, 1, _BLUR_KERNEL)
    return sm[::2, ::2]


def box_mean2d(image: np.ndarray, radius: int) -> np.ndarray:
    return box_smooth_axis(box_smooth_axis(image, 0, radius), 1, radius)


def census_signs(image: np.ndarray, radius: int = 1) -> np.ndarray:
    """One +-1 channel per neighbor: +1 where center exceeds the neighbor.

    Neighbors are clamped at the border, so border pixels compare against
    themselves there and read -1.
    """
    h, w = image.shape
    rows = np.arange(h)
    cols = np.arange(w)
    channels = []
    for dy in range(-radius, radius + 1):
        ry = np.clip(rows + dy, 0, h - 1)
        for dx in range(-radius, radius + 1):
            if dy == 0 and dx == 0:
                continue
            rx = np.clip(cols + dx, 0, w - 1)
            neighbor = image[ry][:, rx]
            channels.append(np.where(image > neighbor, 1.0, -1.0))
    return np.stack(channels, axis=0)


def channel_stack(image: np.ndarray, census_radius: int = 1, stat_radius: int = 2) -> np.ndarray:
    """Raw (unnormalized) channel stack for one image; order is fixed."""
    gy, gx = np.gradient(image)
    mean = box_mean2d(image, stat_radius)
    sq_mean = box_mean2d(image * image, stat_radius)
    std = np.sqrt(np.maximum(sq_mean - mean * mean, 0.0))
    stack = [image.copy(), gx, gy, mean, std]
    stack.extend(census_signs(image, census_radius))
    return np.stack(stack, axis=0)


def normalize_channels(stack: np.ndarray) -> np.ndarray:
    """Zero mean / unit variance per channel; constant channels become zero."""
    out = np.empty_like(stack)
    for c in range(stack.shape[0]):
        ch = stack[c]
        mu = ch.mean()
        sigma = ch.std()
        if sigma < 1e-12:
            out[c] = 0.0
        else:
            out[c] = (ch - mu) / sigma
    return out


def build_pyramid(
    image: np.ndarray,
    levels: int = 5,
    *,
    channels: int = 16,
    census_radius: int = 1,
    stat_radius: int = 2,
) -> FeaturePyramid:
    """Build normalized feature maps at scales 1..levels.

    Level i is derived from the blur-then-decimate image chain, and its raw
    channel stack is truncated or zero-padded to `channels`.
    """
    img = as_grid(image, 2, "image")
    require_finite(img, "image")
    if levels < 3:
        raise ValueError("need at least 3 pyramid levels")
    h, w = img.shape
    step = 1 << levels
    if h % step or w % step:
        raise ValueError(
            f"image dims {(h, w)} must be divisible by 2**levels = {step}; pad the input"
        )
    if channels < 1:
        raise ValueError(f"channels must be positive, got {channels}")

    maps: dict[int, np.ndarray] = {}
    current = img
    for i in range(1, levels + 1):
        current = blur_decimate2(current)
        raw = channel_stack(current, census_radius, stat_radius)
        feats = np.zeros((channels,) + current.shape, dtype=DTYPE)
        take = min(channels, raw.shape[0])
        feats[:take] = normalize_channels(raw[:take])
        maps[i] = feats
    return FeaturePyramid(levels=maps, channel_count=channels)
