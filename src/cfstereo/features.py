"""Deterministic multi-scale image features for left/right matching.

Each pyramid level stacks, in fixed order: intensity, horizontal gradient,
vertical gradient, local mean, local standard deviation, and census-sign
channels for the (2r+1)^2-1 neighborhood. Channels are normalized to zero
mean / unit variance over the image; constant channels are left at zero.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .tensor_ops import DTYPE, as_grid, box_smooth_axis, require_finite, weighted_smooth_axis

# binomial 5-tap, the usual pyramid antialias kernel
_BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
# scales 1..5: the cascade refines at 1-3 and fusion reaches down to 1/32
LEVELS = 5


def blur_decimate2(image: np.ndarray) -> np.ndarray:
    """Separable binomial blur followed by 2x decimation (even samples)."""
    sm = weighted_smooth_axis(image, 0, _BLUR_KERNEL)
    sm = weighted_smooth_axis(sm, 1, _BLUR_KERNEL)
    return sm[::2, ::2]


def box_mean2d(image: np.ndarray, radius: int) -> np.ndarray:
    return box_smooth_axis(box_smooth_axis(image, 0, radius), 1, radius)


def _raw_channels(image: np.ndarray, census_radius: int, stat_radius: int):
    """The channels of `channel_stack` in order, each computed when it is drawn.

    A census channel is +1 where the center exceeds that neighbor, else -1.
    Neighbors are clamped at the border, so border pixels compare against
    themselves there and read -1.
    """
    gy, gx = np.gradient(image)
    mean = box_mean2d(image, stat_radius)
    sq_mean = box_mean2d(image * image, stat_radius)
    std = np.sqrt(np.maximum(sq_mean - mean * mean, 0.0))
    yield from (image.copy(), gx, gy, mean, std)
    h, w = image.shape
    rows = np.arange(h)
    cols = np.arange(w)
    for dy in range(-census_radius, census_radius + 1):
        ry = np.clip(rows + dy, 0, h - 1)
        for dx in range(-census_radius, census_radius + 1):
            if dy == 0 and dx == 0:
                continue
            rx = np.clip(cols + dx, 0, w - 1)
            neighbor = image[ry][:, rx]
            yield np.where(image > neighbor, 1.0, -1.0)


def channel_stack(image: np.ndarray, census_radius: int = 1, stat_radius: int = 2) -> np.ndarray:
    """Raw (unnormalized) channel stack for one image; order is fixed."""
    return np.stack(list(_raw_channels(image, census_radius, stat_radius)), axis=0)


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
    *,
    channels: int = 16,
    census_radius: int = 1,
    stat_radius: int = 2,
) -> dict[int, np.ndarray]:
    """Normalized feature maps, scale i -> (channels, H/2^i, W/2^i) for i in 1..LEVELS.

    Level i is derived from the blur-then-decimate image chain, and its raw
    channel stack is truncated or zero-padded to `channels`.
    """
    img = as_grid(image, 2, "image").astype(DTYPE, copy=False)
    require_finite(img, "image")
    h, w = img.shape
    step = 1 << LEVELS
    if h % step or w % step:
        raise ValueError(f"image dims {(h, w)} must be divisible by {step}; pad the input")
    if channels < 1:
        raise ValueError(f"channels must be positive, got {channels}")

    maps: dict[int, np.ndarray] = {}
    current = img
    for i in range(1, LEVELS + 1):
        current = blur_decimate2(current)
        # only the channels that are kept get computed, so a wide census
        # window costs no more than `channels` maps
        raw = np.stack(list(islice(_raw_channels(current, census_radius, stat_radius), channels)))
        feats = np.zeros((channels,) + current.shape, dtype=DTYPE)
        feats[: raw.shape[0]] = normalize_channels(raw)
        maps[i] = feats
    return maps
