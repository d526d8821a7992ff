"""Deterministic multi-scale image features for left/right matching.

Each pyramid level stacks, in fixed order: intensity, horizontal gradient,
vertical gradient, local mean and standard deviation over a box of radius
STAT_RADIUS, and census-sign channels for the (2r+1)^2-1 neighborhood.
Channels are normalized to zero mean / unit variance over the image;
constant channels are left at zero. `build_pyramid` normalizes each level's
own stack in place and casts it to the dtype asked for as it is made.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import DTYPE, _edge_pad, as_grid, box_smooth_axis, require_finite, weighted_smooth_axis

# binomial 5-tap, the usual pyramid antialias kernel
_BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
# scales 1..5: the cascade refines at 1-3 and fusion reaches down to 1/32
LEVELS = 5
STAT_RADIUS = 2


def blur_decimate2(image: np.ndarray) -> np.ndarray:
    """Separable binomial blur followed by 2x decimation (even samples).

    The odd rows are dropped before the blur along x, which treats each row
    alone, so it runs on half of them."""
    sm = weighted_smooth_axis(image, 0, _BLUR_KERNEL)[::2]
    sm = weighted_smooth_axis(sm, 1, _BLUR_KERNEL)
    return sm[:, ::2]


def box_mean2d(image: np.ndarray, radius: int) -> np.ndarray:
    return box_smooth_axis(box_smooth_axis(image, 0, radius), 1, radius)


def channel_count(census_radius: int) -> int:
    """Channels of a level: 5, then (2r+1)^2-1 census signs for radius r."""
    return 4 + (2 * census_radius + 1) ** 2


def check_size(h: int, w: int) -> None:
    """Raise ValueError unless each side is a multiple of 2^LEVELS and at
    least two pixels at the coarsest level, where np.gradient needs two."""
    step = 1 << LEVELS
    if h % step or w % step or min(h, w) < 2 * step:
        raise ValueError(
            f"image dims {(h, w)} must be divisible by {step} and at least {2 * step} "
            f"(two pixels at scale {LEVELS}); pad the input"
        )


def channel_stack(image: np.ndarray, census_radius: int = 1) -> np.ndarray:
    """Raw (unnormalized) channel stack for one image; order is fixed.

    A census channel is +1 where the center exceeds that neighbor, else -1.
    Neighbors are clamped at the border, so border pixels compare against
    themselves there and read -1.
    """
    h, w = image.shape
    r = census_radius
    offsets = [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1) if dy or dx]
    # float64, as the census channels are
    stack = np.empty((channel_count(r), h, w), DTYPE)
    stack[0] = image
    stack[2], stack[1] = np.gradient(image)
    mean = box_mean2d(image, STAT_RADIUS)
    sq_mean = box_mean2d(image * image, STAT_RADIUS)
    stack[3] = mean
    stack[4] = np.sqrt(np.maximum(sq_mean - mean * mean, 0.0))
    # Each neighbour is a flat run of the padded image, as in
    # `tensor_ops._shifts`: its rows are w + 2r long, so the run that starts
    # at (r + dy, r + dx) lines up with the centre's run at (r, r), and the
    # comparisons between two rows land in the padding columns of `greater`.
    padded = _edge_pad(_edge_pad(image, 0, r), 1, r)
    row = w + 2 * r
    flat = padded.reshape(-1)
    size = (h - 1) * row + w
    centre = flat[r * row + r :][:size]
    greater = np.empty((h, row), bool)
    for k, (dy, dx) in enumerate(offsets, start=5):
        start = (r + dy) * row + r + dx
        np.greater(centre, flat[start : start + size], out=greater.reshape(-1)[:size])
        stack[k] = greater[:, :w]
    # +1 where the centre is greater, else -1
    stack[5:] *= 2.0
    stack[5:] -= 1.0
    return stack


def _scale_centred(out: np.ndarray) -> np.ndarray:
    """Divide each channel of a mean-subtracted stack by its σ in place, or
    zero it if constant, and return it. σ is squared a channel at a time
    into one scratch plane and summed as `np.std` sums, so the result is
    byte-equal to dividing the stack's deviations by `np.std`."""
    square = np.empty(out.shape[1:], out.dtype)
    sigma = np.empty((out.shape[0], 1, 1), out.dtype)
    for k, channel in enumerate(out):
        sigma[k] = np.square(channel, out=square).sum()
    sigma /= square.size
    np.sqrt(sigma, out=sigma)
    flat = sigma < 1e-12
    out /= np.where(flat, 1.0, sigma)
    out[flat[:, 0, 0]] = 0.0
    return out


def build_pyramid(
    image: np.ndarray,
    *,
    census_radius: int = 1,
    dtype=DTYPE,
) -> dict[int, np.ndarray]:
    """Normalized feature maps, scale i -> (C, H/2^i, W/2^i) for i in 1..LEVELS.

    Level i is the normalized channel stack of the i-th image in the
    blur-then-decimate chain, so C = `channel_count(census_radius)`, and the
    image's size must pass `check_size`.
    Each level is computed in float64 and cast to `dtype` (float32 or
    float64) as soon as it is normalized, which gives the bytes of casting
    the normalized float64 stack: the stack is the pyramid's own, so it is
    normalized in place, and only one float64 level exists at a time.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"feature dtype must be float32 or float64, got {dtype}")
    img = as_grid(image, 2, "image").astype(DTYPE, copy=False)
    require_finite(img, "image")
    check_size(*img.shape)
    maps: dict[int, np.ndarray] = {}
    current = img
    for i in range(1, LEVELS + 1):
        current = blur_decimate2(current)
        stack = channel_stack(current, census_radius)
        stack -= stack.mean(axis=(1, 2), keepdims=True)
        maps[i] = _scale_centred(stack).astype(dtype, copy=False)
        del stack  # so the next level's stack is made after this one is gone
    return maps
