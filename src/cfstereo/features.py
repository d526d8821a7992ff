"""Deterministic multi-scale image features for left/right matching.

Each pyramid level stacks, in fixed order: intensity, horizontal gradient,
vertical gradient, local mean and standard deviation over a box of radius
STAT_RADIUS, and census-sign channels for the (2r+1)^2-1 neighborhood.
Channels are normalized to zero mean / unit variance over the image;
constant channels are left at zero. A level is made a channel at a time
(`level_features`) from one image of the blur-then-decimate chain
(`blur_chain`), so a caller can make each level when it needs it;
`build_pyramid` makes them all.
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
    """Separable binomial blur and 2x decimation (even samples): the blur
    is computed at the kept rows and then at the kept columns only, and
    each kept sample is the whole blur's, byte for byte."""
    sm = weighted_smooth_axis(image, 0, _BLUR_KERNEL, step=2)
    return weighted_smooth_axis(sm, 1, _BLUR_KERNEL, step=2)


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


def _channels(image: np.ndarray, census_radius: int):
    """The raw (unnormalized) channels of one image, one at a time in the
    fixed order, each a fresh C-contiguous float64 (h, w) array that the
    caller may overwrite. A channel is the caller's once yielded: the
    generator holds none while it makes the next.

    A census channel is +1 where the center exceeds that neighbor, else -1.
    Neighbors are clamped at the border, so border pixels compare against
    themselves there and read -1.
    """
    image = np.asarray(image, DTYPE)
    h, w = image.shape
    r = census_radius
    offsets = [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1) if dy or dx]
    yield image.copy()
    yield np.gradient(image, axis=1)
    yield np.gradient(image, axis=0)
    mean = np.ascontiguousarray(box_mean2d(image, STAT_RADIUS))
    var = box_mean2d(image * image, STAT_RADIUS) - mean * mean
    yield mean
    del mean
    yield np.sqrt(np.maximum(var, 0.0, out=var), out=var)
    del var
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
    for dy, dx in offsets:
        start = (r + dy) * row + r + dx
        np.greater(centre, flat[start : start + size], out=greater.reshape(-1)[:size])
        # +1 where the centre is greater, else -1; np.where takes about three
        # times as long on these random masks
        channel = greater[:, :w].astype(DTYPE)
        channel *= 2.0
        channel -= 1.0
        yield channel
        del channel


def channel_stack(image: np.ndarray, census_radius: int = 1) -> np.ndarray:
    """Raw (unnormalized) float64 channel stack for one image, in the fixed
    order: intensity, x and y gradient, local mean and σ, census signs."""
    stack = np.empty((channel_count(census_radius), *image.shape), DTYPE)
    for slot, channel in zip(stack, _channels(image, census_radius)):
        slot[...] = channel
    return stack


def _scale_centred(channel: np.ndarray, square: np.ndarray) -> np.ndarray:
    """Divide a mean-subtracted channel by its σ in place, or zero it if
    constant, and return it. σ is squared into the scratch plane `square`
    and summed as `np.std` sums, so the result is byte-equal to dividing the
    channel's deviations by `np.std`."""
    sigma = np.sqrt(np.add.reduce(np.square(channel, out=square), axis=None) / square.size)
    if sigma < 1e-12:
        channel[...] = 0.0
    else:
        channel /= sigma
    return channel


def blur_chain(image: np.ndarray) -> dict[int, np.ndarray]:
    """Scale i -> the image blurred and decimated i times (`blur_decimate2`),
    for i in 1..LEVELS: the images the pyramid levels are made from. The
    image must be finite and its size must pass `check_size`."""
    current = as_grid(image, 2, "image").astype(DTYPE, copy=False)
    require_finite(current, "image")
    check_size(*current.shape)
    chain = {}
    for i in range(1, LEVELS + 1):
        current = chain[i] = blur_decimate2(current)
    return chain


def level_features(image: np.ndarray, census_radius: int = 1, dtype=DTYPE) -> np.ndarray:
    """One pyramid level: the normalized (C, h, w) channels of one image of
    `blur_chain`, in `dtype` (float32 or float64), C =
    `channel_count(census_radius)`.

    Each channel is made in float64, centred by its own mean, scaled by
    `_scale_centred` and cast into its slot, so no (C, h, w) float64 stack
    is made, and the bytes are those of normalizing the whole
    `channel_stack` and casting it.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"feature dtype must be float32 or float64, got {dtype}")
    out = np.empty((channel_count(census_radius), *image.shape), dtype)
    square = np.empty(image.shape, DTYPE)
    channels = _channels(image, census_radius)
    # next(), not zip(), whose reused tuple would hold the last channel
    # while the next is made. The mean is `channel.mean()`'s sum and divide
    # without its Python wrapper, which costs more than the sum on the
    # small levels; a desk pair centres 130 channels.
    for slot in out:
        channel = next(channels)
        channel -= np.add.reduce(channel, axis=None) / channel.size
        slot[...] = _scale_centred(channel, square)
        del channel
    return out


def build_pyramid(
    image: np.ndarray,
    *,
    census_radius: int = 1,
    dtype=DTYPE,
) -> dict[int, np.ndarray]:
    """Normalized feature maps, scale i -> (C, H/2^i, W/2^i) for i in 1..LEVELS:
    the `level_features` of each image of the image's `blur_chain`."""
    return {i: level_features(img, census_radius, dtype) for i, img in blur_chain(image).items()}
