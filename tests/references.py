"""Plain reference forms that more than one test module checks against."""

import numpy as np

from cfstereo.features import LEVELS, STAT_RADIUS, box_mean2d, channel_count, check_size
from cfstereo.synth import SyntheticScene, disparity_field
from cfstereo.tensor_ops import DTYPE, _edge_pad, _sample_rows, as_grid, box_smooth_axis, weighted_smooth_axis


def take_clamped(a, axis, off):
    """`a` shifted by `off` along `axis`, edge-clamped, via np.take over
    clipped indices."""
    n = a.shape[axis]
    return np.take(a, np.clip(np.arange(n) + off, 0, n - 1), axis=axis)


def box_reference(a, axis, radius):
    """Edge-clamped box mean along one axis, its taps added in offset order."""
    if radius == 0:
        return a.copy()
    acc = np.zeros_like(a)
    for off in range(-radius, radius + 1):
        acc += take_clamped(a, axis, off)
    return acc / (2 * radius + 1)


def std_normalized(stack):
    """Zero mean / unit variance per channel, dividing by `np.std`: constant
    channels become zero."""
    sigma = stack.std(axis=(1, 2), keepdims=True)
    flat = sigma[:, 0, 0] < 1e-12
    out = (stack - stack.mean(axis=(1, 2), keepdims=True)) / np.where(sigma < 1e-12, 1.0, sigma)
    out[flat] = 0.0
    return out


def mean_correlation(vol):
    """The (C+1, N, H, W) volume the cost reads: left - matched per channel,
    then the mean of the group correlations."""
    c = vol.data.shape[0] - vol.n_groups
    return np.concatenate([vol.data[:c], vol.data[c:].mean(axis=0, keepdims=True)])


def whole_image_stereogram(h, w, spec, seed):
    """`synth.random_dot_stereogram` with every step on the whole image: the
    warp, a z-buffer over all rows at once, the validity mask, one fill draw
    of the whole image (only if some pixel is invalid) and gt by np.where."""
    if h < 1 or w < 1:
        raise ValueError(f"image size {h}x{w} must be positive")
    rng = np.random.default_rng(seed)
    right = box_smooth_axis(box_smooth_axis(rng.random((h, w)), 0, 1), 1, 1)
    field = disparity_field(spec, (h, w), rng)
    if not np.isfinite(field).all():
        raise ValueError("disparity must be finite")
    if field.max() >= w / 4:
        raise ValueError(f"max disparity {field.max()} must stay below W/4 = {w / 4}")
    if field.min() < 0:
        raise ValueError("disparity must be non-negative")

    xs = np.arange(w, dtype=DTYPE)[None, :] - field
    left = _sample_rows(right, xs)
    in_frame = (xs >= 0) & (xs <= w - 1)

    # z-buffer on nearest source columns: larger disparity occludes smaller
    src_col = np.floor(xs + 0.5).astype(np.int64)
    src_ok = in_frame & (src_col >= 0) & (src_col < w)
    rows = np.broadcast_to(np.arange(h)[:, None], (h, w))
    zbuf = np.full((h, w), -np.inf)
    np.maximum.at(zbuf, (rows[src_ok], src_col[src_ok]), field[src_ok])
    occluded = np.zeros((h, w), dtype=bool)
    occluded[src_ok] = field[src_ok] < zbuf[rows[src_ok], src_col[src_ok]] - 1e-6

    valid = in_frame & ~occluded
    if not valid.all():
        fill = rng.random((h, w))
        left = np.where(valid, left, fill)
    gt = np.where(valid, field, 0.0)
    return SyntheticScene(left=left, right=right, gt=gt, valid=valid, seed=seed, spec=spec)


BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def blur_then_decimate(image):
    """`features.blur_decimate2` as the blur of every row, then of every
    column of the even rows, and then the even columns of that."""
    sm = weighted_smooth_axis(image, 0, BLUR_KERNEL)[::2]
    sm = weighted_smooth_axis(sm, 1, BLUR_KERNEL)
    return sm[:, ::2]


def whole_stack_channels(image, census_radius):
    """`features.channel_stack` with every channel written into one
    (C, h, w) float64 stack, and the census signs mapped to +-1 on the
    stack's census block at once."""
    h, w = image.shape
    r = census_radius
    offsets = [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1) if dy or dx]
    stack = np.empty((channel_count(r), h, w), DTYPE)
    stack[0] = image
    stack[2], stack[1] = np.gradient(image)
    mean = box_mean2d(image, STAT_RADIUS)
    sq_mean = box_mean2d(image * image, STAT_RADIUS)
    stack[3] = mean
    stack[4] = np.sqrt(np.maximum(sq_mean - mean * mean, 0.0))
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
    stack[5:] *= 2.0
    stack[5:] -= 1.0
    return stack


def whole_stack_pyramid(image, census_radius, dtype):
    """`features.build_pyramid` with each level's whole float64 channel
    stack made first, centred by the stack's per-channel means, divided
    by its per-channel σ (or zeroed where σ < 1e-12), then cast to `dtype`."""
    current = as_grid(image, 2, "image").astype(DTYPE, copy=False)
    check_size(*current.shape)
    maps = {}
    for i in range(1, LEVELS + 1):
        current = blur_then_decimate(current)
        stack = whole_stack_channels(current, census_radius)
        stack -= stack.mean(axis=(1, 2), keepdims=True)
        square = np.empty(stack.shape[1:], DTYPE)
        sigma = np.empty((stack.shape[0], 1, 1), DTYPE)
        for k, channel in enumerate(stack):
            sigma[k] = np.square(channel, out=square).sum()
        sigma /= square.size
        np.sqrt(sigma, out=sigma)
        flat = sigma < 1e-12
        stack /= np.where(flat, 1.0, sigma)
        stack[flat[:, 0, 0]] = 0.0
        maps[i] = stack.astype(dtype, copy=False)
    return maps
