"""Plain reference forms that more than one test module checks against."""

import numpy as np

from cfstereo.synth import SyntheticScene, disparity_field
from cfstereo.tensor_ops import DTYPE, _sample_rows, box_smooth_axis


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
