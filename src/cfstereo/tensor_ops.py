"""Dense grid primitives shared by every pipeline stage.

Grids are plain row-major ndarrays whose float dtype follows the input: a
float32 grid stays float32 and anything else becomes float64 (`DTYPE`). The
pipeline feeds float32 cost volumes through here and keeps its maps and
hypothesis planes in float64. Per-pixel reductions accumulate in a fixed
ascending order, so results are bit-stable from run to run.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


def as_grid(a, ndim: int | None = None, name: str = "input") -> np.ndarray:
    """`a` as a float32 or float64 array: float32 stays, anything else is DTYPE."""
    out = np.asarray(a)
    if out.dtype != np.float32:
        out = out.astype(DTYPE, copy=False)
    if ndim is not None and out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    return out


def require_finite(a: np.ndarray, name: str = "input") -> None:
    if not np.isfinite(a).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        raise ValueError(f"{name} has a non-finite value at index {idx}")


def softmax_along_planes(volume: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over axis 0 of a (planes, H, W) grid.

    Stabilized by max subtraction; every per-pixel slice sums to 1.
    """
    v = as_grid(volume, 3, "softmax input")
    require_finite(v, "softmax input")
    shifted = v - v.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def _add_shifted(acc: np.ndarray, a: np.ndarray, axis: int, off: int, weight=None) -> None:
    """acc[i] += a[clip(i + off, 0, n - 1)] along `axis`, times `weight` if given,
    by slicing: the cells that the shift pushes off the end read the length-1
    edge slice, broadcast."""
    n = a.shape[axis]
    k = min(abs(off), n)
    if off >= 0:
        spans = ((slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(n - 1, n)))
    else:
        spans = ((slice(k, n), slice(0, n - k)), (slice(0, k), slice(0, 1)))
    lead = (slice(None),) * (axis % a.ndim)
    for dst, src in spans:
        part = a[lead + (src,)]
        acc[lead + (dst,)] += part if weight is None else weight * part


def _sample_rows(a: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Sample each row of a (..., H, W) grid at (H, W) fractional columns `src`.

    Linear between the two bracketing columns; a column outside [0, W) gets
    zero weight, so integer columns are an exact lookup and columns beyond
    the frame read 0. This is the x - d warp of every cost volume and of the
    synthetic stereograms.
    """
    h, w = a.shape[-2:]
    base = np.floor(src)
    t = src - base
    i0 = base.astype(np.int64)
    i1 = i0 + 1
    # weights in a's dtype, so a float32 gather multiplies in float32
    w0 = ((1.0 - t) * ((i0 >= 0) & (i0 < w))).astype(a.dtype, copy=False)
    w1 = (t * ((i1 >= 0) & (i1 < w))).astype(a.dtype, copy=False)
    # out = w0 * a0 + w1 * a1, with a0/a1 gathered from the flat rows
    flat = a.reshape(a.shape[:-2] + (h * w,))
    row_start = np.arange(h)[:, None] * w
    out = np.take(flat, np.clip(i0, 0, w - 1) + row_start, axis=-1)
    out *= w0
    a1 = np.take(flat, np.clip(i1, 0, w - 1) + row_start, axis=-1)
    a1 *= w1
    out += a1
    return out


def _upsample2x_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Double one axis: half-pixel sample centers with edge clamping.

    Output sample 2k sits a quarter cell left of input cell k, sample 2k+1 a
    quarter cell right, so each output is 0.75/0.25 blend of neighbors.
    """
    out = np.repeat(a, 2, axis=axis)
    out *= 0.75
    lead = (slice(None),) * (axis % a.ndim)
    for parity, off in ((0, -1), (1, 1)):
        _add_shifted(out[lead + (slice(parity, None, 2),)], a, axis, off, 0.25)
    return out


def bilinear_upsample2x(grid: np.ndarray) -> np.ndarray:
    """Upsample an (H, W) map to (2H, 2W) with half-pixel-center bilinear weights."""
    g = as_grid(grid, 2, "upsample input")
    return _upsample2x_axis(_upsample2x_axis(g, 0), 1)


def trilinear_upsample2x(volume: np.ndarray) -> np.ndarray:
    """Double the trailing (planes, H, W) axes of a 3D or 4D grid."""
    v = as_grid(volume, None, "upsample input")
    if v.ndim not in (3, 4):
        raise ValueError(f"expected 3D or 4D volume, got shape {v.shape}")
    for axis in (-3, -2, -1):
        v = _upsample2x_axis(v, axis)
    return v


def avgpool_volume(volume: np.ndarray) -> np.ndarray:
    """Mean-pool the trailing (planes, H, W) axes jointly by 2.

    Pooling covers the plane axis as well as space so plane counts stay
    aligned across scales, as the 2x upsamplers expect.
    """
    v = as_grid(volume, None, "pool input")
    if v.ndim not in (3, 4):
        raise ValueError(f"expected 3D or 4D volume, got shape {v.shape}")
    n, h, w = v.shape[-3:]
    if n % 2 or h % 2 or w % 2:
        raise ValueError(
            f"avgpool needs (planes, H, W) divisible by 2, got {(n, h, w)}; pad the volume first"
        )
    blocks = v.reshape(v.shape[:-3] + (n // 2, 2, h // 2, 2, w // 2, 2))
    return blocks.mean(axis=(-5, -3, -1))


def box_smooth_axis(a: np.ndarray, axis: int, radius: int) -> np.ndarray:
    """Edge-clamped box mean along one axis."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return a.copy()
    acc = np.zeros_like(a)
    for off in range(-radius, radius + 1):
        _add_shifted(acc, a, axis, off)
    acc /= 2 * radius + 1
    return acc


def weighted_smooth_axis(a: np.ndarray, axis: int, weights) -> np.ndarray:
    """Edge-clamped correlation with a centered odd-length kernel along one axis."""
    weights = np.asarray(weights, dtype=DTYPE)
    if weights.ndim != 1 or weights.size % 2 == 0:
        raise ValueError("kernel must be 1D with odd length")
    radius = weights.size // 2
    a = as_grid(a)
    acc = np.zeros_like(a)
    for weight, off in zip(weights.astype(a.dtype), range(-radius, radius + 1)):
        _add_shifted(acc, a, axis, off, weight)
    return acc
