"""Dense grid primitives shared by every pipeline stage.

Grids are plain row-major float64 ndarrays. Per-pixel reductions accumulate
in a fixed ascending order, so results are bit-stable across worker counts.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


def as_grid(a, ndim: int | None = None, name: str = "input") -> np.ndarray:
    out = np.asarray(a, dtype=DTYPE)
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


def avgpool_volume(volume: np.ndarray, factor: int = 2) -> np.ndarray:
    """Mean-pool the trailing (planes, H, W) axes jointly by `factor`.

    Pooling covers the plane axis as well as space so plane counts stay
    aligned across scales.
    """
    v = as_grid(volume, None, "pool input")
    if v.ndim not in (3, 4):
        raise ValueError(f"expected 3D or 4D volume, got shape {v.shape}")
    n, h, w = v.shape[-3:]
    if n % factor or h % factor or w % factor:
        raise ValueError(
            f"avgpool needs (planes, H, W) divisible by {factor}, got {(n, h, w)}; "
            "pad the volume first"
        )
    lead = v.shape[:-3]
    blocks = v.reshape(lead + (n // factor, factor, h // factor, factor, w // factor, factor))
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
    acc = np.zeros_like(a)
    for weight, off in zip(weights, range(-radius, radius + 1)):
        _add_shifted(acc, a, axis, off, weight)
    return acc
