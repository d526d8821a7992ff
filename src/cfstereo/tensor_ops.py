"""Dense grid primitives shared by every pipeline stage.

Grids are plain row-major ndarrays whose float dtype follows the input: a
float32 grid stays float32 and anything else becomes float64 (`DTYPE`). The
pipeline feeds float32 cost volumes through here and keeps its maps and
hypothesis planes in float64. Per-pixel reductions accumulate in a fixed
ascending order, so results are bit-stable from run to run.

The stencils read their edge-clamped taps from one edge-padded copy of the
grid (`_edge_pad`, `_shifts`). Along the last axis a tap is one flat run
over all the padded rows, not a view with one short row per NumPy inner
loop, and the results between two rows fall into padding columns that the
returned view leaves out. So a last-axis result is a view of a fresh
buffer, not C-contiguous, and never shares memory with its input.
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


def softmax_along_planes(volume: np.ndarray, negate: bool = False) -> np.ndarray:
    """Per-pixel softmax over axis 0 of a (planes, H, W) grid, or of its
    negation when `negate` is set (the softmin that decodes a cost).

    Stabilized by max subtraction; every per-pixel slice sums to 1. The
    subtraction makes the one fresh array, and the exp and the division
    work in place on it, so `volume` is left as it was. Negated, the
    subtraction is min(volume) - volume, which is (-volume) - max(-volume)
    byte for byte, so no negated copy is made.
    """
    v = as_grid(volume, 3, "softmax input")
    require_finite(v, "softmax input")
    out = v.min(axis=0, keepdims=True) - v if negate else v - v.max(axis=0, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=0, keepdims=True)
    return out


def _edge_pad(a: np.ndarray, axis: int, r: int) -> np.ndarray:
    """A copy of `a` with r copies of its first slice before and of its last
    slice after, along `axis`. The edge-clamped shift by `off` in [-r, r],
    a[clip(i + off, 0, n - 1)], is then the plain slice [r + off, r + off + n)."""
    axis %= a.ndim
    n = a.shape[axis]
    shape = list(a.shape)
    shape[axis] = n + 2 * r
    out = np.empty(shape, a.dtype)
    lead = (slice(None),) * axis
    out[lead + (slice(r, r + n),)] = a
    if n:  # an empty axis has no edge, and its shifts are empty slices
        out[lead + (slice(0, r),)] = a[lead + (slice(0, 1),)]
        out[lead + (slice(r + n, None),)] = a[lead + (slice(n - 1, n),)]
    return out


def _shifts(a: np.ndarray, axis: int, r: int) -> tuple:
    """The 2r+1 edge-clamped shifts of `a` along `axis`, offsets -r..r in
    order, read from one `_edge_pad` copy, with `acc`, a fresh array shaped
    as one tap, and `out`, the view of `acc`'s buffer in `a`'s shape. A
    stencil writes its result into `acc` and returns `out`, which shares
    no memory with `a`.

    Along a leading axis the taps are slices of the copy, shaped as `a`, and
    `out` is `acc`. Along the last axis, of length n, they are 1-D slices of
    the flattened copy, whose rows are n + 2r long: tap k starts k elements
    in, so it holds every row's shift by k - r in one run, and each NumPy
    call loops once over the grid, not once per row. The 2r results between
    two rows mix the end of one padded row with the start of the next; they
    land in the padding columns of `acc`'s (..., n + 2r) buffer, and `out`,
    its first n columns, drops them."""
    axis %= a.ndim
    n = a.shape[axis]
    padded = _edge_pad(a, axis, r)
    if axis < a.ndim - 1 or not a.size:  # an empty grid has no padding to read
        lead = (slice(None),) * axis
        acc = np.empty(a.shape, a.dtype)
        return [padded[lead + (slice(k, k + n),)] for k in range(2 * r + 1)], acc, acc
    flat = padded.reshape(-1)
    size = flat.size - 2 * r
    buffer = np.empty(padded.shape, a.dtype)
    return [flat[k : k + size] for k in range(2 * r + 1)], buffer.reshape(-1)[:size], buffer[..., :n]


def _sample_rows(a: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Sample each row of a (..., H, W) grid at (H, W) fractional columns `src`.

    Linear between the two bracketing columns; a column outside [0, W) gets
    zero weight, so integer columns are an exact lookup and columns beyond
    the frame read 0. This is the x - d warp of every cost volume and of the
    synthetic stereograms.
    """
    return _apply_row_weights(a, _row_weights(src, a.shape[-1], a.dtype))


def _row_weights(src: np.ndarray, w: int, dtype) -> tuple:
    """`_sample_rows`'s gather indices and weights for (H, W) columns `src` in
    rows of width `w`: flat indices of the two bracketing columns and their
    weights in `dtype`, so a float32 gather multiplies in float32. Indices are
    `np.intp`, which `np.take` reads without a cast, so a float32 table is
    24 B per pixel (two 8 B indices, two 4 B weights)."""
    h = src.shape[0]
    base = np.floor(src)
    t = src - base
    # The left column clipped once, in place, to [-2, w]: a column beyond that
    # is out of frame either way, as is the one right of it. Both frame tests
    # and both clipped indices come from this one small-integer column; read
    # as unsigned, a negative column is huge, so one compare tests 0 <= i < w.
    # np.clip's wrapper costs more than these small clips: the float clip is
    # maximum/minimum in place, and int32 bounds skip the int clips' np.iinfo
    # checks (int32 maximum/minimum ran 2-3x slower than clip at 8k values).
    np.maximum(base, -2, out=base)
    np.minimum(base, w, out=base)
    i0 = base.astype(np.int32)
    first, last = np.int32(0), np.int32(w - 1)
    row_start = np.arange(h, dtype=np.intp)[:, None] * w
    # a weight times its 0/1 frame mask is the weight or +0 in any float
    # dtype, so casting first gives the bytes of masking first
    w0 = (1.0 - t).astype(dtype, copy=False)
    w0 *= i0.view(np.uint32) < w
    j0 = i0.clip(first, last) + row_start
    i0 += 1  # the right column from here on
    w1 = t.astype(dtype, copy=False)
    w1 *= i0.view(np.uint32) < w
    j1 = i0.clip(first, last) + row_start
    return j0, w0, j1, w1


def _apply_row_weights(a: np.ndarray, weights: tuple, out=None, spare=None) -> np.ndarray:
    """w0 * a0 + w1 * a1 per channel of a (..., H, W) grid, with a0/a1 gathered
    from the flat rows at `_row_weights`'s indices. Each channel is computed
    alone, so a slice of channels gives that slice of the whole result.

    `out` and `spare`, arrays of the result's shape and dtype, receive the
    two gathers in place of fresh arrays; `out` is returned. The gathers use
    mode "wrap", which writes straight into them and, since `_row_weights`
    clips every index into the grid, wraps nothing."""
    j0, w0, j1, w1 = weights
    flat = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    out = np.take(flat, j0, axis=-1, out=out, mode="wrap")
    out *= w0
    a1 = np.take(flat, j1, axis=-1, out=spare, mode="wrap")
    a1 *= w1
    out += a1
    return out


def _upsample2x_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Double one axis: half-pixel sample centers with edge clamping.

    Output sample 2k sits a quarter cell left of input cell k, sample 2k+1 a
    quarter cell right, so each output is 0.75/0.25 blend of neighbors.
    """
    axis %= a.ndim
    n = a.shape[axis]
    # the edge-padded copy: its slices are both parities' far taps (and, along
    # the last axis, the near tap too)
    far = _edge_pad(a, axis, 1)
    if axis < a.ndim - 1 or not a.size:  # an empty grid has no padding to read
        near = a * 0.75
        far *= 0.25
        shape = list(a.shape)
        shape[axis] *= 2
        out = np.empty(shape, a.dtype)
        lead = (slice(None),) * axis
        for parity, start in ((0, 0), (1, 2)):
            np.add(near, far[lead + (slice(start, start + n),)], out=out[lead + (slice(parity, None, 2),)])
        return out
    # Along the last axis the taps are flat runs over the padded rows, as in
    # `_shifts`. Both parities go into one (..., n + 2, 2) buffer as stride-2
    # runs, and the result is its first n cells of each row.
    near = far * 0.75
    far *= 0.25
    near, far = near.reshape(-1), far.reshape(-1)
    size = far.size - 2
    out = np.empty(a.shape[:-1] + (n + 2, 2), a.dtype)
    flat = out.reshape(-1)
    for parity, start in ((0, 0), (1, 2)):
        np.add(near[1 : 1 + size], far[start : start + size], out=flat[parity : 2 * size : 2])
    return out[..., :n, :].reshape(a.shape[:-1] + (2 * n,))


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
    # pairwise sums of whole slices: x pairs, then y pairs, then plane pairs
    v = v[..., 0::2] + v[..., 1::2]
    v = v[..., 0::2, :] + v[..., 1::2, :]
    v = v[..., 0::2, :, :] + v[..., 1::2, :, :]
    v *= 0.125
    return v


def box_smooth_axis(a: np.ndarray, axis: int, radius: int) -> np.ndarray:
    """Edge-clamped box mean along one axis."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    a = as_grid(a)
    if radius == 0:
        return a.copy()
    taps, acc, out = _shifts(a, axis, radius)
    # + 0.0 turns a leading -0.0 into 0.0, as a sum started from zero would
    np.add(taps[0], 0.0, out=acc)
    for tap in taps[1:]:
        acc += tap
    acc /= 2 * radius + 1
    return out


def weighted_smooth_axis(a: np.ndarray, axis: int, weights) -> np.ndarray:
    """Edge-clamped correlation with a centered odd-length kernel along one axis."""
    weights = np.asarray(weights, dtype=DTYPE)
    if weights.ndim != 1 or weights.size % 2 == 0:
        raise ValueError("kernel must be 1D with odd length")
    radius = weights.size // 2
    a = as_grid(a)
    taps, acc, out = _shifts(a, axis, radius)
    weights = weights.astype(a.dtype)
    np.multiply(weights[0], taps[0], out=acc)
    acc += 0.0  # as in box_smooth_axis
    for weight, tap in zip(weights[1:], taps[1:]):
        acc += weight * tap
    return out
