"""Combination volumes, score reduction, and disparity decoding.

The builders produce the paper's combination volume as the reference: left
features, matched (shifted or warped) right features, and one normalized
inner-product channel per group. Every stage before the cost is linear, so the
pipeline carries the C+1 channel difference volume (left - matched, mean
correlation) and applies `|.|` only in `reduce_to_cost`. A score volume holds
one cost per plane; softmax of the negated cost is the disparity distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parallel import run_rows
from .tensor_ops import DTYPE, as_grid, require_finite, softmax_along_planes


@dataclass(frozen=True, eq=False)
class HypothesisPlanes:
    """Per-pixel candidate disparity values, ascending along the plane axis.

    `values` is (N,) for uniform integer planes shared by every pixel, or
    (N, H, W) for per-pixel planes in scale-local pixel units.
    """

    values: np.ndarray

    @classmethod
    def uniform(cls, count: int) -> "HypothesisPlanes":
        if count < 2:
            raise ValueError("need at least 2 hypothesis planes")
        return cls(np.arange(count, dtype=DTYPE))

    @classmethod
    def per_pixel(cls, values: np.ndarray) -> "HypothesisPlanes":
        v = as_grid(values, 3, "plane values")
        if v.shape[0] < 2:
            raise ValueError("need at least 2 hypothesis planes")
        if np.isnan(v).any():
            raise ValueError("hypothesis planes contain NaN")
        if (np.diff(v, axis=0) < -1e-9).any():
            raise ValueError("plane values must be non-decreasing per pixel")
        return cls(v)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def is_uniform(self) -> bool:
        return self.values.ndim == 1

    def values_at(self, h: int, w: int) -> np.ndarray:
        """Plane values broadcast to (N, H, W)."""
        if self.is_uniform:
            return np.broadcast_to(self.values[:, None, None], (self.count, h, w))
        if self.values.shape[1:] != (h, w):
            raise ValueError(f"planes shaped {self.values.shape} do not match ({h}, {w})")
        return self.values

    def min_map(self, h: int, w: int) -> np.ndarray:
        return self.values_at(h, w)[0]

    def max_map(self, h: int, w: int) -> np.ndarray:
        return self.values_at(h, w)[-1]


@dataclass(frozen=True, eq=False)
class CombinationVolume:
    """(F, N, H, W) reference volume in the paper's concat plus group-correlation
    layout, F = 2*n_channels + n_groups. The pipeline aggregates `difference()`
    instead, and `reduce_to_cost` applies `|.|`."""

    data: np.ndarray
    planes: HypothesisPlanes
    scale: int
    n_channels: int
    n_groups: int

    def difference(self) -> np.ndarray:
        """(n_channels + 1, N, H, W): left - matched per channel, then the mean
        correlation. The cost reads `data` only through these combinations."""
        c = self.n_channels
        out = np.empty((c + 1,) + self.data.shape[1:], dtype=DTYPE)
        np.subtract(self.data[:c], self.data[c : 2 * c], out=out[:c])
        np.mean(self.data[2 * c :], axis=0, out=out[c])
        return out


@dataclass(frozen=True, eq=False)
class ScoreVolume:
    """(N, H, W) matching cost; lower is a better match."""

    cost: np.ndarray
    planes: HypothesisPlanes
    scale: int


def _check_feature_pair(left_feats, right_feats, n_groups):
    fl = as_grid(left_feats, 3, "left features")
    fr = as_grid(right_feats, 3, "right features")
    if fl.shape != fr.shape:
        raise ValueError(f"feature shapes differ: {fl.shape} vs {fr.shape}")
    c = fl.shape[0]
    if n_groups < 1 or c % n_groups:
        raise ValueError(f"{c} channels not divisible into {n_groups} groups")
    return fl, fr, c


def _fill_matched(data, fl, matched, lo, hi, plane, c, n_groups):
    """Write concat + group-correlation channels for one plane of one row chunk."""
    group_size = c // n_groups
    data[:c, plane, lo:hi, :] = fl
    data[c:2 * c, plane, lo:hi, :] = matched
    for g in range(n_groups):
        acc = np.zeros(fl.shape[1:], dtype=DTYPE)
        for ch in range(g * group_size, (g + 1) * group_size):
            acc += fl[ch] * matched[ch]
        data[2 * c + g, plane, lo:hi, :] = acc / group_size


def build_dense_volume(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    dmax: int,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Volume over every integer disparity 0 .. dmax/2^scale - 1.

    The matched side is the right features shifted by d; columns with
    x - d < 0 contribute zeros.
    """
    fl, fr, c = _check_feature_pair(left_feats, right_feats, n_groups)
    if dmax % (1 << scale):
        raise ValueError(f"dmax {dmax} not divisible by 2**scale at scale {scale}")
    n_planes = dmax >> scale
    if n_planes < 2:
        raise ValueError(f"dmax {dmax} leaves fewer than 2 planes at scale {scale}")
    h, w = fl.shape[1:]
    data = np.zeros((2 * c + n_groups, n_planes, h, w), dtype=DTYPE)

    def fill(lo, hi):
        fl_rows = fl[:, lo:hi, :]
        fr_rows = fr[:, lo:hi, :]
        for d in range(n_planes):
            if d == 0:
                matched = fr_rows
            else:
                matched = np.zeros_like(fr_rows)
                if d < w:
                    matched[:, :, d:] = fr_rows[:, :, : w - d]
            _fill_matched(data, fl_rows, matched, lo, hi, d, c, n_groups)

    run_rows(fill, h)
    return CombinationVolume(data, HypothesisPlanes.uniform(n_planes), scale, c, n_groups)


def build_sparse_volume(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    planes: HypothesisPlanes,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Volume over per-pixel fractional planes.

    The matched side interpolates the right features linearly along the row
    between the bracketing integer columns; columns outside the image
    contribute zeros, which makes integer planes an exact lookup.
    """
    fl, fr, c = _check_feature_pair(left_feats, right_feats, n_groups)
    h, w = fl.shape[1:]
    pv = planes.values_at(h, w)
    if np.isnan(pv).any():
        raise ValueError("hypothesis planes contain NaN")
    n_planes = pv.shape[0]
    data = np.zeros((2 * c + n_groups, n_planes, h, w), dtype=DTYPE)
    xs = np.arange(w, dtype=DTYPE)
    fr_flat = fr.reshape(c, h * w)

    def fill(lo, hi):
        fl_rows = fl[:, lo:hi, :]
        row_start = (np.arange(lo, hi) * w)[:, None]
        for n in range(n_planes):
            src = xs[None, :] - pv[n, lo:hi, :]
            base = np.floor(src)
            t = src - base
            i0 = base.astype(np.int64)
            i1 = i0 + 1
            w0 = (1.0 - t) * ((i0 >= 0) & (i0 < w))
            w1 = t * ((i1 >= 0) & (i1 < w))
            # matched = w0 * a0 + w1 * a1, with a0/a1 gathered from the flat rows
            matched = np.take(fr_flat, np.clip(i0, 0, w - 1) + row_start, axis=1)
            matched *= w0
            a1 = np.take(fr_flat, np.clip(i1, 0, w - 1) + row_start, axis=1)
            a1 *= w1
            matched += a1
            _fill_matched(data, fl_rows, matched, lo, hi, n, c, n_groups)

    run_rows(fill, h)
    return CombinationVolume(data, planes, scale, c, n_groups)


def reduce_to_cost(
    diff: np.ndarray,
    planes: HypothesisPlanes,
    scale: int,
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
) -> ScoreVolume:
    """Collapse a (C+1, N, H, W) difference volume to one cost per plane.

    `diff` has the layout of `CombinationVolume.difference()`, usually after
    aggregation: cost = -w_group * diff[C] + w_absdiff * mean_c |diff[c]|.
    """
    c = diff.shape[0] - 1
    cost = -w_group * diff[c] + w_absdiff * np.abs(diff[:c]).mean(axis=0)
    return ScoreVolume(cost, planes, scale)


def soft_argmin(score: ScoreVolume) -> np.ndarray:
    """Expected plane value under softmax(-cost); stays within plane bounds."""
    cost = score.cost
    if cost.shape[0] < 2:
        raise ValueError("need at least 2 planes")
    require_finite(cost, "cost volume")
    p = softmax_along_planes(-cost)
    h, w = cost.shape[1:]
    pv = score.planes.values_at(h, w)
    d_hat = np.zeros((h, w), dtype=DTYPE)
    for n in range(cost.shape[0]):
        d_hat += pv[n] * p[n]
    return np.clip(d_hat, score.planes.min_map(h, w), score.planes.max_map(h, w))


def uncertainty(score: ScoreVolume, d_hat: np.ndarray) -> np.ndarray:
    """Variance of the plane-value distribution around d_hat; zero iff degenerate."""
    cost = score.cost
    h, w = cost.shape[1:]
    if d_hat.shape != (h, w):
        raise ValueError(f"disparity shape {d_hat.shape} does not match cost {cost.shape}")
    require_finite(cost, "cost volume")
    p = softmax_along_planes(-cost)
    pv = score.planes.values_at(h, w)
    u = np.zeros((h, w), dtype=DTYPE)
    for n in range(cost.shape[0]):
        diff = pv[n] - d_hat
        u += diff * diff * p[n]
    return u
