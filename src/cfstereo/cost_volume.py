"""Combination volumes, score reduction, and disparity decoding.

The builders produce the paper's combination volume as the reference: left
features, right features matched at x - d by `tensor_ops._sample_rows`, and
one normalized inner-product channel per group. Every stage before the cost
is linear, so the pipeline carries the C+1 channel difference volume
(left - matched, mean correlation) and applies `|.|` only in
`reduce_to_cost`. A score volume holds one cost per plane; softmax of the
negated cost is the disparity distribution.

Volumes take the features' float dtype: float32 features (the pipeline's)
give float32 volumes, float64 features give the float64 reference. The cost,
the planes and every decoded map are float64 either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_ops import DTYPE, _sample_rows, as_grid, softmax_along_planes


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
        v = as_grid(values, 3, "plane values").astype(DTYPE, copy=False)
        if v.shape[0] < 2:
            raise ValueError("need at least 2 hypothesis planes")
        if not np.isfinite(v).all():
            raise ValueError("hypothesis planes contain NaN or inf")
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
        out = np.empty((c + 1,) + self.data.shape[1:], dtype=self.data.dtype)
        np.subtract(self.data[:c], self.data[c : 2 * c], out=out[:c])
        np.mean(self.data[2 * c :], axis=0, out=out[c])
        return out


@dataclass(frozen=True, eq=False)
class ScoreVolume:
    """(N, H, W) matching cost; lower is a better match."""

    cost: np.ndarray
    planes: HypothesisPlanes
    scale: int

    @cached_property
    def _distribution(self) -> np.ndarray:
        """softmax(-cost) over planes, shared by soft_argmin and uncertainty.
        The softmax rejects a non-finite cost, naming its index."""
        return softmax_along_planes(-self.cost)


def _check_feature_pair(left_feats, right_feats, n_groups):
    fl = as_grid(left_feats, 3, "left features")
    fr = as_grid(right_feats, 3, "right features")
    if fl.shape != fr.shape:
        raise ValueError(f"feature shapes differ: {fl.shape} vs {fr.shape}")
    # a float32/float64 pair is promoted, so the volume is float64
    dtype = np.result_type(fl, fr)
    fl, fr = fl.astype(dtype, copy=False), fr.astype(dtype, copy=False)
    c = fl.shape[0]
    if n_groups < 1 or c % n_groups:
        raise ValueError(f"{c} channels not divisible into {n_groups} groups")
    return fl, fr, c


def _fill_volume(fl, fr, pv, n_groups):
    """(2C+G, N, H, W) volume: left features, right features sampled at x - pv[n],
    and the group correlations, one plane at a time."""
    c, h, w = fl.shape
    group_size = c // n_groups
    data = np.zeros((2 * c + n_groups, pv.shape[0], h, w), dtype=fl.dtype)
    xs = np.arange(w, dtype=DTYPE)
    for n in range(pv.shape[0]):
        matched = _sample_rows(fr, xs[None, :] - pv[n])
        data[:c, n] = fl
        data[c:2 * c, n] = matched
        for g in range(n_groups):
            acc = np.zeros((h, w), dtype=fl.dtype)
            for ch in range(g * group_size, (g + 1) * group_size):
                acc += fl[ch] * matched[ch]
            data[2 * c + g, n] = acc / group_size
    return data


def build_dense_volume(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    dmax: int,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Volume over every integer disparity 0 .. dmax/2^scale - 1, sampled as
    `build_sparse_volume` samples uniform planes."""
    fl, fr, c = _check_feature_pair(left_feats, right_feats, n_groups)
    if dmax % (1 << scale):
        raise ValueError(f"dmax {dmax} not divisible by 2**scale at scale {scale}")
    n_planes = dmax >> scale
    if n_planes < 2:
        raise ValueError(f"dmax {dmax} leaves fewer than 2 planes at scale {scale}")
    planes = HypothesisPlanes.uniform(n_planes)
    data = _fill_volume(fl, fr, planes.values_at(*fl.shape[1:]), n_groups)
    return CombinationVolume(data, planes, scale, c, n_groups)


def build_sparse_volume(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    planes: HypothesisPlanes,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Volume over per-pixel fractional planes; the matched side is
    `tensor_ops._sample_rows` of the right features at x - plane."""
    fl, fr, c = _check_feature_pair(left_feats, right_feats, n_groups)
    pv = planes.values_at(*fl.shape[1:])
    if not np.isfinite(pv).all():
        raise ValueError("hypothesis planes contain NaN or inf")
    return CombinationVolume(_fill_volume(fl, fr, pv, n_groups), planes, scale, c, n_groups)


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
    The cost is float64 for a float32 volume too: the mean accumulates in
    float64 and the correlation channel is upcast.
    """
    c = diff.shape[0] - 1
    corr = diff[c].astype(DTYPE, copy=False)
    cost = -w_group * corr + w_absdiff * np.abs(diff[:c]).mean(axis=0, dtype=DTYPE)
    return ScoreVolume(cost, planes, scale)


def soft_argmin(score: ScoreVolume) -> np.ndarray:
    """Expected plane value under softmax(-cost); stays within plane bounds."""
    cost = score.cost
    if cost.shape[0] < 2:
        raise ValueError("need at least 2 planes")
    p = score._distribution
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
    p = score._distribution
    pv = score.planes.values_at(h, w)
    u = np.zeros((h, w), dtype=DTYPE)
    for n in range(cost.shape[0]):
        diff = pv[n] - d_hat
        u += diff * diff * p[n]
    return u
