"""Combination volumes, score reduction, and disparity decoding.

CFNet's combination volume concatenates left features, right features
matched at x - d, and one normalized inner-product channel per group. Every
stage before the cost is linear, so the concatenation reaches the cost only
as left - matched. The builders therefore write left - matched per channel
followed by the group correlations, and `reduce_to_cost` applies `|.|`. A
score volume holds one cost per plane; softmax of the negated cost is the
disparity distribution.

The pipeline never holds such a volume whole. Every step before `|.|` acts
on each channel alone, so `stream_cost` builds, regularizes and reduces one
block of channels at a time (`BLOCK_BYTES` of volume), adding |.| of each
regularized block into the cost and regularizing the correlation last. Its
cost is byte-identical to `reduce_to_cost` of the whole regularized volume.
The builders and `stream_cost` share one fill (`_plane_weights`, `_fill`),
so `synth.volume_oracle` checks the fill the pipeline runs, and the builders
stay the whole-volume reference for `stream_cost`'s blocking,
regularization order and reduction.

Volumes take the features' float dtype: float32 features (the pipeline's)
give float32 volumes, float64 features give the float64 reference. The cost,
the planes and every decoded map are float64 either way.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_ops import (
    DTYPE,
    _apply_row_weights,
    _row_weights,
    as_grid,
    softmax_along_planes,
)

# Bytes of (C+1)-layout volume that stream_cost regularizes at once. A channel
# larger than this still goes alone.
BLOCK_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class HypothesisPlanes:
    """Per-pixel candidate disparity values in scale-local pixel units.

    `values` is (N, H, W) with N >= 2, finite and non-decreasing along N.
    The constructor checks this and keeps a read-only float64 copy, so
    planes stay valid whatever later happens to the caller's array.
    """

    values: np.ndarray

    def __post_init__(self):
        v = as_grid(self.values, 3, "plane values").astype(DTYPE)
        if v.shape[0] < 2:
            raise ValueError("need at least 2 hypothesis planes")
        if not np.isfinite(v).all():
            raise ValueError("hypothesis planes contain NaN or inf")
        # one plane pair at a time: np.diff would allocate an (N-1, H, W) temporary
        if any((v[i + 1] - v[i] < -1e-9).any() for i in range(v.shape[0] - 1)):
            raise ValueError("plane values must be non-decreasing per pixel")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def uniform(cls, count: int, shape: tuple[int, int]) -> "HypothesisPlanes":
        """Integer planes 0 .. count - 1 at every pixel of an (H, W) grid."""
        return cls(np.arange(count, dtype=DTYPE)[:, None, None] + np.zeros(shape))

    @classmethod
    def dense(cls, dmax: int, scale: int, shape: tuple[int, int]) -> "HypothesisPlanes":
        """Every integer disparity 0 .. dmax/2^scale - 1 at `scale`."""
        if dmax % (1 << scale):
            raise ValueError(f"dmax {dmax} not divisible by 2**scale at scale {scale}")
        if dmax >> scale < 2:
            raise ValueError(f"dmax {dmax} leaves fewer than 2 planes at scale {scale}")
        return cls.uniform(dmax >> scale, shape)

    @classmethod
    def per_pixel(cls, values: np.ndarray) -> "HypothesisPlanes":
        return cls(values)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    def values_at(self, h: int, w: int) -> np.ndarray:
        """The (N, H, W) values, checked against an (h, w) grid."""
        if self.values.shape[1:] != (h, w):
            raise ValueError(f"planes shaped {self.values.shape} do not match ({h}, {w})")
        return self.values


@dataclass(frozen=True, eq=False)
class CombinationVolume:
    """(C + n_groups, N, H, W): left - matched per feature channel, then one
    correlation per group. With one group, `data` is what `reduce_to_cost`
    reads."""

    data: np.ndarray
    planes: HypothesisPlanes
    scale: int
    n_groups: int


@dataclass(frozen=True, eq=False)
class ScoreVolume:
    """(N, H, W) matching cost; lower is a better match."""

    cost: np.ndarray
    planes: HypothesisPlanes
    scale: int

    def __post_init__(self):
        if self.cost.shape != self.planes.values.shape:
            raise ValueError(f"cost shaped {self.cost.shape} does not match planes {self.planes.values.shape}")

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
    return fl, fr


def _plane_weights(fl, planes):
    """`_row_weights` of the x - d sampling for each plane, in the features' dtype."""
    h, w = fl.shape[1:]
    pv = planes.values_at(h, w)
    xs = np.arange(w, dtype=DTYPE)
    return [_row_weights(xs[None, :] - pv[n], w, fl.dtype) for n in range(pv.shape[0])]


def _fill(fl, fr, weights, out, corr):
    """For a slice of channels, write left - matched into the (B, N, H, W) `out`
    and add each channel's left * matched into the (N, H, W) `corr`, in channel order."""
    for n, wts in enumerate(weights):
        matched = _apply_row_weights(fr, wts)
        np.subtract(fl, matched, out=out[:, n])
        matched *= fl
        for product in matched:
            corr[n] += product


def build_dense_volume(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    dmax: int,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Volume over every integer disparity 0 .. dmax/2^scale - 1: the sparse
    volume on `HypothesisPlanes.dense` over the left features' grid."""
    planes = HypothesisPlanes.dense(dmax, scale, np.shape(left_feats)[1:])
    return build_sparse_volume(left_feats, right_feats, planes, scale, n_groups)


def build_sparse_volume(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    planes: HypothesisPlanes,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Volume over per-pixel fractional planes; the matched side is the right
    features sampled at x - plane (`tensor_ops._row_weights`)."""
    fl, fr = _check_feature_pair(left_feats, right_feats, n_groups)
    weights = _plane_weights(fl, planes)
    c = fl.shape[0]
    group_size = c // n_groups
    data = np.empty((c + n_groups, len(weights)) + fl.shape[1:], dtype=fl.dtype)
    data[c:] = 0
    for g in range(n_groups):
        chans = slice(g * group_size, (g + 1) * group_size)
        _fill(fl[chans], fr[chans], weights, data[chans], data[c + g])
    data[c:] /= group_size
    return CombinationVolume(data, planes, scale, n_groups)


def reduce_to_cost(
    diff: np.ndarray,
    planes: HypothesisPlanes,
    scale: int,
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
) -> ScoreVolume:
    """Collapse a (C+1, N, H, W) difference volume to one cost per plane.

    `diff` has the layout of a one-group `CombinationVolume.data`, usually
    after aggregation: cost = -w_group * diff[C] + w_absdiff * mean_c |diff[c]|.
    The cost is float64 for a float32 volume too: the mean accumulates in
    float64 and the correlation channel is upcast.
    """
    c = diff.shape[0] - 1
    corr = diff[c].astype(DTYPE, copy=False)
    cost = -w_group * corr + w_absdiff * np.abs(diff[:c]).mean(axis=0, dtype=DTYPE)
    return ScoreVolume(cost, planes, scale)


def stream_cost(
    inputs: Sequence[tuple[np.ndarray, np.ndarray, HypothesisPlanes]],
    scale: int,
    regularize: Callable[..., np.ndarray],
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
) -> ScoreVolume:
    """`reduce_to_cost` of a regularized one-group volume, built and
    regularized a block of channels at a time.

    `inputs` holds (left features, right features, planes) per input scale,
    and `regularize` maps one (B, N, H, W) volume per input to a volume on
    the first input's planes, acting on each channel alone (as `aggregate`
    and `fuse_volumes` do). The result equals
    `reduce_to_cost(regularize(*(v.data for v in volumes)), ...)` for the
    one-group volumes the builders give, byte for byte: |.| of each
    regularized block is added into a float64 sum in channel order, and the
    correlation accumulates over all channels in the builders' order and is
    regularized last, as one channel.
    """
    prepared = []
    for left, right, planes in inputs:
        fl, fr = _check_feature_pair(left, right, 1)
        prepared.append((fl, fr, _plane_weights(fl, planes)))
    counts = {fl.shape[0] for fl, _, _ in prepared}
    if len(counts) != 1:
        raise ValueError(f"feature counts differ across inputs: {sorted(counts)}")
    c = counts.pop()
    channel_bytes = sum(len(wts) * fl[0].nbytes for fl, _, wts in prepared)
    block = max(1, BLOCK_BYTES // channel_bytes)
    corrs = [np.zeros((len(wts),) + fl.shape[1:], dtype=fl.dtype) for fl, _, wts in prepared]
    total = np.zeros(corrs[0].shape, dtype=DTYPE)
    for c0 in range(0, c, block):
        chans = slice(c0, min(c0 + block, c))
        volumes = []
        for (fl, fr, weights), corr in zip(prepared, corrs):
            fb = fl[chans]
            vol = np.empty((fb.shape[0], len(weights)) + fb.shape[1:], dtype=fl.dtype)
            _fill(fb, fr[chans], weights, vol, corr)
            volumes.append(vol)
        out = regularize(*volumes)
        np.abs(out, out=out)
        for channel in out:
            total += channel
        del out  # before the next block is built
    corr = regularize(*(acc[None] / c for acc in corrs))[0]
    cost = -w_group * corr.astype(DTYPE, copy=False) + w_absdiff * (total / c)
    return ScoreVolume(cost, inputs[0][2], scale)


def soft_argmin(score: ScoreVolume) -> np.ndarray:
    """Expected plane value under softmax(-cost); stays within plane bounds."""
    p = score._distribution
    pv = score.planes.values
    d_hat = np.zeros(pv.shape[1:], dtype=DTYPE)
    for n in range(pv.shape[0]):
        d_hat += pv[n] * p[n]
    return np.clip(d_hat, pv[0], pv[-1])


def uncertainty(score: ScoreVolume, d_hat: np.ndarray) -> np.ndarray:
    """Variance of the plane-value distribution around d_hat; zero iff degenerate."""
    pv = score.planes.values
    if d_hat.shape != pv.shape[1:]:
        raise ValueError(f"disparity shape {d_hat.shape} does not match cost {score.cost.shape}")
    p = score._distribution
    u = np.zeros(pv.shape[1:], dtype=DTYPE)
    for n in range(pv.shape[0]):
        diff = pv[n] - d_hat
        u += diff * diff * p[n]
    return u
