"""Combination volumes, score reduction, and disparity decoding.

CFNet's combination volume concatenates left features, right features
matched at x - d, and one normalized inner-product channel per group. Every
stage before the cost is linear, so the concatenation reaches the cost only
as left - matched. The builders therefore write left - matched per channel
followed by the group correlations, and `reduce_to_cost` applies `|.|`. A
score volume holds one cost per plane; softmax of the negated cost is the
disparity distribution. `sample_planes` makes every plane set, the dense
planes included: they are the window [0, n - 1] at unit spacing.

The pipeline never holds such a volume whole. Every step before `|.|` acts
on each channel alone, so `stream_cost` builds, regularizes and reduces one
block of channels at a time, adding |.| of each regularized block into the
cost and regularizing the correlation last. A block is `BLOCK_BYTES`
(256 KiB) of volume, or one channel if a channel is larger: small enough
that it, its edge-pad copies and its box sums stay in L2 from its gather to
its sum. When the regularizer reads no neighbouring plane (plane reach 0,
as in the refinement stages under `desk_config`), blocks are cut from spans
of as many whole planes as fit a block with every channel, at least one.
Its cost is byte-identical to `reduce_to_cost` of the whole regularized
volume either way.
The builders and `stream_cost` share one fill (`_plane_weights`, `_fill`),
so `synth.volume_oracle` checks the fill the pipeline runs, and the builders
stay the whole-volume reference for `stream_cost`'s blocking,
regularization order and reduction.

Volumes take the features' float dtype: float32 features (the pipeline's)
give float32 volumes, float64 features give the float64 reference. The
channel sum and the cost tail (a plane at a time) run in the volume's dtype
too, and float64 starts at the decode: the cost is cast once, and the
planes and every decoded map are float64 either way. The decode adds one
(N, H, W) float64 array to the cost, the softmax's one buffer, and planes
that `sample_planes` makes are not copied again.
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

# Bytes of (C+1)-layout volume that stream_cost builds, regularizes and sums
# at once: the pipeline's one cache unit. A channel larger than this still
# goes alone. Blocks of 512 KiB to 4 MiB made a desk pair 8-10% slower.
BLOCK_BYTES = 256 << 10


def _checked_planes(v: np.ndarray) -> np.ndarray:
    """`v`, a float64 array of plane values that nothing else holds, checked
    and made read-only."""
    if v.ndim != 3:
        raise ValueError(f"plane values must be 3-dimensional, got shape {v.shape}")
    if v.shape[0] < 2:
        raise ValueError("need at least 2 hypothesis planes")
    if not np.isfinite(v).all():
        raise ValueError("hypothesis planes contain NaN or inf")
    # one plane pair at a time: np.diff would allocate an (N-1, H, W) temporary
    if any((v[i + 1] - v[i] < -1e-9).any() for i in range(v.shape[0] - 1)):
        raise ValueError("plane values must be non-decreasing per pixel")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class HypothesisPlanes:
    """Per-pixel candidate disparity values in scale-local pixel units.

    `values` is (N, H, W) with N >= 2, finite and non-decreasing along N.
    The constructor checks this and keeps a read-only float64 copy, so
    planes stay valid whatever later happens to the caller's array.
    `sample_planes` makes every spaced and dense plane set: it checks the
    array it makes and keeps it without that copy.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_planes(as_grid(self.values).astype(DTYPE)))

    @classmethod
    def dense(cls, dmax: int, scale: int, shape: tuple[int, int]) -> "HypothesisPlanes":
        """Every integer disparity 0 .. n - 1 at `scale`, n = dmax/2^scale:
        `sample_planes` over [0, n - 1], whose linspace is those integers exactly."""
        if dmax % (1 << scale):
            raise ValueError(f"dmax {dmax} not divisible by 2**scale at scale {scale}")
        n = dmax >> scale
        if n < 2:
            raise ValueError(f"dmax {dmax} leaves fewer than 2 planes at scale {scale}")
        return sample_planes(np.zeros(shape), np.full(shape, n - 1.0), n)

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


def sample_planes(d_min: np.ndarray, d_max: np.ndarray, n: int) -> HypothesisPlanes:
    """N values linearly spaced from d_min to d_max inclusive, per pixel:
    `np.linspace(d_min, d_max, n, axis=0)` in float64, checked and kept
    without a copy. `_checked_planes` rejects n < 2 and d_min > d_max."""
    lo = as_grid(d_min, 2, "d_min")
    hi = as_grid(d_max, 2, "d_max")
    if lo.shape != hi.shape:
        raise ValueError(f"shape mismatch: {lo.shape} vs {hi.shape}")
    values = np.linspace(lo, hi, n, axis=0).astype(DTYPE, copy=False)
    planes = HypothesisPlanes.__new__(HypothesisPlanes)
    object.__setattr__(planes, "values", _checked_planes(values))
    return planes


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
        The softmax rejects a non-finite cost, naming its index, and makes
        its one fresh array from the cost with no negated copy."""
        return softmax_along_planes(self.cost, negate=True)


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


def _plane_weights(fl, values):
    """`_row_weights` of the x - d sampling for each of the (N, H, W) plane
    `values`, in the features' dtype."""
    w = fl.shape[2]
    xs = np.arange(w, dtype=DTYPE)
    return [_row_weights(xs[None, :] - v, w, fl.dtype) for v in values]


def _fill(fl, fr, weights, out, corr):
    """For a slice of channels, write left - matched into the (B, N, H, W) `out`
    and add each channel's left * matched into the (N, H, W) `corr`, in channel order.
    Every plane's gathers reuse the same two scratch arrays."""
    matched, spare = np.empty(fl.shape, fl.dtype), np.empty(fl.shape, fl.dtype)
    for n, wts in enumerate(weights):
        _apply_row_weights(fr, wts, matched, spare)
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
    weights = _plane_weights(fl, planes.values_at(*fl.shape[1:]))
    c = fl.shape[0]
    group_size = c // n_groups
    data = np.empty((c + n_groups, len(weights)) + fl.shape[1:], dtype=fl.dtype)
    data[c:] = 0
    for g in range(n_groups):
        chans = slice(g * group_size, (g + 1) * group_size)
        _fill(fl[chans], fr[chans], weights, data[chans], data[c + g])
    data[c:] /= group_size
    return CombinationVolume(data, planes, scale, n_groups)


def _cost_from_sums(total, corr, c, w_group, w_absdiff) -> np.ndarray:
    """The float64 cost from `total`, the channel-order sum of |diff| over
    `c` channels, and `corr`, the correlation channel, both (N, H, W) in the
    volume's dtype: w_absdiff * total / c - w_group * corr, worked out in
    that dtype a plane at a time, in place in `total`. Each plane's last
    subtraction writes its float64 cost plane, the one cast."""
    w_group, w_absdiff = total.dtype.type(w_group), total.dtype.type(w_absdiff)
    cost = np.empty(total.shape, DTYPE)
    weighted = np.empty(total.shape[1:], total.dtype)
    for plane, k, out in zip(total, corr, cost):
        plane /= c
        plane *= w_absdiff
        # a - w * x is -w * x + a exactly; NumPy picks the loop from the
        # inputs, so the difference is rounded in their dtype, then cast
        np.subtract(plane, np.multiply(k, w_group, out=weighted), out=out)
    return cost


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
    The sum of |diff[c]| runs in channel order, and it and the rest of the
    cost are worked out in the volume's dtype (float32 for the pipeline's
    volumes); the cost is then float64, cast once for the decode.
    """
    diff = as_grid(diff)
    c = diff.shape[0] - 1
    total = np.zeros(diff.shape[1:], diff.dtype)
    for channel in diff[:c]:
        total += np.abs(channel)
    return ScoreVolume(_cost_from_sums(total, diff[c], c, w_group, w_absdiff), planes, scale)


def stream_cost(
    inputs: Sequence[tuple[np.ndarray, np.ndarray, HypothesisPlanes]],
    scale: int,
    regularize: Callable[..., np.ndarray],
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
    plane_reach: int | None = None,
) -> ScoreVolume:
    """`reduce_to_cost` of a regularized one-group volume, built and
    regularized a block of channels at a time.

    `inputs` holds (left features, right features, planes) per input scale,
    and `regularize` maps one (B, N, H, W) volume per input to a volume on
    the first input's planes, acting on each channel alone (as `aggregate`
    and `fuse_volumes` do). The result equals
    `reduce_to_cost(regularize(*(v.data for v in volumes)), ...)` for the
    one-group volumes the builders give, byte for byte: |.| of each
    regularized block is added in channel order into a sum of the
    regularized volume's dtype, and the correlation accumulates over all
    channels in the builders' order and is regularized last, as one
    channel.

    `plane_reach` is how many planes on each side of a plane `regularize`
    reads (`fusion.aggregate_plane_reach`), or None for every plane; a
    negative reach is a `ValueError`. At 0, with one input, a span holds as
    many whole planes as fit `BLOCK_BYTES` with every channel, and at least
    one: its weights, its channel blocks and its sum are made a span at a
    time, so small planes share a block and large ones go one at a time.
    Otherwise every plane is one span. A span's blocks are the channels
    whose planes fit `BLOCK_BYTES` (at least one channel), so a block, which
    `regularize` works on whole, stays in L2 from its gather to its sum.

    The cost is made from the sum and the correlation as `reduce_to_cost`
    makes it (`_cost_from_sums`): in the volume's dtype a plane at a time,
    cast to float64 as each plane is written.
    """
    prepared = []
    for left, right, planes in inputs:
        fl, fr = _check_feature_pair(left, right, 1)
        prepared.append((fl, fr, planes.values_at(*fl.shape[1:])))
    counts = {fl.shape[0] for fl, _, _ in prepared}
    if len(counts) != 1:
        raise ValueError(f"feature counts differ across inputs: {sorted(counts)}")
    c = counts.pop()
    if plane_reach is not None and plane_reach < 0:
        raise ValueError(f"plane reach must be None or >= 0, got {plane_reach}")
    if plane_reach == 0 and len(prepared) > 1:
        raise ValueError(f"plane reach 0 takes one input, got {len(prepared)}")
    corrs = [np.zeros(pv.shape, dtype=fl.dtype) for fl, _, pv in prepared]
    total = None  # made at the first block, in the regularized volume's dtype
    n_planes = len(prepared[0][2])
    if plane_reach == 0:
        # whole planes with every channel, prepared[0][0] being (C, H, W)
        step = max(1, BLOCK_BYTES // prepared[0][0].nbytes)
        spans = [slice(n, n + step) for n in range(0, n_planes, step)]
    else:
        spans = [slice(None)]
    for span in spans:
        parts = [(fl, fr, _plane_weights(fl, pv[span]), corr[span]) for (fl, fr, pv), corr in zip(prepared, corrs)]
        channel_bytes = sum(len(wts) * fl[0].nbytes for fl, _, wts, _ in parts)
        block = max(1, BLOCK_BYTES // channel_bytes)
        for c0 in range(0, c, block):
            chans = slice(c0, min(c0 + block, c))
            volumes = []
            for fl, fr, weights, corr in parts:
                fb = fl[chans]
                vol = np.empty((fb.shape[0], len(weights)) + fb.shape[1:], dtype=fl.dtype)
                _fill(fb, fr[chans], weights, vol, corr)
                volumes.append(vol)
            out = regularize(*volumes)
            np.abs(out, out=out)
            if total is None:
                total = np.zeros(corrs[0].shape, dtype=out.dtype)
            total_span = total[span]
            for channel in out:
                total_span += channel
            del out  # before the next block is built
    # the correlation, averaged in place, is regularized last as one channel
    for corr in corrs:
        corr /= c
    corr = regularize(*(acc[None] for acc in corrs))[0]
    return ScoreVolume(_cost_from_sums(total, corr, c, w_group, w_absdiff), inputs[0][2], scale)


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
