"""Combination volumes, score reduction, and disparity decoding.

CFNet's combination volume concatenates left features, right features
matched at x - d, and one normalized inner-product channel per group. Every
stage before the cost is linear, so the concatenation reaches the cost only
as left - matched. The builders therefore write left - matched per channel
followed by the group correlations, and `reduce_to_cost` applies `|.|`. A
score volume holds one cost per plane; softmax of the negated cost is the
disparity distribution. Every stage searches a `Window`: n planes evenly
spaced from `lo` to `hi` per pixel, the dense planes being [0, n - 1]. A
window makes each (H, W) plane, k * step + lo, only when it is reached;
`HypothesisPlanes` holds whole (N, H, W) planes for the reference
builders, and `Window.planes` (or `sample_planes`) makes them.

The pipeline holds no plane array, and no volume whole but the fused
stage's scale-4 and scale-5 ones (`dense_data`), 1/8 and 1/64 of stage 3's.
`stream_cost` builds and reduces its one input a block of channels at a
time, in the spans and blocks that `tiling` gives for its rows and plane
reach, and regularizes in one of two orders. Regularizing the channels
(stages 3 and 2): every step before `|.|` acts on each channel alone, so
each block is regularized before |.| of it is added into the cost, and the
correlation last; `regularize(block, chans)` gets each block's channel
slice, and the cost is byte-identical to `reduce_to_cost` of the whole
regularized volume. Regularizing the cost (`reduce_first`, stage 1): |.|
of each block is added unregularized, and the one cost channel the sums
give is regularized once, as `regularize(cost, None)`: byte-identical to
regularizing the cost `reduce_to_cost` makes of the whole volume in the
volume's dtype. That is the classic order of matching cost, then
aggregation (Scharstein and Szeliski, IJCV 2002), at 1/(C + 1) of the
regularizing. Stages 3 and 2 keep the channel order: reducing first there
raised the D1 of filtered pixels on noisy desk scenes (ROADMAP item 21).
The builders and `stream_cost` share one fill (`_fill`): an integer plane
d reads the right features shifted d columns as slices, any other plane
gathers through `_row_weights` tables, and `stream_cost` reads which from
its window. So `synth.volume_oracle` checks both fills the pipeline runs, and
the builders stay the whole-volume reference for `stream_cost`'s blocking,
regularization order and reduction. Plane k's value is lo + k * step, so
soft argmin is lo + step * E[k] and the variance step^2 * Var[k] under
p = softmax(-cost): the decode reads no plane values.

Volumes take the features' float dtype: float32 features (the pipeline's)
give float32 volumes, float64 features give the float64 reference. The
channel sum, the cost (made a plane at a time) and the regularizing of a
reduced cost run in the volume's dtype too, and float64 starts at the
decode: a `ScoreVolume` holds its cost as float64, the one cast, and the
windows and every decoded map are float64 either way. The decode adds one
(N, H, W) float64 array to the cost, the softmax's one buffer.
"""

from __future__ import annotations

from collections.abc import Callable
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
# at once (`tiling`): the pipeline's one cache unit, small enough that a
# block, its edge-pad copies and its box sums stay in L2 from its fill to
# its sum. Blocks of 512 KiB to 4 MiB made a desk pair 8-10% slower.
BLOCK_BYTES = 256 << 10


@dataclass(frozen=True, eq=False)
class Window:
    """`n` planes evenly spaced from `lo` to `hi` per pixel, in scale-local
    pixel units; `plane(k)` makes plane k when it is needed. The (H, W)
    bounds are held as float64 without a copy, and checked in O(H * W): one
    shape, finite, lo <= hi and n >= 2, so the planes are finite and
    non-decreasing per pixel."""

    lo: np.ndarray
    hi: np.ndarray
    n: int

    def __post_init__(self):
        lo = as_grid(self.lo, 2, "window lo").astype(DTYPE, copy=False)
        hi = as_grid(self.hi, 2, "window hi").astype(DTYPE, copy=False)
        if lo.shape != hi.shape:
            raise ValueError(f"window bounds differ in shape: {lo.shape} vs {hi.shape}")
        if self.n < 2:
            raise ValueError("need at least 2 hypothesis planes")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("window bounds contain NaN or inf")
        if (lo > hi).any():
            raise ValueError("window lo must not exceed hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def dense(cls, dmax: int, scale: int, shape: tuple[int, int]) -> "Window":
        """Every integer disparity 0 .. n - 1 at `scale`, n = dmax/2^scale:
        the window [0, n - 1], whose planes are those integers exactly."""
        if dmax % (1 << scale):
            raise ValueError(f"dmax {dmax} not divisible by 2**scale at scale {scale}")
        n = dmax >> scale
        if n < 2:
            raise ValueError(f"dmax {dmax} leaves fewer than 2 planes at scale {scale}")
        return cls(np.zeros(shape), np.full(shape, n - 1.0), n)

    @cached_property
    def step(self) -> np.ndarray:
        """(hi - lo) / (n - 1): the spacing of the planes at each pixel."""
        return (self.hi - self.lo) / (self.n - 1)

    def plane(self, k: int) -> np.ndarray:
        """Plane k, (H, W) float64: k * step + lo, and `hi` itself for plane
        n - 1, so a pixel with lo == hi holds lo in every plane. Where no
        step is 0, these are the bytes of `np.linspace(lo, hi, n, axis=0)[k]`."""
        if k == self.n - 1:
            return self.hi
        out = k * self.step
        out += self.lo
        return out

    def planes(self) -> "HypothesisPlanes":
        """Every plane at once, for the reference builders and callers that
        read plane values: one read-only (N, H, W) float64 array filled in
        place with `plane`'s arithmetic. The window's check holds for its
        planes, so they are kept without the constructor's copy or check."""
        values = np.empty((self.n,) + self.lo.shape, DTYPE)
        # `step`'s arithmetic, not its cached map: a StageResult's window
        # outlives the pair, and holding its step put perfbench's large
        # peak_rss_mb at 455.3-455.6 MB against 451.8-451.9 (seeds 4-6)
        step = (self.hi - self.lo) / (self.n - 1)
        for k, out in enumerate(values[:-1]):
            np.multiply(k, step, out=out)
            out += self.lo
        values[-1] = self.hi
        values.flags.writeable = False
        planes = HypothesisPlanes.__new__(HypothesisPlanes)
        object.__setattr__(planes, "values", values)
        return planes


@dataclass(frozen=True, eq=False)
class HypothesisPlanes:
    """Per-pixel candidate disparity values in scale-local pixel units, the
    input of the reference builders and `synth.volume_oracle`.

    `values` is (N, H, W) with N >= 2, finite and non-decreasing along N.
    The constructor checks this and keeps a read-only float64 copy, so
    planes stay valid whatever later happens to the caller's array.
    `Window.planes` makes the planes of a window without that copy.
    """

    values: np.ndarray

    def __post_init__(self):
        v = as_grid(self.values).astype(DTYPE)
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
        object.__setattr__(self, "values", v)

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

    def window(self) -> Window:
        """The window from the first plane to the last. The planes must be
        its planes, to within 1e-9 * max(1, |value|), since a decode reads
        only the window; other planes are a ValueError."""
        window = Window(self.values[0], self.values[-1], self.count)
        if not all(np.allclose(v, window.plane(k), rtol=1e-9, atol=1e-9) for k, v in enumerate(self.values)):
            raise ValueError("planes are not evenly spaced, so they are no window to decode")
        return window


def sample_planes(d_min: np.ndarray, d_max: np.ndarray, n: int) -> HypothesisPlanes:
    """N values evenly spaced from d_min to d_max inclusive, per pixel:
    `Window(d_min, d_max, n).planes()`, so the window's check applies."""
    return Window(d_min, d_max, n).planes()


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
    """(N, H, W) matching cost over the N planes of `window`; lower is a
    better match. The cost is held as float64, so the decode is float64
    whatever made it: a float64 cost without a copy, any other cast once.
    `HypothesisPlanes` given as the window are taken as their `window()`."""

    cost: np.ndarray
    window: Window
    scale: int

    def __post_init__(self):
        object.__setattr__(self, "cost", np.asarray(self.cost, DTYPE))
        if isinstance(self.window, HypothesisPlanes):
            object.__setattr__(self, "window", self.window.window())
        planes = (self.window.n,) + self.window.lo.shape
        if self.cost.shape != planes:
            raise ValueError(f"cost shaped {self.cost.shape} does not match planes {planes}")

    @cached_property
    def _distribution(self) -> np.ndarray:
        """softmax(-cost) over planes, shared by soft_argmin and uncertainty.
        The softmax rejects a non-finite cost, naming its index, and makes
        its one fresh array from the cost with no negated copy."""
        return softmax_along_planes(self.cost, negate=True)

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, var): the mean of the plane index k under the distribution,
        capped at n - 1 (its weights sum to 1 only to rounding), and the
        variance of k about m. Each is summed in ascending k, so on the
        window [0, n - 1] they are the sums over plane values, byte for
        byte."""
        p = self._distribution
        mean, var, term = (np.zeros(p.shape[1:], DTYPE) for _ in range(3))
        for k, pk in enumerate(p):
            mean += np.multiply(pk, k, out=term)
        np.minimum(mean, len(p) - 1, out=mean)
        for k, pk in enumerate(p):
            np.subtract(k, mean, out=term)
            term *= term
            term *= pk
            var += term
        return mean, var


def _check_feature_pair(left_feats, right_feats, n_groups):
    fl = as_grid(left_feats, 3, "left features")
    fr = as_grid(right_feats, 3, "right features")
    if fl.shape != fr.shape:
        raise ValueError(f"feature shapes differ: {fl.shape} vs {fr.shape}")
    # a float32/float64 pair is promoted, so the volume is float64
    dtype = np.result_type(fl, fr)
    fl, fr = fl.astype(dtype, copy=False), fr.astype(dtype, copy=False)
    c = fl.shape[0]
    if not c:
        raise ValueError(f"features have no channel: shape {fl.shape}")
    if n_groups < 1 or c % n_groups:
        raise ValueError(f"{c} channels not divisible into {n_groups} groups")
    return fl, fr


def _gather_weights(fl, values):
    """`_row_weights` of the x - d sampling at the (H, W) plane `values`, in
    the features' dtype."""
    w = fl.shape[2]
    return _row_weights(np.arange(w, dtype=DTYPE)[None, :] - values, w, fl.dtype)


def _shift_rows(fr, d, out):
    """Write the (..., H, W) `fr` shifted d columns along its rows into
    `out`, a C-contiguous array of its shape, with zeros in each row's
    first d columns, or in the whole row when d >= W: the x - d sampling
    at an integer d, read as slices."""
    w = fr.shape[-1]
    if d >= w:
        out[...] = 0
        return
    # one flat run: each row's last d values land in the next row's first d
    # columns, which are then zeroed
    flat_out = out.reshape(out.shape[:-2] + (-1,))
    flat_in = fr.reshape(fr.shape[:-2] + (-1,))
    flat_out[..., d:] = flat_in[..., : flat_in.shape[-1] - d]
    out[..., :d] = 0


def _fill(fl, fr, weights, out, corr):
    """For a slice of channels, write left - matched into the (B, N, H, W) `out`
    and add each channel's left * matched into the (N, H, W) `corr`, in channel order.
    A plane's weights are an integer shift (`_shift_rows`) or gather tables
    (`_apply_row_weights`); every plane reuses the same two scratch arrays."""
    matched, spare = np.empty(fl.shape, fl.dtype), np.empty(fl.shape, fl.dtype)
    for n, wts in enumerate(weights):
        if isinstance(wts, int):
            _shift_rows(fr, wts, matched)
        else:
            _apply_row_weights(fr, wts, matched, spare)
        np.subtract(fl, matched, out=out[:, n])
        matched *= fl
        for product in matched:
            corr[n] += product


def _build(fl, fr, weights, n_groups) -> np.ndarray:
    """The whole volume data of the checked features, filled a group at a time."""
    c = fl.shape[0]
    group_size = c // n_groups
    data = np.empty((c + n_groups, len(weights)) + fl.shape[1:], dtype=fl.dtype)
    data[c:] = 0
    for g in range(n_groups):
        chans = slice(g * group_size, (g + 1) * group_size)
        _fill(fl[chans], fr[chans], weights, data[chans], data[c + g])
    data[c:] /= group_size
    return data


def dense_data(
    left_feats: np.ndarray, right_feats: np.ndarray, dmax: int, scale: int, n_groups: int = 1
) -> np.ndarray:
    """`build_dense_volume(...).data` without its planes: the volume over
    every integer disparity of `Window.dense`, filled by slices. The fused
    stage builds its scale-4 and scale-5 volumes whole with it."""
    fl, fr = _check_feature_pair(left_feats, right_feats, n_groups)
    return _build(fl, fr, list(range(Window.dense(dmax, scale, fl.shape[1:]).n)), n_groups)


def build_dense_volume(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    dmax: int,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Volume over every integer disparity 0 .. dmax/2^scale - 1 on the left
    features' grid (`Window.dense`), filled by slices as `stream_cost`
    fills a dense window; its planes are that window's `planes()`."""
    data = dense_data(left_feats, right_feats, dmax, scale, n_groups)
    return CombinationVolume(data, Window.dense(dmax, scale, data.shape[2:]).planes(), scale, n_groups)


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
    weights = [_gather_weights(fl, v) for v in planes.values_at(*fl.shape[1:])]
    return CombinationVolume(_build(fl, fr, weights, n_groups), planes, scale, n_groups)


def _cost_from_sums(total, corr, c, w_group, w_absdiff) -> np.ndarray:
    """The cost from `total`, the channel-order sum of |diff| over `c`
    channels, and `corr`, the correlation channel, both (N, H, W) in the
    volume's dtype: w_absdiff * total / c - w_group * corr, worked out in
    that dtype a plane at a time, in place in `total`, which is returned."""
    w_group, w_absdiff = total.dtype.type(w_group), total.dtype.type(w_absdiff)
    weighted = np.empty(total.shape[1:], total.dtype)
    for plane, k in zip(total, corr):
        plane /= c
        plane *= w_absdiff
        # a - w * x is -w * x + a exactly
        plane -= np.multiply(k, w_group, out=weighted)
    return total


def reduce_to_cost(
    diff: np.ndarray,
    window: Window,
    scale: int,
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
) -> ScoreVolume:
    """Collapse a (C+1, N, H, W) difference volume to one cost per plane of
    `window` (or of evenly spaced `HypothesisPlanes`, see `ScoreVolume`).

    `diff` has the layout of a one-group `CombinationVolume.data`, usually
    after aggregation: cost = -w_group * diff[C] + w_absdiff * mean_c |diff[c]|.
    The sum of |diff[c]| runs in channel order, and it and the rest of the
    cost are worked out in the volume's dtype (float32 for the pipeline's
    volumes); `ScoreVolume` holds it as float64. A volume of fewer than
    two channels (a feature channel and the correlation) is a ValueError.
    """
    diff = as_grid(diff)
    if diff.shape[0] < 2:
        raise ValueError(f"need the correlation and at least one feature channel, got shape {diff.shape}")
    c = diff.shape[0] - 1
    total = np.zeros(diff.shape[1:], diff.dtype)
    for channel in diff[:c]:
        total += np.abs(channel)
    return ScoreVolume(_cost_from_sums(total, diff[c], c, w_group, w_absdiff), window, scale)


def tiling(c: int, n: int, plane_bytes: int, plane_reach: int | None) -> tuple[tuple[int, int], ...]:
    """`stream_cost`'s (planes, channels per block) for each span of planes,
    for `c` channels of `n` planes of `plane_bytes` each. At plane reach 0
    a span is as many whole planes as fit `BLOCK_BYTES` with every channel;
    otherwise the `n` planes are one span. A block is as many channels as
    fit `BLOCK_BYTES` with their planes in the span. Each is at least one,
    and a zero-byte plane (an empty grid) fits one span and one block of
    everything; a negative reach is a `ValueError`."""
    if plane_reach is not None and plane_reach < 0:
        raise ValueError(f"plane reach must be None or >= 0, got {plane_reach}")
    if not plane_bytes:  # an empty plane fits any block
        return ((n, c),)
    step = max(1, BLOCK_BYTES // (c * plane_bytes)) if plane_reach == 0 else n
    spans = [min(step, n - k) for k in range(0, n, step)]
    return tuple((m, max(1, BLOCK_BYTES // (m * plane_bytes))) for m in spans)


def stream_cost(
    left: np.ndarray,
    right: np.ndarray,
    window: Window,
    scale: int,
    regularize: Callable[[np.ndarray, slice], np.ndarray],
    w_group: float = 1.0,
    w_absdiff: float = 1.0,
    plane_reach: int | None = None,
    reduce_first: bool = False,
) -> ScoreVolume:
    """`reduce_to_cost` of a regularized one-group volume on `window`'s
    planes, built and regularized a block of channels at a time; or, with
    `reduce_first`, its cost regularized once.

    `regularize(block, chans)` maps a (B, N, H, W) block to a volume on the
    same planes, acting on each channel alone (as `aggregate` and
    `fuse_volumes` do); `chans` is the block's slice of the (C+1)-channel
    layout, the correlation being channel C, so a regularizer may read the
    same channels of other volumes. The result equals
    `reduce_to_cost(regularize(v.data, slice(None)), ...)` for the one-group
    volume `v` the builders give on the window's planes, byte for byte:
    |.| of each regularized block is added in channel order into a sum of
    the regularized volume's dtype, and the correlation accumulates over
    all channels in the builders' order and is regularized last, as one
    channel. A window whose planes are the integers 0 .. n - 1 at every
    pixel (`lo` 0 and `hi` n - 1 everywhere, as `Window.dense` and each of
    its row bands) is filled by slices, as `build_dense_volume` fills it;
    any other is gathered, as `build_sparse_volume` gathers its planes.

    With `reduce_first`, no block is regularized: |.| of each is added
    into the sum as it is filled, the cost is made from the sums in the
    volume's dtype, and `regularize(cost, None)` is called once on that
    (N, H, W) cost. The result equals `regularize` of
    `reduce_to_cost(v.data, ...).cost` cast back to the volume's dtype (an
    exact cast: that cost is worked out in it), byte for byte.

    Both orders end in one tail: the correlation regularized (channel
    order only), the cost made as `reduce_to_cost` makes it
    (`_cost_from_sums`), the cost regularized (`reduce_first` only), and
    the `ScoreVolume`, which holds it as float64. `plane_reach` is how many
    planes on each side of a plane `regularize` reads, or None for every
    plane; with the rows' plane bytes it sets `tiling`'s spans and blocks,
    and a span's weights, blocks and sum are made a span at a time.
    """
    fl, fr = _check_feature_pair(left, right, 1)
    if window.lo.shape != fl.shape[1:]:
        raise ValueError(f"window shaped {window.lo.shape} does not match features {fl.shape[1:]}")
    c = fl.shape[0]
    dense = (window.lo == 0).all() and (window.hi == window.n - 1).all()
    corr = np.zeros((window.n,) + fl.shape[1:], dtype=fl.dtype)
    total = None  # made at the first block, in the regularized volume's dtype
    k0 = 0
    for planes, block in tiling(c, window.n, fl[0].nbytes, plane_reach):
        span = slice(k0, k0 + planes)
        # a dense plane k is the shift k; another plane's tables are made as it is reached
        ks = range(k0, k0 + planes)
        weights = list(ks) if dense else [_gather_weights(fl, window.plane(k)) for k in ks]
        k0 += planes
        for c0 in range(0, c, block):
            chans = slice(c0, min(c0 + block, c))
            vol = np.empty((chans.stop - c0, planes) + fl.shape[1:], dtype=fl.dtype)
            _fill(fl[chans], fr[chans], weights, vol, corr[span])
            out = vol if reduce_first else regularize(vol, chans)
            np.abs(out, out=out)
            if total is None:
                total = np.zeros(corr.shape, dtype=out.dtype)
            total_span = total[span]
            for channel in out:
                total_span += channel
            del vol, out  # before the next block is built
    corr /= c
    if not reduce_first:
        # the correlation, averaged in place, is regularized last as one channel
        corr = regularize(corr[None], slice(c, c + 1))[0]
    cost = _cost_from_sums(total, corr, c, w_group, w_absdiff)
    del total, corr
    if reduce_first:
        # the cost, made in place in the sum, is the one channel regularized
        cost = regularize(cost, None)
    return ScoreVolume(cost, window, scale)


def soft_argmin(score: ScoreVolume) -> np.ndarray:
    """Expected plane value under softmax(-cost), lo + step * E[k], with E[k]
    capped at n - 1 and the value at hi: it stays within [lo, hi] and reads
    no plane values."""
    window = score.window
    d = window.step * score._moments[0]
    d += window.lo
    return np.minimum(d, window.hi, out=d)


def uncertainty(score: ScoreVolume, d_hat: np.ndarray) -> np.ndarray:
    """Variance of the plane values about d_hat under softmax(-cost):
    step^2 * Var[k], plus (d_hat - soft argmin)^2, which is 0 for soft
    argmin's own map. It reads no plane values, and on a window with
    step > 0 it is 0 iff the distribution is one-hot and d_hat its plane."""
    window = score.window
    if d_hat.shape != window.lo.shape:
        raise ValueError(f"disparity shape {d_hat.shape} does not match cost {score.cost.shape}")
    u = window.step * window.step
    u *= score._moments[1]
    off = d_hat - soft_argmin(score)
    off *= off
    u += off
    return u
