"""Uncertainty-driven coarse-to-fine disparity refinement.

Every stage decodes a `cost_volume.Window`: n planes evenly spaced from
`lo` to `hi` per pixel, which alone decide `stream_cost`'s fill. Stage 3
has no estimate to refine: its window, the dense [0, n - 1], is filled by
slices and fused with scales 4 and 5's dense volumes, built whole once
per pair; stages 2 and 1 gather in a per-pixel window from the previous
stage's estimate and variance. `config.RangeParams`, the window's
parameters, is re-exported here, and so is `cost_volume.sample_planes`;
each checks its own input, and a `Window` checks its bounds.

`plan` works out how every stage is banded from the image shape and the
config alone, and checks the shape: one `StagePlan` per stage, with its row
bands, their halo, its plane reach and its order; `StagePlan` states the
rules once. `stream_cost` tiles each band into plane spans and channel
blocks itself, from the band's rows and the plane reach. `run_pipeline`
makes the plan and runs it, one loop for every stage: each band streams
its rows of the stage's features and window, one input, through the
stage's regularizer.
Stages 3 and 2 regularize each of their C + 1 channel volumes and take
`|.|` after, as the combination volume is regularized before its cost;
stage 1 (`StagePlan.reduce_first`) reduces its channels to one cost first
and regularizes that, the classic matching-cost-then-aggregation order.
At stage 1 that order passes every accuracy gate and regularizes one
channel, not C + 1; at stages 3 and 2 it raised the D1 of filtered pixels
on noisy desk scenes, so they wait for a temperature that transfers across
dmax (ROADMAP items 21 and 11).
A stage makes the pyramid levels it reads from the images' blur chains
(`features.blur_chain`) and drops them once it is decoded: levels 4 and 5,
each until the fused stage 3 has built its volume, and level 3 for stage
3, level 2 for stage 2, level 1 for stage 1. No two stages' levels are
held at once, and none is held during the output.
The fill and the decode make no (N, H, W) plane array.
A `StageResult` keeps the `Window` it decoded and builds its planes afresh
each time they are read, so no output holds a plane array.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import RangeParams, RunConfig
from .cost_volume import HypothesisPlanes, Window, dense_data, sample_planes, soft_argmin, stream_cost, uncertainty
from .errors import PipelineError
from .features import blur_chain, check_size, level_features
from .fusion import aggregate, fuse_volumes
from .tensor_ops import DTYPE, as_grid, bilinear_upsample2x

__all__ = [
    "RangeParams",
    "StageResult",
    "PipelineOutput",
    "uncertainty",
    "range_bounds",
    "next_range",
    "sample_planes",
    "StagePlan",
    "plan",
    "run_pipeline",
]

# A stage decodes in row bands of at most about this many bytes of float64
# (N, H, W) map. At 2 MiB, a 512x1024 pair's stage 1 takes 6 bands,
# not 3 as at 4 MiB, and perfbench's large `pair_ref.p50` was lower in 10 of
# 10 interleaved pairs (1.84 -> 1.70); a 256x512 pair's stage 1 takes 2
# bands, not 1, and mid's was no worse (2.36 -> 2.29).
BAND_BYTES = 2 << 20
# the pipeline's feature and volume dtype
FEATURE_DTYPE = np.float32


@dataclass(frozen=True)
class Band:
    """Rows [a, b) of a stage's maps, decoded from rows [a0, b0): the band
    and its halo, clipped at the grid's edge."""

    a0: int
    a: int
    b: int
    b0: int


@dataclass(frozen=True)
class StagePlan:
    """How one stage is decoded, worked out by `plan` before any pixel is
    read: `n` planes on the (h, w) grid of `scale`, in `bands`.

    Stage 3 searches dmax/8 planes, `fused` with scales 4 and 5 when fusion
    is on, and stages 2 and 1 `cascade.n2` and `cascade.n1`, read through
    `RangeParams.for_stage` as `next_range` reads them; each stage's window
    says whether `stream_cost` fills it by slices. A stage not fused is
    cut into as many even row bands as its float64 (n, h, w) map fills
    `BAND_BYTES`, rounded up, at most one per row. Its `halo`, the rows a
    band reads on each side, is `aggregate`'s y box once per pass, and its
    `plane_reach` the plane box once per pass: what its regularizer reads,
    so rows [a, b) of a band read with its halo are those rows of the whole
    stage's decode, byte for byte. A fused stage is one band with no halo
    and every plane in reach (None), since fusion's reach across scales is
    not worked out. `stream_cost` tiles each band, from its rows and the
    plane reach (`cost_volume.tiling`).

    `reduce_first`, set for stage 1 only, makes `stream_cost` regularize
    the band's one cost channel rather than its C + 1 channel volumes. The
    regularizer reaches as far on one channel as on each of many, so the
    halo and plane reach are the same either way."""

    scale: int
    h: int
    w: int
    n: int
    fused: bool
    halo: int
    plane_reach: int | None
    bands: tuple[Band, ...]
    reduce_first: bool


@dataclass(frozen=True, eq=False)
class StageResult:
    """One stage's maps and the `Window` it decoded. The pipeline makes no
    plane array; `planes` builds the window's (`Window.planes`) each time
    it is read, for callers that read plane values, such as the
    benchmark's stage statistics, and keeps none."""

    scale: int
    disparity: np.ndarray
    uncertainty: np.ndarray
    window: Window

    @property
    def planes(self) -> HypothesisPlanes:
        return self.window.planes()


@dataclass(frozen=True, eq=False)
class PipelineOutput:
    """Per-stage results (scales 3, 2, 1) plus the full-resolution maps."""

    stages: tuple[StageResult, ...]
    disparity: np.ndarray
    uncertainty: np.ndarray


def range_bounds(
    d_hat: np.ndarray, u: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Window around the estimate before any resampling or unit conversion:
    d_hat -+ ((alpha + 1) * sqrt(u) + beta)."""
    d = as_grid(d_hat)
    uu = as_grid(u)
    if d.shape != uu.shape:
        raise ValueError(f"shape mismatch: {d.shape} vs {uu.shape}")
    if (uu < 0).any():
        raise ValueError("uncertainty must be non-negative")
    half = (alpha + 1.0) * np.sqrt(uu) + beta
    return d - half, d + half


def next_range(
    d_hat: np.ndarray,
    u: np.ndarray,
    params: RangeParams,
    stage: int,
    dmax: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel search window at the next (finer) scale.

    Bounds are computed at the current scale, bilinearly upsampled 2x,
    doubled to convert disparity units, clamped to the representable range,
    and finally widened to at least (N-1)*min_step. The widening shifts
    inward at the borders so all N planes stay distinct.
    """
    alpha, beta, n_planes = params.for_stage(stage)
    lo, hi = range_bounds(d_hat, u, alpha, beta)
    lo = 2.0 * bilinear_upsample2x(lo)
    hi = 2.0 * bilinear_upsample2x(hi)
    d_top = dmax / (1 << (stage - 1)) - 1.0
    lo = np.clip(lo, 0.0, d_top)
    hi = np.clip(hi, 0.0, d_top)
    floor = min((n_planes - 1) * params.min_step, d_top)
    narrow = (hi - lo) < floor
    center = 0.5 * (lo + hi)
    lo = np.where(narrow, center - 0.5 * floor, lo)
    hi = np.where(narrow, center + 0.5 * floor, hi)
    shift = np.maximum(0.0, -lo)
    lo += shift
    hi += shift
    shift = np.maximum(0.0, hi - d_top)
    lo -= shift
    hi -= shift
    return np.maximum(lo, 0.0), hi


def _bands(h: int, count: int) -> list[tuple[int, int]]:
    """`count` row spans [a, b) that split h rows evenly, longer ones first."""
    q, r = divmod(h, count)
    starts = [k * q + min(k, r) for k in range(count + 1)]
    return list(zip(starts[:-1], starts[1:]))


def plan(shape: tuple[int, int], config: RunConfig) -> tuple[StagePlan, ...]:
    """Every stage's `StagePlan`, scales 3, 2 and 1, from the image shape
    and the config alone. The shape must pass `features.check_size`."""
    h, w = shape
    check_size(h, w)
    dmax, passes, (r_plane, _, r_y) = config.pipeline_dmax, config.fusion_passes, config.fusion_smooth_radius
    params = RangeParams.from_config(config)
    entries = []
    for scale, n in ((3, dmax >> 3), (2, params.for_stage(3)[2]), (1, params.for_stage(2)[2])):
        hs, ws = h >> scale, w >> scale
        fused = scale == 3 and config.fusion_enabled
        if fused:
            halo, plane_reach, count = 0, None, 1
        else:
            halo, plane_reach = passes * r_y, passes * r_plane
            count = min(hs, -(-n * hs * ws * 8 // BAND_BYTES))
        bands = tuple(Band(max(0, a - halo), a, b, min(hs, b + halo)) for a, b in _bands(hs, count))
        entries.append(StagePlan(scale, hs, ws, n, fused, halo, plane_reach, bands, scale == 1))
    return tuple(entries)


@contextmanager
def _stage(tag: str):
    """Re-raise a failure inside the block as a PipelineError tagged `tag`."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{tag}: {exc}") from exc


def run_pipeline(left: np.ndarray, right: np.ndarray, config: RunConfig) -> PipelineOutput:
    """Full cascade: fused initial estimate, two sparse refinements, final 2x output.

    Output disparity and uncertainty are at full resolution in full-resolution
    pixel units (uncertainty scales by 4 as a variance).
    """
    with _stage("input"):
        li = as_grid(left, 2, "left image").astype(DTYPE, copy=False)
        ri = as_grid(right, 2, "right image").astype(DTYPE, copy=False)
        if li.shape != ri.shape:
            raise ValueError(f"image shapes differ: {li.shape} vs {ri.shape}")
    dmax = config.pipeline_dmax
    params = RangeParams.from_config(config)
    w_g, w_a = config.cost_w_group, config.cost_w_absdiff

    with _stage("features"):
        stages = plan(li.shape, config)
        census = config.features_census_radius
        # each image's blur chain; a stage makes its levels from it as it needs them
        chains = [blur_chain(img) for img in (li, ri)]

    def level(scale):
        """Both images' features at `scale`, in `FEATURE_DTYPE`: every volume
        below is float32. The chains drop their images at that scale."""
        return [level_features(chain.pop(scale), census, FEATURE_DTYPE) for chain in chains]

    def decode_window(entry, window):
        # the fused stage's whole scale-4 and scale-5 volumes, each level
        # dropped once its volume is built, then the stage's own level: all
        # of them live until the stage is decoded and no longer
        coarser = [dense_data(*level(s), dmax, s) for s in (4, 5)] if entry.fused else []
        feats = level(entry.scale)

        def regularize(block, chans):
            if coarser:
                return fuse_volumes(block, *(v[chans] for v in coarser), config)
            return aggregate(block, config)

        disp, unc = np.empty((entry.h, entry.w), DTYPE), np.empty((entry.h, entry.w), DTYPE)
        for band in entry.bands:
            rows, keep = slice(band.a0, band.b0), slice(band.a - band.a0, band.b - band.a0)
            fl_rows, fr_rows = (np.ascontiguousarray(f[:, rows]) for f in feats)
            rows_window = Window(window.lo[rows], window.hi[rows], window.n)
            sv = stream_cost(
                fl_rows, fr_rows, rows_window, entry.scale, regularize, w_g, w_a,
                entry.plane_reach, entry.reduce_first,
            )
            d = soft_argmin(sv)
            disp[band.a : band.b] = d[keep]
            unc[band.a : band.b] = uncertainty(sv, d)[keep]
            # the band's cost, softmax and window, before the next band's are made
            del rows_window, sv
        return StageResult(entry.scale, disp, unc, window)

    results = []
    for entry in stages:
        with _stage(f"stage {entry.scale}"):
            if not results:  # the first stage has no estimate to refine
                window = Window.dense(dmax, entry.scale, (entry.h, entry.w))
            else:
                prev = results[-1]
                lo, hi = next_range(prev.disparity, prev.uncertainty, params, prev.scale, dmax)
                window = Window(lo, hi, entry.n)
            results.append(decode_window(entry, window))

    with _stage("output"):
        final = results[-1]
        disp = 2.0 * bilinear_upsample2x(final.disparity)
        unc = 4.0 * bilinear_upsample2x(final.uncertainty)
    return PipelineOutput(tuple(results), disp, unc)
