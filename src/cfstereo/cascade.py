"""Uncertainty-driven coarse-to-fine disparity refinement.

Every stage decodes a `cost_volume.Window`: n planes evenly spaced from
`lo` to `hi` per pixel. Stage 3's window is the dense [0, n - 1], fused
with the dense windows of scales 4 and 5; stages 2 and 1 re-match inside a
per-pixel window derived from the previous stage's estimate and its
variance. `config.RangeParams`, the window's parameters, is re-exported
here, and so is `cost_volume.sample_planes`; each checks its own input,
and a `Window` checks its bounds. The image size is checked by
`build_pyramid`, so the pipeline does not check them again.

One loop decodes every stage, in row bands of `BAND_BYTES`, except that a
stage fused with coarser scales (stage 3 with fusion on) is one band. A
band's window is its rows of the stage's window, and the fill and the
decode make no (N, H, W) plane array. A `StageResult` keeps the `Window`
it decoded and builds its planes only when they are read.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RangeParams, RunConfig
from .cost_volume import HypothesisPlanes, Window, sample_planes, soft_argmin, stream_cost, uncertainty
from .errors import PipelineError
from .features import build_pyramid
from .fusion import aggregate, aggregate_plane_reach, aggregate_reach, fuse_volumes
from .tensor_ops import DTYPE, as_grid, bilinear_upsample2x

__all__ = [
    "RangeParams",
    "StageResult",
    "PipelineOutput",
    "uncertainty",
    "range_bounds",
    "next_range",
    "sample_planes",
    "run_pipeline",
]

# A stage decodes in row bands of at most about this many bytes of float64
# (N, H, W) map. At 2 MiB, a 512x1024 pair's stage 1 takes 6 bands,
# not 3 as at 4 MiB, and perfbench's large `pair_ref.p50` was lower in 10 of
# 10 interleaved pairs (1.84 -> 1.70); a 256x512 pair's stage 1 takes 2
# bands, not 1, and mid's was no worse (2.36 -> 2.29).
BAND_BYTES = 2 << 20


@dataclass(frozen=True, eq=False)
class StageResult:
    """One stage's maps and the `Window` it decoded. The pipeline makes no
    plane array; `planes` builds the window's (`Window.planes`) the first
    time it is read, for callers that read plane values, such as the
    benchmark's stage statistics."""

    scale: int
    disparity: np.ndarray
    uncertainty: np.ndarray
    window: Window

    @cached_property
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
        kw = dict(
            census_radius=config.features_census_radius,
            stat_radius=config.features_stat_radius,
        )
        # features in float64, each level cast as it is made: every volume below is float32
        feat_l, feat_r = (build_pyramid(img, dtype=np.float32, **kw) for img in (li, ri))

    def smooth(volume):
        return aggregate(volume, config)

    def fuse(v3, v4, v5):
        return fuse_volumes(v3, v4, v5, config)

    # Every stage decodes its window in BAND_BYTES row bands of its float64
    # (N, H, W) map. Only aggregate's y box couples rows, so a band read with
    # aggregate_reach rows of halo on each side gives its own rows' bytes
    # exactly; a band's window is its rows of lo and hi, whose planes are
    # those rows of the stage's planes, since each plane is worked out per
    # pixel. `coarser` holds the inputs fused in from scales 4 and 5, and a
    # stage with them is one band: fusion's row reach is not worked out. A
    # one-band stage reads the whole feature arrays, not copies.
    def decode_window(scale, window, regularize, coarser=()):
        fl, fr = feat_l[scale], feat_r[scale]
        h, w = window.lo.shape
        count = 1 if coarser else min(h, -(-window.n * window.lo.nbytes // BAND_BYTES))
        halo = aggregate_reach(config)
        plane_reach = None if coarser else aggregate_plane_reach(config)
        disp, unc = np.empty((h, w), DTYPE), np.empty((h, w), DTYPE)
        for a, b in _bands(h, count):
            a0, b0 = max(0, a - halo), min(h, b + halo)
            fl_rows, fr_rows = (np.ascontiguousarray(f[:, a0:b0]) for f in (fl, fr))
            inputs = [(fl_rows, fr_rows, Window(window.lo[a0:b0], window.hi[a0:b0], window.n)), *coarser]
            sv = stream_cost(inputs, scale, regularize, w_g, w_a, plane_reach)
            d = soft_argmin(sv)
            disp[a:b] = d[a - a0 : b - a0]
            unc[a:b] = uncertainty(sv, d)[a - a0 : b - a0]
            # the band's cost, softmax and window, before the next band's are made
            del inputs, sv
        return StageResult(scale, disp, unc, window)

    with _stage("stage 3"):
        dense = Window.dense(dmax, 3, feat_l[3].shape[1:])
        fused = config.fusion_enabled
        coarser = [(feat_l[s], feat_r[s], Window.dense(dmax, s, feat_l[s].shape[1:])) for s in (4, 5) if fused]
        results = [decode_window(3, dense, fuse if fused else smooth, coarser)]

    for stage in (3, 2):
        with _stage(f"stage {stage - 1}"):
            prev = results[-1]
            lo, hi = next_range(prev.disparity, prev.uncertainty, params, stage, dmax)
            results.append(decode_window(stage - 1, Window(lo, hi, params.for_stage(stage)[2]), smooth))

    with _stage("output"):
        final = results[-1]
        disp = 2.0 * bilinear_upsample2x(final.disparity)
        unc = 4.0 * bilinear_upsample2x(final.uncertainty)
    return PipelineOutput(tuple(results), disp, unc)
