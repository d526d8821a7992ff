"""Disparity error metrics over valid ground-truth pixels.

Ground truth follows the sparse-map convention: a pixel is valid iff its
value is finite and strictly positive; everything else is excluded from
every denominator. A non-finite prediction at a valid pixel is an error of
every size: the outlier tests count an error unless it is within bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost_volume import HypothesisPlanes
from .tensor_ops import as_grid


def valid_mask(gt: np.ndarray) -> np.ndarray:
    g = as_grid(gt, 2, "ground truth")
    return np.isfinite(g) & (g > 0)


def _checked_gt(gt):
    g = as_grid(gt, 2, "ground truth")
    m = valid_mask(g)
    if not m.any():
        raise ValueError("no valid ground-truth pixels")
    return g, m


def _checked_pair(pred, gt):
    p = as_grid(pred, 2, "prediction")
    g, m = _checked_gt(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: prediction {p.shape} vs ground truth {g.shape}")
    return p, g, m


def _errors(p, g, m):
    """|p - g| and g at the pixels of `m`. Masking first keeps invalid
    pixels (an infinite truth, say) out of the subtraction."""
    gm = g[m]
    return np.abs(p[m] - gm), gm


def bad_tau(pred: np.ndarray, gt: np.ndarray, tau: float) -> float:
    """Fraction of valid pixels with absolute error above tau pixels."""
    err, _ = _errors(*_checked_pair(pred, gt))
    return float(np.count_nonzero(~(err <= tau))) / err.size


def _d1_outliers(err, gt_vals):
    return ~((err <= 3.0) | (err <= 0.05 * gt_vals))


def d1_all(pred: np.ndarray, gt: np.ndarray) -> float:
    """Fraction of valid pixels whose error exceeds both 3 px and 5% of truth."""
    err, gm = _errors(*_checked_pair(pred, gt))
    return float(np.count_nonzero(_d1_outliers(err, gm))) / err.size


def avg_error(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute error over valid pixels; inf if any is predicted non-finite."""
    err, _ = _errors(*_checked_pair(pred, gt))
    return float(err.mean()) if np.isfinite(err).all() else np.inf


def check_threshold(threshold: float, name: str = "threshold") -> None:
    """Reject a sqrt-variance threshold that is not a number > 0 (inf is
    valid), naming it: NaN, zero or a negative value would drop every pixel."""
    if not threshold > 0:
        raise ValueError(f"{name} must be a number > 0, got {threshold}")


@dataclass(frozen=True)
class FilteredMetrics:
    kept_fraction: float
    d1_kept: float


def filtered_metrics(
    pred: np.ndarray, gt: np.ndarray, unc: np.ndarray, threshold: float
) -> FilteredMetrics:
    """Drop pixels whose sqrt-variance reaches `threshold`, then re-measure D1."""
    check_threshold(threshold)
    p, g, m = _checked_pair(pred, gt)
    u = as_grid(unc, 2, "uncertainty")
    if u.shape != p.shape:
        raise ValueError(f"uncertainty shape {u.shape} does not match {p.shape}")
    if (u < 0).any():
        raise ValueError("uncertainty must be non-negative")
    keep = np.sqrt(u) < threshold
    kept = m & keep
    if not kept.any():
        raise ValueError("uncertainty filter dropped every valid pixel")
    err, gk = _errors(p, g, kept)
    d1 = float(np.count_nonzero(_d1_outliers(err, gk))) / err.size
    return FilteredMetrics(
        kept_fraction=float(np.count_nonzero(kept)) / float(np.count_nonzero(m)),
        d1_kept=d1,
    )


def downsample_gt(gt: np.ndarray, factor: int) -> np.ndarray:
    """Decimate ground truth to a coarser grid, rescaling disparity values.

    Invalid samples stay invalid: non-finite values pass through and zeros
    stay zero under the division.
    """
    g = as_grid(gt, 2, "ground truth")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return g[::factor, ::factor] / factor


def window_coverage(gt: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Fraction of valid pixels whose truth lies inside [lo, hi].

    `gt`, `lo` and `hi` are (H, W) maps at one resolution, in the same
    scale-local pixel units.
    """
    g, m = _checked_gt(gt)
    if np.shape(lo) != g.shape or np.shape(hi) != g.shape:
        raise ValueError(f"window shaped {np.shape(lo)}/{np.shape(hi)} does not match ground truth {g.shape}")
    inside = (g >= lo) & (g <= hi) & m
    return float(np.count_nonzero(inside)) / float(np.count_nonzero(m))


def coverage_rate(gt: np.ndarray, planes: HypothesisPlanes) -> float:
    """Fraction of valid pixels whose truth lies inside [min plane, max plane].

    `gt` must already be at the planes' resolution and in the same
    scale-local pixel units.
    """
    pv = planes.values_at(*as_grid(gt, 2, "ground truth").shape)
    return window_coverage(gt, pv[0], pv[-1])
