"""Synthetic stereo pairs with exact ground truth, plus brute-force oracles.

The right image is seeded noise texture; the left image samples it through
the disparity field, left(x, y) = right(x - d, y), with the row sampler the
cost volumes use (`tensor_ops._sample_rows`). Pixels whose source column
falls outside the frame, or that lose the z-buffer visibility test near
disparity jumps, are invalid and get filled with fresh noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_volume import CombinationVolume, HypothesisPlanes
from .tensor_ops import DTYPE, _sample_rows, as_grid, box_smooth_axis


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    left: np.ndarray
    right: np.ndarray
    gt: np.ndarray  # full-resolution px; invalid pixels hold 0
    valid: np.ndarray
    seed: int
    spec: str


def disparity_field(spec: str, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Build a disparity field from a spec string.

    Forms: constant:<v> | two-plane:<near>,<far> | slanted:<lo>,<hi> |
    piecewise:<lo>,<hi>[,<slabs>] (seeded random vertical slabs).
    """
    h, w = shape
    kind, _, argstr = spec.partition(":")
    args = [float(p) for p in argstr.split(",") if p.strip()] if argstr else []
    if kind == "constant":
        if len(args) != 1:
            raise ValueError(f"constant spec needs one value, got {spec!r}")
        return np.full(shape, args[0], dtype=DTYPE)
    if kind == "two-plane":
        if len(args) != 2:
            raise ValueError(f"two-plane spec needs two values, got {spec!r}")
        field = np.full(shape, args[0], dtype=DTYPE)
        field[:, w // 2 :] = args[1]
        return field
    if kind == "slanted":
        if len(args) != 2:
            raise ValueError(f"slanted spec needs two values, got {spec!r}")
        ramp = np.linspace(args[0], args[1], w, dtype=DTYPE)
        return np.broadcast_to(ramp, shape).copy()
    if kind == "piecewise":
        if len(args) not in (2, 3):
            raise ValueError(f"piecewise spec needs lo,hi[,slabs], got {spec!r}")
        lo, hi = args[0], args[1]
        slabs = int(args[2]) if len(args) == 3 else 4
        if slabs < 1:
            raise ValueError("piecewise spec needs at least one slab")
        cuts = np.sort(rng.choice(np.arange(1, w), size=slabs - 1, replace=False)) if slabs > 1 else []
        field = np.empty(shape, dtype=DTYPE)
        start = 0
        for cut in list(cuts) + [w]:
            field[:, start:cut] = lo + (hi - lo) * rng.random()
            start = cut
        return field
    raise ValueError(f"unknown disparity spec kind {kind!r}")


def random_dot_stereogram(h: int, w: int, spec: str, seed: int) -> SyntheticScene:
    """Seeded random-dot pair warped by the disparity field given by `spec`;
    the right image is noise under a 3x3 box blur."""
    if h < 1 or w < 1:
        raise ValueError(f"image size {h}x{w} must be positive")
    rng = np.random.default_rng(seed)
    right = box_smooth_axis(box_smooth_axis(rng.random((h, w)), 0, 1), 1, 1)
    field = disparity_field(spec, (h, w), rng)
    if not np.isfinite(field).all():
        raise ValueError("disparity must be finite")
    if field.max() >= w / 4:
        raise ValueError(f"max disparity {field.max()} must stay below W/4 = {w / 4}")
    if field.min() < 0:
        raise ValueError("disparity must be non-negative")

    xs = np.arange(w, dtype=DTYPE)[None, :] - field
    left = _sample_rows(right, xs)
    in_frame = (xs >= 0) & (xs <= w - 1)

    # z-buffer on nearest source columns: larger disparity occludes smaller
    src_col = np.floor(xs + 0.5).astype(np.int64)
    src_ok = in_frame & (src_col >= 0) & (src_col < w)
    rows = np.broadcast_to(np.arange(h)[:, None], (h, w))
    zbuf = np.full((h, w), -np.inf)
    np.maximum.at(zbuf, (rows[src_ok], src_col[src_ok]), field[src_ok])
    occluded = np.zeros((h, w), dtype=bool)
    occluded[src_ok] = field[src_ok] < zbuf[rows[src_ok], src_col[src_ok]] - 1e-6

    valid = in_frame & ~occluded
    if not valid.all():
        fill = rng.random((h, w))
        left = np.where(valid, left, fill)
    gt = np.where(valid, field, 0.0)
    return SyntheticScene(left=left, right=right, gt=gt, valid=valid, seed=seed, spec=spec)


def block_match_oracle(
    left: np.ndarray, right: np.ndarray, dmax: int, window_radius: int = 4
) -> np.ndarray:
    """Integer winner-takes-all SAD matcher; ties go to the smaller disparity."""
    li = as_grid(left, 2, "left image")
    ri = as_grid(right, 2, "right image")
    if li.shape != ri.shape:
        raise ValueError(f"image shapes differ: {li.shape} vs {ri.shape}")
    h, w = li.shape
    if 2 * window_radius + 1 > min(h, w):
        raise ValueError(f"window radius {window_radius} does not fit {li.shape}")
    if dmax < 1 or dmax >= w:
        raise ValueError(f"dmax {dmax} out of range for width {w}")
    costs = np.empty((dmax, h, w), dtype=DTYPE)
    for d in range(dmax):
        shifted = np.zeros_like(ri)
        shifted[:, d:] = ri[:, : w - d]
        sad = box_smooth_axis(box_smooth_axis(np.abs(li - shifted), 0, window_radius), 1, window_radius)
        if d:
            sad[:, :d] = np.inf
        costs[d] = sad
    return np.argmin(costs, axis=0).astype(DTYPE)


def volume_oracle(
    left_feats: np.ndarray,
    right_feats: np.ndarray,
    planes: HypothesisPlanes,
    scale: int,
    n_groups: int,
) -> CombinationVolume:
    """Literal per-pixel loop over the combination-volume definition (tests only):
    the left value, the right value matched at x - d and the group correlations
    of each pixel, stored as left - matched per channel, then the groups."""
    fl_arr = as_grid(left_feats, 3)
    fr_arr = as_grid(right_feats, 3)
    c, h, w = fl_arr.shape
    if c % n_groups:
        raise ValueError(f"{c} channels not divisible into {n_groups} groups")
    pv = planes.values_at(h, w)
    n_planes = pv.shape[0]
    group_size = c // n_groups
    fl = fl_arr.tolist()
    fr = fr_arr.tolist()
    pl = np.asarray(pv).tolist()
    data = np.zeros((c + n_groups, n_planes, h, w), dtype=DTYPE)
    for n in range(n_planes):
        for y in range(h):
            for x in range(w):
                src = x - pl[n][y][x]
                x0 = math.floor(src)
                t = src - x0
                matched = []
                for ch in range(c):
                    v0 = fr[ch][y][x0] if 0 <= x0 < w else 0.0
                    v1 = fr[ch][y][x0 + 1] if 0 <= x0 + 1 < w else 0.0
                    matched.append((1.0 - t) * v0 + t * v1)
                for ch in range(c):
                    data[ch, n, y, x] = fl[ch][y][x] - matched[ch]
                for g in range(n_groups):
                    acc = 0.0
                    for ch in range(g * group_size, (g + 1) * group_size):
                        acc += fl[ch][y][x] * matched[ch]
                    data[c + g, n, y, x] = acc / group_size
    return CombinationVolume(data, planes, scale, n_groups)
