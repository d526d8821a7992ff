from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfstereo.config import RunConfig
from cfstereo.cost_volume import (
    ScoreVolume,
    Window,
    build_dense_volume,
    build_sparse_volume,
    reduce_to_cost,
    sample_planes,
    soft_argmin,
    uncertainty,
)
from cfstereo.features import build_pyramid
from cfstereo.fusion import aggregate, aggregate_plane_reach, aggregate_reach, box_smooth_volume, fuse_volumes
from cfstereo.synth import random_dot_stereogram
from cfstereo.tensor_ops import avgpool_volume, box_smooth_axis
from references import mean_correlation

BIG = 1000.0


def scale3_cost(diff, w_group=1.0, w_absdiff=1.0):
    """Cost of a scale-3 difference volume over uniform integer planes."""
    return reduce_to_cost(diff, Window.dense(diff.shape[1], 0, diff.shape[2:]).planes(), 3, w_group, w_absdiff).cost


class TestAggregate:
    def test_radius_zero_identity(self):
        v = np.random.default_rng(0).normal(size=(3, 4, 6))
        cfg = replace(RunConfig(), fusion_smooth_radius=(0, 0, 0))
        assert np.array_equal(aggregate(v, cfg), v)

    def test_constant_unchanged(self):
        v = np.full((2, 4, 4), 3.25)
        assert np.allclose(aggregate(v, RunConfig()), 3.25)

    def test_impulse_spreads_without_skip(self):
        v = np.zeros((1, 1, 7))
        v[0, 0, 3] = 3.0
        out = box_smooth_volume(v, (0, 1, 0), passes=1)
        assert np.allclose(out[0, 0], [0, 0, 1, 1, 1, 0, 0])

    @given(st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 2), st.sampled_from([3, 4]))
    @settings(max_examples=30, deadline=None)
    @example((0, 0, 0), 1, 3)
    @example((0, 0, 0), 2, 4)
    def test_exact_and_input_untouched(self, radii, passes, ndim):
        v = np.random.default_rng(7).normal(size=(2, 3, 4, 5)[-ndim:])
        v[..., 0, 0] = -0.0
        keep = v.copy()
        cfg = replace(RunConfig(), fusion_smooth_radius=radii, fusion_passes=passes)
        # every axis smoothed in turn, a zero radius as a copy, then half-mixed
        want = v
        for _ in range(passes):
            for axis, radius in ((-3, radii[0]), (-1, radii[1]), (-2, radii[2])):
                want = box_smooth_axis(want, axis, radius)
        smoothed = box_smooth_volume(v, radii, passes)
        mixed = aggregate(v, cfg)
        assert smoothed.tobytes() == want.tobytes()
        assert mixed.tobytes() == (0.5 * (v + want)).tobytes()
        for out in (smoothed, mixed):
            assert not np.shares_memory(out, v)
        assert v.tobytes() == keep.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize(
        "radii, passes, shape",
        [
            pytest.param((0, 2, 2), 1, (3, 3, 6, 7), id="desk-4d"),
            pytest.param((1, 1, 2), 1, (5, 6, 7), id="planes-3d"),
            pytest.param((2, 0, 1), 2, (3, 3, 6, 7), id="planes-2pass-4d"),
            pytest.param((1, 2, 0), 2, (5, 6, 7), id="planes-2pass-3d"),
            pytest.param((0, 0, 0), 1, (3, 3, 6, 7), id="zero-4d"),
            pytest.param((0, 0, 0), 2, (5, 6, 7), id="zero-2pass-3d"),
            pytest.param((1, 2, 2), 2, (2, 5, 64, 128), id="ten-slabs-2pass"),
        ],
    )
    def test_tiles_match_axis_chain(self, dtype, radii, passes, shape):
        v = np.random.default_rng(11).normal(size=shape).astype(dtype)
        v[..., 0, :] = -0.0
        v[..., :, -1] = -0.0
        keep = v.copy()
        want = v
        for _ in range(passes):
            for axis, radius in ((-3, radii[0]), (-1, radii[1]), (-2, radii[2])):
                want = box_smooth_axis(want, axis, radius)
        cfg = replace(RunConfig(), fusion_smooth_radius=radii, fusion_passes=passes)
        out = aggregate(v, cfg)
        assert out.dtype == dtype
        assert out.tobytes() == (0.5 * (v + want)).tobytes()
        assert not np.shares_memory(out, v)
        assert v.tobytes() == keep.tobytes()

    @pytest.mark.parametrize("radii", [(0, 0, 0), (1, 2, 1)], ids=["zero", "nonzero"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float16], ids=["int64", "float16"])
    def test_upcasts_like_as_grid(self, radii, dtype):
        v = np.random.default_rng(2).integers(-9, 9, size=(2, 3, 4, 5)).astype(dtype)
        cfg = replace(RunConfig(), fusion_smooth_radius=radii)
        out = aggregate(v, cfg)
        assert out.dtype == np.float64
        assert out.tobytes() == aggregate(v.astype(np.float64), cfg).tobytes()


RADII_AND_PASSES = [
    pytest.param((0, 2, 2), 1, id="desk"),
    pytest.param((1, 1, 1), 2, id="two-pass"),
    pytest.param((1, 2, 0), 2, id="no-y"),
    pytest.param((0, 0, 3), 1, id="y-only"),
    pytest.param((2, 1, 3), 2, id="wide-two-pass"),
]


class TestAggregateReach:
    """`aggregate_reach` is the halo of a refinement stage's row bands."""

    @pytest.mark.parametrize("radii, passes", RADII_AND_PASSES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_one_input_row_reaches_exactly_reach_rows(self, radii, passes, dtype):
        cfg = replace(RunConfig(), fusion_smooth_radius=radii, fusion_passes=passes)
        reach = aggregate_reach(cfg)
        v = np.random.default_rng(8).normal(size=(2, 3, 24, 7)).astype(dtype)
        row = 11
        bumped = v.copy()
        bumped[..., row, :] += 1.0
        changed = (aggregate(bumped, cfg) != aggregate(v, cfg)).any(axis=(0, 1, 3))
        assert np.flatnonzero(changed).tolist() == list(range(row - reach, row + reach + 1))

    @pytest.mark.parametrize("radii, passes", RADII_AND_PASSES)
    @pytest.mark.parametrize("span", [(0, 1), (0, 5), (3, 4), (6, 13), (20, 24), (23, 24), (0, 24)])
    def test_band_with_reach_rows_of_halo_is_exact(self, radii, passes, span):
        cfg = replace(RunConfig(), fusion_smooth_radius=radii, fusion_passes=passes)
        reach = aggregate_reach(cfg)
        v = np.random.default_rng(9).normal(size=(2, 3, 24, 7)).astype(np.float32)
        a, b = span
        a0, b0 = max(0, a - reach), min(24, b + reach)
        band = aggregate(v[..., a0:b0, :], cfg)[..., a - a0 : b - a0, :]
        assert band.tobytes() == aggregate(v, cfg)[..., a:b, :].tobytes()


class TestAggregatePlaneReach:
    """`aggregate_plane_reach` says when `stream_cost` may work plane by plane."""

    @pytest.mark.parametrize("radii, passes", RADII_AND_PASSES)
    def test_one_input_plane_reaches_exactly_reach_planes(self, radii, passes):
        cfg = replace(RunConfig(), fusion_smooth_radius=radii, fusion_passes=passes)
        reach = aggregate_plane_reach(cfg)
        v = np.random.default_rng(10).normal(size=(2, 15, 6, 7))
        plane = 7
        bumped = v.copy()
        bumped[:, plane] += 1.0
        changed = (aggregate(bumped, cfg) != aggregate(v, cfg)).any(axis=(0, 2, 3))
        assert np.flatnonzero(changed).tolist() == list(range(plane - reach, plane + reach + 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("radii, passes", [((0, 2, 2), 1), ((0, 1, 0), 2), ((0, 0, 3), 3)])
    def test_at_reach_zero_each_plane_aggregates_alone(self, radii, passes, dtype):
        cfg = replace(RunConfig(), fusion_smooth_radius=radii, fusion_passes=passes)
        assert aggregate_plane_reach(cfg) == 0
        v = np.random.default_rng(11).normal(size=(3, 5, 24, 40)).astype(dtype)
        whole = aggregate(v, cfg)
        for n in range(v.shape[1]):
            assert aggregate(v[:, n : n + 1], cfg).tobytes() == whole[:, n : n + 1].tobytes()


class TestFuseVolumes:
    def _pyramid_volumes(self, seed=3, spec="constant:16"):
        scene = random_dot_stereogram(128, 256, spec, seed)
        pl = build_pyramid(scene.left)
        pr = build_pyramid(scene.right)
        d3 = build_dense_volume(pl[3], pr[3], 64, 3, 1).data
        d4 = avgpool_volume(d3)
        return d3, d4, avgpool_volume(d4)

    def test_all_zero_volumes_give_zero_cost(self):
        vols = (np.zeros((5, 8, 4, 8)), np.zeros((5, 4, 2, 4)), np.zeros((5, 2, 1, 2)))
        fused = fuse_volumes(*vols, RunConfig())
        assert np.all(scale3_cost(fused) == 0.0)

    def test_shape_contract(self):
        d3, d4, d5 = self._pyramid_volumes()
        fused = fuse_volumes(d3, d4, d5, RunConfig())
        assert fused.shape == d3.shape == (14, 8, 128 // 8, 256 // 8)

    def test_self_consistent_pyramid_keeps_argmin(self):
        """With v4/v5 exact pools of v3, fusion must agree with the plain
        scale-3 path on nearly every interior pixel."""
        d3, d4, d5 = self._pyramid_volumes()
        cfg = replace(RunConfig(), fusion_smooth_radius=(0, 2, 2))
        fused = scale3_cost(fuse_volumes(d3, d4, d5, cfg), 12.0, 12.0)
        single = scale3_cost(aggregate(d3, cfg), 12.0, 12.0)
        inner = (slice(1, -1), slice(1, -1))
        am_f = np.argmin(fused, axis=0)[inner]
        am_s = np.argmin(single, axis=0)[inner]
        assert np.mean(am_f == am_s) >= 0.95

    def test_cost_bounded_by_input_bound(self):
        """Fusion mixes its inputs convexly, so no channel grows past its
        largest input magnitude, and neither can the cost."""
        vols = self._pyramid_volumes()
        corr_max = max(np.abs(v[-1]).max() for v in vols)
        diff_max = max(np.abs(v[:-1]).max() for v in vols)
        cost = scale3_cost(fuse_volumes(*vols, RunConfig()))
        assert np.abs(cost).max() <= corr_max + diff_max + 1e-9

    def test_mismatched_ratios_rejected(self):
        v3 = np.zeros((5, 8, 4, 8))
        v4 = np.zeros((5, 4, 2, 4))
        with pytest.raises(ValueError, match="ratio"):
            fuse_volumes(v3, v4, np.zeros((5, 2, 2, 2)), RunConfig())
        with pytest.raises(ValueError, match="feature counts"):
            fuse_volumes(v3, v4, np.zeros((3, 2, 1, 2)), RunConfig())

    def test_three_dimensional_volumes_fuse_per_channel(self):
        """Fusion acts on each channel alone, so fusing one (N, H, W) channel
        gives that channel of the (F, N, H, W) fuse."""
        vols = self._pyramid_volumes()
        cfg = replace(RunConfig(), fusion_smooth_radius=(1, 2, 1), fusion_passes=2)
        whole = fuse_volumes(*vols, cfg)
        for c in (0, 5, vols[0].shape[0] - 1):
            alone = fuse_volumes(*(v[c] for v in vols), cfg)
            assert alone.tobytes() == whole[c].tobytes(), c

    def test_mismatched_three_dimensional_volumes_rejected(self):
        v3, v4 = np.zeros((8, 4, 8)), np.zeros((4, 2, 4))
        with pytest.raises(ValueError, match="ratio"):
            fuse_volumes(v3, v4, np.zeros((3, 1, 2)), RunConfig())
        with pytest.raises(ValueError, match="feature counts"):
            fuse_volumes(v3, v4, np.zeros((1, 2, 1, 2)), RunConfig())


def paper_layout(fl, vol):
    """The paper's (2C+G, N, H, W) concat volume: left features in every plane,
    the matched features (left - data[:C]), then the G correlations."""
    c = fl.shape[0]
    left = np.broadcast_to(fl[:, None], vol.data[:c].shape)
    return np.concatenate([left, left - vol.data[:c], vol.data[c:]])


def layout_cost(data, c, g, w_group, w_absdiff):
    """The cost written out on the paper's 2C+G layout: left, matched, groups."""
    corr = data[2 * c : 2 * c + g].mean(axis=0)
    absdiff = np.abs(data[:c] - data[c : 2 * c]).mean(axis=0)
    return -w_group * corr + w_absdiff * absdiff


class TestDifferenceVolume:
    """Every stage before the cost is linear, so aggregating the C+1 volume
    (left - matched, mean correlation) gives the cost of aggregating the
    paper's 2C+G concat volume, for any grouping."""

    C = 8

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_single_volume_path(self, g):
        rng = np.random.default_rng(20 + g)
        fl, fr = rng.normal(size=(2, self.C, 8, 16))
        # a score volume decodes a window, so the sparse planes are evenly spaced
        lo, hi = np.sort(rng.uniform(-1.0, 17.0, size=(2, 8, 16)), axis=0)
        cfg = replace(RunConfig(), fusion_smooth_radius=(1, 2, 1), fusion_passes=2)
        for vol in (
            build_dense_volume(fl, fr, 64, 3, g),
            build_sparse_volume(fl, fr, sample_planes(lo, hi, 6), 1, g),
        ):
            got = reduce_to_cost(aggregate(mean_correlation(vol), cfg), vol.planes, vol.scale, 3.0, 2.0)
            want = layout_cost(aggregate(paper_layout(fl, vol), cfg), self.C, g, 3.0, 2.0)
            assert np.abs(got.cost - want).max() < 1e-9

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_fused_path(self, g):
        rng = np.random.default_rng(30 + g)
        vols, full = [], []
        for k in range(3):
            fl, fr = rng.normal(size=(2, self.C, 8 >> k, 16 >> k))
            vols.append(build_dense_volume(fl, fr, 64, 3 + k, g))
            full.append(paper_layout(fl, vols[-1]))
        cfg = replace(RunConfig(), fusion_smooth_radius=(1, 1, 1), fusion_passes=2)
        got = scale3_cost(fuse_volumes(*(mean_correlation(v) for v in vols), cfg), 3.0, 2.0)
        want = layout_cost(fuse_volumes(*full, cfg), self.C, g, 3.0, 2.0)
        assert np.abs(got - want).max() < 1e-9


class TestInitialDisparity:
    """Stage 3 decodes its cost with soft_argmin and uncertainty."""

    def _decode(self, cost):
        sv = ScoreVolume(cost, Window.dense(cost.shape[0], 0, cost.shape[1:]).planes(), 3)
        d = soft_argmin(sv)
        return d, uncertainty(sv, d)

    def test_one_hot_everywhere(self):
        cost = np.full((8, 4, 4), BIG)
        cost[5] = -BIG
        d, u = self._decode(cost)
        assert np.allclose(d, 5.0)
        assert np.allclose(u, 0.0)

    def test_uniform_cost_moments(self):
        d, u = self._decode(np.zeros((8, 3, 3)))
        assert np.allclose(d, 3.5)
        assert np.allclose(u, 5.25)

    def test_stage3_median_near_truth_on_constant_scene(self):
        """End-to-end: constant 16 px scene, the initial estimate at scale 3
        lands within 2 px (full-resolution units) of the truth."""
        from cfstereo.benchmarks import desk_config
        from cfstereo.cascade import run_pipeline

        scene = random_dot_stereogram(128, 256, "constant:16", 0)
        out = run_pipeline(scene.left, scene.right, desk_config())
        assert abs(np.median(out.stages[0].disparity * 8) - 16.0) <= 2.0


def test_single_volume_path_supports_fusion_disabled():
    from cfstereo.benchmarks import desk_config
    from cfstereo.cascade import run_pipeline

    scene = random_dot_stereogram(128, 256, "constant:16", 5)
    cfg = replace(desk_config(), fusion_enabled=False)
    stage3 = run_pipeline(scene.left, scene.right, cfg).stages[0]
    d, u = stage3.disparity, stage3.uncertainty
    assert d.shape == (16, 32)
    assert np.all(u >= 0.0)
    assert np.all(d >= 0.0) and np.all(d <= 7.0)
