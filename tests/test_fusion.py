import numpy as np
import pytest

from cfstereo.cost_volume import (
    CombinationVolume,
    HypothesisPlanes,
    build_dense_volume,
    build_sparse_volume,
    reduce_to_cost,
)
from cfstereo.features import build_pyramid
from cfstereo.fusion import (
    FusionConfig,
    aggregate,
    box_smooth_volume,
    concat_reduce,
    fuse_volumes,
    initial_disparity,
    single_volume_score,
)
from cfstereo.synth import random_dot_stereogram
from cfstereo.tensor_ops import avgpool_volume, trilinear_upsample2x

BIG = 1000.0


def make_volume(data, scale, n_channels, n_groups):
    return CombinationVolume(data, HypothesisPlanes.uniform(data.shape[1]), scale, n_channels, n_groups)


class TestAggregate:
    def test_radius_zero_identity(self):
        v = np.random.default_rng(0).normal(size=(3, 4, 6))
        cfg = FusionConfig(smooth_radius=(0, 0, 0))
        assert np.array_equal(aggregate(v, cfg), v)

    def test_constant_unchanged(self):
        v = np.full((2, 4, 4), 3.25)
        assert np.allclose(aggregate(v, FusionConfig()), 3.25)

    def test_impulse_spreads_without_skip(self):
        v = np.zeros((1, 1, 7))
        v[0, 0, 3] = 3.0
        out = box_smooth_volume(v, (0, 1, 0), passes=1)
        assert np.allclose(out[0, 0], [0, 0, 1, 1, 1, 0, 0])


class TestFuseVolumes:
    def _pyramid_volumes(self, seed=3, spec="constant:16"):
        scene = random_dot_stereogram(128, 256, spec, seed)
        pl = build_pyramid(scene.left)
        pr = build_pyramid(scene.right)
        v3 = build_dense_volume(pl.levels[3], pr.levels[3], 64, 3, 4)
        p4 = avgpool_volume(v3.data)
        p5 = avgpool_volume(p4)
        v4 = make_volume(p4, 4, v3.n_channels, v3.n_groups)
        v5 = make_volume(p5, 5, v3.n_channels, v3.n_groups)
        return v3, v4, v5

    def test_all_zero_volumes_give_zero_cost(self):
        v3 = make_volume(np.zeros((5, 8, 4, 8)), 3, 2, 1)
        v4 = make_volume(np.zeros((5, 4, 2, 4)), 4, 2, 1)
        v5 = make_volume(np.zeros((5, 2, 1, 2)), 5, 2, 1)
        sv = fuse_volumes(v3, v4, v5, FusionConfig())
        assert np.all(sv.cost == 0.0)

    def test_shape_contract(self):
        v3, v4, v5 = self._pyramid_volumes()
        sv = fuse_volumes(v3, v4, v5, FusionConfig())
        assert sv.cost.shape == (8, 128 // 8, 256 // 8)
        assert sv.scale == 3

    def test_self_consistent_pyramid_keeps_argmin(self):
        """With v4/v5 exact pools of v3, fusion must agree with the plain
        scale-3 path on nearly every interior pixel."""
        v3, v4, v5 = self._pyramid_volumes()
        cfg = FusionConfig(smooth_radius=(0, 2, 2))
        fused = fuse_volumes(v3, v4, v5, cfg, 12.0, 12.0)
        single = single_volume_score(v3, cfg, 12.0, 12.0)
        inner = (slice(1, -1), slice(1, -1))
        am_f = np.argmin(fused.cost, axis=0)[inner]
        am_s = np.argmin(single.cost, axis=0)[inner]
        assert np.mean(am_f == am_s) >= 0.95

    def test_cost_bounded_by_input_bound(self):
        v3, v4, v5 = self._pyramid_volumes()
        c = v3.n_channels
        bound = 0.0
        for v in (v3, v4, v5):
            corr_max = np.abs(v.data[2 * c :]).max()
            concat_max = np.abs(v.data[: 2 * c]).max()
            bound = max(bound, 1.0 * corr_max + 1.0 * 2.0 * concat_max)
        sv = fuse_volumes(v3, v4, v5, FusionConfig(), 1.0, 1.0)
        assert np.abs(sv.cost).max() <= bound + 1e-9

    def test_mismatched_ratios_rejected(self):
        v3 = make_volume(np.zeros((5, 8, 4, 8)), 3, 2, 1)
        v4 = make_volume(np.zeros((5, 4, 2, 4)), 4, 2, 1)
        bad5 = make_volume(np.zeros((5, 2, 2, 2)), 5, 2, 1)
        with pytest.raises(ValueError, match="ratio"):
            fuse_volumes(v3, v4, bad5, FusionConfig())


def layout_cost(data, c, g, w_group, w_absdiff):
    """The cost written out on the paper's 2C+G layout: left, matched, groups."""
    corr = data[2 * c : 2 * c + g].mean(axis=0)
    absdiff = np.abs(data[:c] - data[c : 2 * c]).mean(axis=0)
    return -w_group * corr + w_absdiff * absdiff


class TestDifferenceVolume:
    """Every stage before the cost is linear, so aggregating the C+1 difference
    volume gives the cost of aggregating the 2C+G volume, for any grouping."""

    C = 8

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_single_volume_path(self, g):
        rng = np.random.default_rng(20 + g)
        fl, fr = rng.normal(size=(2, self.C, 8, 16))
        pv = np.sort(rng.uniform(-1.0, 17.0, size=(6, 8, 16)), axis=0)
        cfg = FusionConfig(smooth_radius=(1, 2, 1), passes=2)
        for vol in (
            build_dense_volume(fl, fr, 64, 3, g),
            build_sparse_volume(fl, fr, HypothesisPlanes.per_pixel(pv), 1, g),
        ):
            got = reduce_to_cost(aggregate(vol.difference(), cfg), vol.planes, vol.scale, 3.0, 2.0)
            want = layout_cost(aggregate(vol.data, cfg), self.C, g, 3.0, 2.0)
            assert np.abs(got.cost - want).max() < 1e-9

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_fused_path(self, g):
        rng = np.random.default_rng(30 + g)
        vols = []
        for k in range(3):
            fl, fr = rng.normal(size=(2, self.C, 8 >> k, 16 >> k))
            vols.append(build_dense_volume(fl, fr, 64, 3 + k, g))
        cfg = FusionConfig(smooth_radius=(1, 1, 1), hourglass_passes=2)
        got = fuse_volumes(*vols, cfg, 3.0, 2.0)
        # the encoder-decoder of fuse_volumes, run on the 2C+G arrays
        a3, a4, a5 = (v.data for v in vols)
        skip3 = aggregate(a3, cfg)
        skip4 = aggregate(concat_reduce(avgpool_volume(skip3), aggregate(a4, cfg)), cfg)
        bottom = aggregate(concat_reduce(avgpool_volume(skip4), aggregate(a5, cfg)), cfg)
        up4 = 0.5 * (trilinear_upsample2x(bottom) + skip4)
        up3 = 0.5 * (trilinear_upsample2x(up4) + skip3)
        for _ in range(cfg.hourglass_passes):
            down = aggregate(avgpool_volume(aggregate(up3, cfg)), cfg)
            up3 = 0.5 * (up3 + trilinear_upsample2x(down))
        want = layout_cost(up3, self.C, g, 3.0, 2.0)
        assert np.abs(got.cost - want).max() < 1e-9


class TestInitialDisparity:
    def test_one_hot_everywhere(self):
        from cfstereo.cost_volume import ScoreVolume

        cost = np.full((8, 4, 4), BIG)
        cost[5] = -BIG
        d, u = initial_disparity(ScoreVolume(cost, HypothesisPlanes.uniform(8), 3))
        assert np.allclose(d, 5.0)
        assert np.allclose(u, 0.0)

    def test_uniform_cost_moments(self):
        from cfstereo.cost_volume import ScoreVolume

        d, u = initial_disparity(ScoreVolume(np.zeros((8, 3, 3)), HypothesisPlanes.uniform(8), 3))
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
    scene = random_dot_stereogram(128, 256, "constant:16", 5)
    pl = build_pyramid(scene.left)
    pr = build_pyramid(scene.right)
    v3 = build_dense_volume(pl.levels[3], pr.levels[3], 64, 3, 4)
    sv = single_volume_score(v3, FusionConfig(smooth_radius=(0, 2, 2)), 12.0, 12.0)
    d, u = initial_disparity(sv)
    assert d.shape == (16, 32)
    assert np.all(u >= 0.0)
    assert np.all(d >= 0.0) and np.all(d <= 7.0)
