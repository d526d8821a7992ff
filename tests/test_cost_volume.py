from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstereo import cost_volume, parallel
from cfstereo.cost_volume import (
    HypothesisPlanes,
    ScoreVolume,
    build_dense_volume,
    build_sparse_volume,
    reduce_to_cost,
    soft_argmin,
    stream_cost,
    uncertainty,
)
from cfstereo.benchmarks import desk_config
from cfstereo.features import normalize_channels
from cfstereo.fusion import aggregate, fuse_volumes
from cfstereo.synth import volume_oracle
from cfstereo.tensor_ops import box_smooth_axis

BIG = 1000.0


def mean_correlation(vol):
    """The (C+1, N, H, W) volume the cost reads: left - matched per channel,
    then the mean of the group correlations."""
    c = vol.data.shape[0] - vol.n_groups
    return np.concatenate([vol.data[:c], vol.data[c:].mean(axis=0, keepdims=True)])


def cost_of(vol, **weights):
    return reduce_to_cost(mean_correlation(vol), vol.planes, vol.scale, **weights)


def smoothed_features(rng, c, h, w):
    raw = rng.random((c, h, w))
    for ch in range(c):
        raw[ch] = box_smooth_axis(box_smooth_axis(raw[ch], 0, 1), 1, 1)
    return normalize_channels(raw)


class TestHypothesisPlanes:
    @staticmethod
    def ramp(n, h=2, w=3):
        return np.broadcast_to(np.arange(n, dtype=float)[:, None, None], (n, h, w)).copy()

    @pytest.mark.parametrize(
        "values, match",
        [
            (np.arange(4.0).reshape(2, 2), "3-dimensional"),
            (np.zeros((1, 2, 3)), "at least 2 hypothesis planes"),
            (np.where(np.arange(3)[:, None, None] == 1, np.nan, np.zeros((3, 2, 3))), "NaN or inf"),
            (np.arange(3.0)[::-1, None, None] + np.zeros((3, 2, 3)), "non-decreasing"),
        ],
        ids=["2-D", "one plane", "NaN", "decreasing"],
    )
    def test_constructor_rejects(self, values, match):
        with pytest.raises(ValueError, match=match):
            HypothesisPlanes(values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_are_a_frozen_float64_copy(self, dtype):
        source = self.ramp(4).astype(dtype)
        planes = HypothesisPlanes(source)
        source[2] = -7.0
        assert planes.values.dtype == np.float64
        assert np.array_equal(planes.values, self.ramp(4))
        assert not planes.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            planes.values[0, 0, 0] = 1.0

    def test_uniform_and_dense_are_per_pixel(self):
        assert np.array_equal(HypothesisPlanes.uniform(4, (2, 3)).values, self.ramp(4))
        assert np.array_equal(HypothesisPlanes.dense(32, 3, (2, 3)).values, self.ramp(4))

    @pytest.mark.parametrize("n_planes", [4, 8])
    def test_score_volume_rejects_other_plane_count(self, n_planes):
        with pytest.raises(ValueError, match="does not match planes"):
            ScoreVolume(np.zeros((5, 2, 3)), HypothesisPlanes(self.ramp(n_planes)), 1)

    def test_score_volume_rejects_other_grid(self):
        with pytest.raises(ValueError, match="does not match planes"):
            ScoreVolume(np.zeros((4, 2, 3)), HypothesisPlanes(self.ramp(4, 3, 2)), 1)


class TestDenseVolume:
    def test_hand_example(self):
        # two channels, one group, identical unit features
        fl = np.zeros((2, 1, 4))
        fl[0] = 1.0
        vol = build_dense_volume(fl, fl, 8, 1, 1)
        assert vol.data.shape == (3, 4, 1, 4)
        # x=2 at d=0 matches itself: left - matched is 0, correlation (1*1 + 0*0)/2
        assert np.allclose(vol.data[:2, 0, 0, 2], [0, 0])
        assert vol.data[2, 0, 0, 2] == 0.5
        # at d=3 the match falls outside the frame and reads 0: the left value stays
        assert np.allclose(vol.data[:2, 3, 0, 2], [1, 0])
        assert vol.data[2, 3, 0, 2] == 0.0

    def test_out_of_range_zero_padded(self):
        rng = np.random.default_rng(0)
        fl = rng.normal(size=(2, 3, 6))
        fr = rng.normal(size=(2, 3, 6))
        vol = build_dense_volume(fl, fr, 8, 1, 1)
        for d in range(1, 4):
            assert np.all(vol.data[:2, d, :, :d] == fl[:, :, :d])  # left - 0
            assert np.all(vol.data[2, d, :, :d] == 0.0)  # correlation

    def test_identical_images_argmin_at_zero(self):
        rng = np.random.default_rng(1)
        f = smoothed_features(rng, 8, 10, 40)
        vol = build_dense_volume(f, f, 16, 1, 2)
        sv = cost_of(vol)
        am = np.argmin(sv.cost, axis=0)
        # columns where every plane is in range
        assert np.mean(am[:, 8:] == 0) > 0.99
        # correlation channels at d=0 equal squared norm per group / group size
        gs = 8 // 2
        expect = sum(f[ch] * f[ch] for ch in range(gs)) / gs
        assert np.allclose(vol.data[8, 0], expect)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            build_dense_volume(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), 8, 1, 1)


class TestSparseVolume:
    def test_integer_planes_match_dense_exactly(self):
        rng = np.random.default_rng(2)
        fl = rng.normal(size=(4, 5, 12))
        fr = rng.normal(size=(4, 5, 12))
        dense = build_dense_volume(fl, fr, 12, 1, 2)
        n = dense.planes.count
        pv = np.broadcast_to(np.arange(n, dtype=float)[:, None, None], (n, 5, 12)).copy()
        sparse = build_sparse_volume(fl, fr, HypothesisPlanes.per_pixel(pv), 1, 2)
        assert np.array_equal(sparse.data, dense.data)

    def test_half_step_interpolation(self):
        fr = np.zeros((1, 1, 4))
        fr[0, 0] = [0.0, 1.0, 0.0, 0.0]
        fl = np.ones((1, 1, 4))
        planes = HypothesisPlanes.per_pixel(np.full((2, 1, 4), 0.0) + np.array([0.0, 0.5])[:, None, None])
        vol = build_sparse_volume(fl, fr, planes, 1, 1)
        # pixel x=2, plane d=0.5 samples halfway between columns 1 and 2
        assert vol.data[0, 1, 0, 2] == 1.0 - 0.5  # left - matched
        assert vol.data[1, 1, 0, 2] == 0.5  # correlation

    def test_equal_planes_give_identical_slices(self):
        rng = np.random.default_rng(3)
        fl = rng.normal(size=(2, 4, 8))
        fr = rng.normal(size=(2, 4, 8))
        pv = np.broadcast_to(rng.random((4, 8)) * 3, (3, 4, 8)).copy()
        vol = build_sparse_volume(fl, fr, HypothesisPlanes.per_pixel(pv), 1, 1)
        assert np.array_equal(vol.data[:, 0], vol.data[:, 1])
        assert np.array_equal(vol.data[:, 0], vol.data[:, 2])

    def test_nan_planes_rejected(self):
        pv = np.zeros((2, 2, 2))
        pv[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            HypothesisPlanes.per_pixel(pv)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_planes_rejected(self, value):
        pv = np.zeros((2, 2, 2))
        pv[1, 0, 0] = value
        with pytest.raises(ValueError, match="inf"):
            HypothesisPlanes.per_pixel(pv)
        feats = np.ones((2, 2, 2))
        with pytest.raises(ValueError, match="inf"):
            build_sparse_volume(feats, feats, HypothesisPlanes(pv), 1, 1)


def sparse_reference(fl, fr, pv, n_groups):
    """The sparse volume with the matched side gathered channel by channel."""
    c, h, w = fl.shape
    gs = c // n_groups
    data = np.zeros((c + n_groups, pv.shape[0], h, w))
    xs = np.arange(w, dtype=float)
    for n in range(pv.shape[0]):
        src = xs[None, :] - pv[n]
        base = np.floor(src)
        t = src - base
        i0 = base.astype(np.int64)
        i1 = i0 + 1
        w0 = (1.0 - t) * ((i0 >= 0) & (i0 < w))
        w1 = t * ((i1 >= 0) & (i1 < w))
        i0c, i1c = np.clip(i0, 0, w - 1), np.clip(i1, 0, w - 1)
        matched = np.empty_like(fr)
        for ch in range(c):
            a0 = np.take_along_axis(fr[ch], i0c, axis=1)
            a1 = np.take_along_axis(fr[ch], i1c, axis=1)
            matched[ch] = w0 * a0 + w1 * a1
        data[:c, n] = fl - matched
        for g in range(n_groups):
            acc = np.zeros((h, w))
            for ch in range(g * gs, (g + 1) * gs):
                acc += fl[ch] * matched[ch]
            data[c + g, n] = acc / gs
    return data


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sparse_volume_matches_per_channel_gather(monkeypatch, threads):
    # the builder fills all 7 rows at once whatever CFSTEREO_THREADS says; each
    # row's flat gather indices need that row's own offset
    monkeypatch.setenv("CFSTEREO_THREADS", threads)
    assert parallel.thread_count() == 1
    rng = np.random.default_rng(11)
    c, h, w = 4, 7, 9
    fl = rng.normal(size=(c, h, w))
    fr = rng.normal(size=(c, h, w))
    pv = rng.uniform(-3.0, w + 3.0, size=(5, h, w))
    pv[1, :, ::3] = np.round(pv[1, :, ::3])  # some exact integer planes
    pv = np.sort(pv, axis=0)
    vol = build_sparse_volume(fl, fr, HypothesisPlanes.per_pixel(pv), 1, 2)
    want = sparse_reference(fl, fr, pv, 2)
    assert vol.data.tobytes() == want.tobytes()


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = int(rng.choice([1, 2, 4]))
            c = g * int(rng.integers(1, 3))
            h, w = int(rng.integers(2, 9)), int(rng.integers(4, 13))
            fl = rng.normal(size=(c, h, w))
            fr = rng.normal(size=(c, h, w))
            dense = build_dense_volume(fl, fr, int(rng.integers(2, 7)) * 2, 1, g)
            oracle = volume_oracle(fl, fr, dense.planes, 1, g)
            assert np.abs(dense.data - oracle.data).max() < 1e-6
            n = int(rng.integers(2, 5))
            pv = np.sort(rng.uniform(-1.0, w, size=(n, h, w)), axis=0)
            planes = HypothesisPlanes.per_pixel(pv)
            sparse = build_sparse_volume(fl, fr, planes, 1, g)
            oracle_s = volume_oracle(fl, fr, planes, 1, g)
            assert np.abs(sparse.data - oracle_s.data).max() < 1e-6


class TestReduceToCost:
    def test_perfect_match_is_zero_without_correlation(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(4, 3, 8))
        vol = build_dense_volume(f, f, 8, 1, 2)
        sv = cost_of(vol, w_group=0.0, w_absdiff=1.0)
        assert np.allclose(sv.cost[0], 0.0)

    def test_perfect_match_cost_is_negative_correlation(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(4, 3, 8))
        vol = build_dense_volume(f, f, 8, 1, 2)
        sv = cost_of(vol, w_group=1.0, w_absdiff=1.0)
        corr = 0.5 * (vol.data[4, 0] + vol.data[5, 0])
        assert np.allclose(sv.cost[0], -corr)

    def test_zero_padded_plane_finite(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(2, 2, 4))
        vol = build_dense_volume(f, f, 8, 1, 1)
        sv = cost_of(vol)
        assert np.isfinite(sv.cost).all()


class TestSoftArgmin:
    def test_one_hot_at_plane_value_six(self):
        planes = HypothesisPlanes.per_pixel(np.array([2.0, 4.0, 6.0, 8.0, 10.0]).reshape(5, 1, 1))
        cost = np.full((5, 1, 1), BIG)
        cost[2] = -BIG
        assert soft_argmin(ScoreVolume(cost, planes, 1))[0, 0] == 6.0

    def test_uniform_cost_symmetry(self):
        sv = ScoreVolume(np.zeros((4, 2, 2)), HypothesisPlanes.uniform(4, (2, 2)), 1)
        assert np.allclose(soft_argmin(sv), 1.5)

    def test_dot_product(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        cost = -np.log(p).reshape(4, 1, 1)
        sv = ScoreVolume(cost, HypothesisPlanes.uniform(4, (1, 1)), 1)
        assert abs(soft_argmin(sv)[0, 0] - 2.0) < 1e-12

    @given(st.floats(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_per_pixel_cost_shift_invariance(self, const):
        rng = np.random.default_rng(8)
        cost = rng.normal(size=(5, 3, 4))
        planes = HypothesisPlanes.uniform(5, (3, 4))
        a = soft_argmin(ScoreVolume(cost, planes, 1))
        b = soft_argmin(ScoreVolume(cost + const, planes, 1))
        assert np.allclose(a, b, atol=1e-9)

    def test_output_within_plane_bounds(self):
        rng = np.random.default_rng(9)
        pv = np.sort(rng.uniform(0, 10, size=(6, 4, 4)), axis=0)
        sv = ScoreVolume(rng.normal(size=(6, 4, 4)), HypothesisPlanes.per_pixel(pv), 1)
        d = soft_argmin(sv)
        assert np.all(d >= pv[0]) and np.all(d <= pv[-1])

    def test_rejects_single_plane(self):
        # a one-plane ScoreVolume cannot be made: its planes are rejected first
        with pytest.raises(ValueError, match="at least 2 hypothesis planes"):
            HypothesisPlanes(np.zeros((1, 2, 2)))


class TestDecode:
    def test_softmax_runs_once_per_decode(self, monkeypatch):
        calls = []

        def counting(volume):
            calls.append(volume.shape)
            return softmax(volume)

        softmax = cost_volume.softmax_along_planes
        monkeypatch.setattr(cost_volume, "softmax_along_planes", counting)
        sv = ScoreVolume(np.random.default_rng(10).normal(size=(5, 3, 4)), HypothesisPlanes.uniform(5, (3, 4)), 1)
        uncertainty(sv, soft_argmin(sv))
        assert calls == [(5, 3, 4)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cost_names_the_pixel(self, bad):
        cost = np.zeros((4, 3, 5))
        cost[2, 1, 3] = bad
        planes = HypothesisPlanes.uniform(4, (3, 5))
        with pytest.raises(ValueError, match=r"non-finite value at index \(2, 1, 3\)"):
            soft_argmin(ScoreVolume(cost, planes, 1))
        with pytest.raises(ValueError, match=r"non-finite value at index \(2, 1, 3\)"):
            uncertainty(ScoreVolume(cost, planes, 1), np.zeros((3, 5)))


class TestFloat32Volumes:
    """The builders follow the features' dtype, and so does averaging the group
    correlations; the cost is float64 whatever the volume's dtype."""

    @staticmethod
    def feature_pair(seed):
        rng = np.random.default_rng(seed)
        return (smoothed_features(rng, 8, 8, 16).astype(np.float32) for _ in range(2))

    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    def test_float32_features_give_float32_volumes(self, n_groups):
        fl, fr = self.feature_pair(n_groups)
        pv = np.sort(np.random.default_rng(9).uniform(-2.0, 18.0, size=(5, 8, 16)), axis=0)
        for build, arg in ((build_dense_volume, 16), (build_sparse_volume, HypothesisPlanes.per_pixel(pv))):
            vol = build(fl, fr, arg, 1, n_groups)
            ref = build(fl.astype(np.float64), fr.astype(np.float64), arg, 1, n_groups)
            assert vol.data.dtype == np.float32 and ref.data.dtype == np.float64
            assert np.abs(vol.data - ref.data).max() <= 1e-5
            diff = mean_correlation(vol)
            assert diff.dtype == np.float32
            assert np.abs(diff - mean_correlation(ref)).max() <= 1e-5

    def test_mixed_pair_is_promoted_to_float64(self):
        fl, fr = self.feature_pair(3)
        want = build_dense_volume(fl.astype(np.float64), fr.astype(np.float64), 16, 1, 2)
        for left, right in ((fl, fr.astype(np.float64)), (fl.astype(np.float64), fr)):
            vol = build_dense_volume(left, right, 16, 1, 2)
            assert vol.data.dtype == np.float64
            assert vol.data.tobytes() == want.data.tobytes()

    def test_float32_volume_gives_float64_cost(self):
        fl, fr = self.feature_pair(4)
        vol = build_dense_volume(fl, fr, 16, 1, 2)
        diff = mean_correlation(vol)
        got = reduce_to_cost(diff, vol.planes, 1, w_group=0.7, w_absdiff=1.3).cost
        want = reduce_to_cost(diff.astype(np.float64), vol.planes, 1, w_group=0.7, w_absdiff=1.3).cost
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-12


class TestStreamCost:
    """stream_cost equals reduce_to_cost of the whole regularized volume byte
    for byte. Each case streams twice against one reference: at the default
    BLOCK_BYTES, where the shapes give two or more channel blocks with the
    last one partial, in float32 and in float64; and at BLOCK_BYTES = 1, the
    one-channel floor that a channel over 4 MiB reaches."""

    CONFIG = replace(desk_config(), fusion_smooth_radius=(1, 2, 1), fusion_passes=2)
    WEIGHTS = dict(w_group=9.75, w_absdiff=0.8125)
    CHANNELS = 13

    def features(self, seed, h, w, dtype):
        rng = np.random.default_rng(seed)
        fl = smoothed_features(rng, self.CHANNELS, h, w)
        fr = 0.8 * np.roll(fl, 5, axis=-1) + 0.2 * smoothed_features(rng, self.CHANNELS, h, w)
        return fl.astype(dtype), fr.astype(dtype)

    def streamed(self, monkeypatch, inputs, scale, regularize):
        """stream_cost's costs at the default BLOCK_BYTES and at 1, checking
        the channel counts of the regularize calls."""
        costs = []
        for block_bytes in (cost_volume.BLOCK_BYTES, 1):
            monkeypatch.setattr(cost_volume, "BLOCK_BYTES", block_bytes)
            blocks = []

            def counted(*volumes):
                blocks.append(volumes[0].shape[0])
                return regularize(*volumes)

            score = stream_cost(inputs, scale, counted, **self.WEIGHTS)
            assert score.cost.dtype == np.float64 and score.planes is inputs[0][2]
            # channel blocks, then the correlation as one channel
            *channel_blocks, corr = blocks
            assert corr == 1 and sum(channel_blocks) == self.CHANNELS
            if block_bytes == 1:
                assert channel_blocks == [1] * self.CHANNELS
            else:
                assert len(channel_blocks) >= 2 and channel_blocks[-1] < channel_blocks[0]
            costs.append(score.cost)
        return costs

    def smooth(self, volume):
        return aggregate(volume, self.CONFIG)

    def fuse(self, v3, v4, v5):
        return fuse_volumes(v3, v4, v5, self.CONFIG)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fusion", [True, False])
    def test_dense_planes(self, monkeypatch, dtype, fusion):
        dmax, scales = 128, ((3, 4, 5) if fusion else (3,))
        feats = {s: self.features(s, 256 >> s, 2048 >> s, dtype) for s in scales}
        regularize = self.fuse if fusion else self.smooth
        inputs = [(*feats[s], HypothesisPlanes.dense(dmax, s, feats[s][0].shape[1:])) for s in scales]
        volumes = [build_dense_volume(*feats[s], dmax, s, 1).data for s in scales]
        want = reduce_to_cost(regularize(*volumes), inputs[0][2], 3, **self.WEIGHTS)
        for got in self.streamed(monkeypatch, inputs, 3, regularize):
            assert np.array_equal(got, want.cost)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sparse_planes(self, monkeypatch, dtype):
        fl, fr = self.features(7, 32, 256, dtype)
        rng = np.random.default_rng(8)
        # fractional, integer and out-of-frame columns
        pv = np.sort(rng.uniform(-4.0, 40.0, size=(12, 32, 256)), axis=0)
        pv[:, :, :8] = np.round(pv[:, :, :8])
        planes = HypothesisPlanes.per_pixel(pv)
        vol = build_sparse_volume(fl, fr, planes, 1, 1)
        want = reduce_to_cost(self.smooth(vol.data), planes, 1, **self.WEIGHTS)
        for got in self.streamed(monkeypatch, [(fl, fr, planes)], 1, self.smooth):
            assert np.array_equal(got, want.cost)

    def test_feature_counts_must_agree(self):
        fl, fr = self.features(0, 4, 8, np.float64)
        inputs = [
            (fl, fr, HypothesisPlanes.dense(32, 3, (4, 8))),
            (fl[:5, :2, :4], fr[:5, :2, :4], HypothesisPlanes.dense(32, 4, (2, 4))),
        ]
        with pytest.raises(ValueError, match="feature counts differ"):
            stream_cost(inputs, 3, self.fuse)

    def test_nonfinite_planes_rejected(self):
        # planes keep their own copy, so a NaN written into the source array
        # after construction cannot reach stream_cost
        pv = np.zeros((2, 4, 8))
        pv[1] = 1.0
        planes = HypothesisPlanes(pv)
        pv[1, 2, 3] = np.nan
        assert np.isfinite(planes.values).all()
        with pytest.raises(ValueError, match="NaN or inf"):
            HypothesisPlanes(pv)
