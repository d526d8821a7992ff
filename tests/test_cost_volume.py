import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstereo import cost_volume
from cfstereo.cost_volume import (
    HypothesisPlanes,
    ScoreVolume,
    Window,
    build_dense_volume,
    build_sparse_volume,
    reduce_to_cost,
    sample_planes,
    soft_argmin,
    stream_cost,
    uncertainty,
)
from cfstereo.benchmarks import desk_config
from cfstereo.cascade import plan
from cfstereo.fusion import aggregate, fuse_volumes
from cfstereo.synth import volume_oracle
from cfstereo.tensor_ops import box_smooth_axis, softmax_along_planes
from references import mean_correlation, std_normalized

BIG = 1000.0


def cost_of(vol, **weights):
    return reduce_to_cost(mean_correlation(vol), vol.planes, vol.scale, **weights)


def plane_reach(config):
    """The plane reach `cascade.plan` gives a refinement stage of a desk pair."""
    return plan((128, 256), config)[-1].plane_reach


def smoothed_features(rng, c, h, w):
    raw = rng.random((c, h, w))
    for ch in range(c):
        raw[ch] = box_smooth_axis(box_smooth_axis(raw[ch], 0, 1), 1, 1)
    return std_normalized(raw)


def random_window(seed, n, h, w):
    """A window over fractional, integer and out-of-frame columns: random
    bounds from -4 to 40, and unit steps from an integer `lo` in the first
    8 columns, whose planes are integers."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-4.0, 30.0, size=(h, w))
    hi = lo + rng.uniform(0.0, 10.0, size=(h, w))
    lo[:, :8] = np.round(lo[:, :8])
    hi[:, :8] = lo[:, :8] + (n - 1)
    return Window(lo, hi, n)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [2, 5, 12])
    def test_spaced_is_the_checked_linspace(self, dtype, count):
        """`sample_planes` keeps the one array it makes: the bytes of the
        constructor given the linspace of the float64-cast bounds (the
        window's), read-only, and not a view of its bounds."""
        rng = np.random.default_rng(count)
        lo = rng.uniform(0.0, 40.0, size=(3, 7)).astype(dtype)
        hi = lo + rng.uniform(0.0, 9.0, size=(3, 7)).astype(dtype)
        planes = sample_planes(lo, hi, count)
        want = HypothesisPlanes(np.linspace(lo.astype(np.float64), hi.astype(np.float64), count, axis=0))
        assert planes.values.dtype == np.float64
        assert planes.values.tobytes() == want.values.tobytes()
        assert not planes.values.flags.writeable
        assert not np.shares_memory(planes.values, lo) and not np.shares_memory(planes.values, hi)

    @pytest.mark.parametrize(
        "lo, hi, count, match",
        [
            (np.zeros((2, 3)), np.ones((2, 3)), 1, "^need at least 2 hypothesis planes$"),
            (np.ones((2, 3)), np.zeros((2, 3)), 4, "^window lo must not exceed hi$"),
            (np.zeros((2, 3)), np.full((2, 3), np.nan), 4, "^window bounds contain NaN or inf$"),
            (np.zeros(3), np.ones(3), 4, "^window lo must be 2-dimensional"),
        ],
        ids=["one plane", "decreasing", "NaN", "1-D bounds"],
    )
    def test_spaced_rejects(self, lo, hi, count, match):
        with pytest.raises(ValueError, match=match):
            sample_planes(lo, hi, count)

    def test_dense_is_per_pixel(self):
        """The planes of [0, n - 1] are the integers 0 .. n - 1 exactly."""
        assert Window.dense(32, 3, (2, 3)).planes().values.tobytes() == self.ramp(4).tobytes()
        for n in range(2, 513):
            assert Window.dense(n, 0, (2, 3)).planes().values.tobytes() == self.ramp(n).tobytes()
        assert not Window.dense(32, 3, (2, 3)).planes().values.flags.writeable

    @pytest.mark.parametrize("n_planes", [4, 8])
    def test_score_volume_rejects_other_plane_count(self, n_planes):
        with pytest.raises(ValueError, match="does not match planes"):
            ScoreVolume(np.zeros((5, 2, 3)), HypothesisPlanes(self.ramp(n_planes)), 1)

    def test_score_volume_rejects_other_grid(self):
        with pytest.raises(ValueError, match="does not match planes"):
            ScoreVolume(np.zeros((4, 2, 3)), HypothesisPlanes(self.ramp(4, 3, 2)), 1)


class TestWindow:
    @staticmethod
    def bounds(seed, h=5, w=7):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-5.0, 60.0, size=(h, w))
        return lo, lo + rng.uniform(0.0, 25.0, size=(h, w))

    @pytest.mark.parametrize("n", [2, 12, 16])
    def test_planes_are_the_linspace(self, n):
        """On a window with no zero step, each plane has the bytes of
        np.linspace's, the last one is `hi`, and `planes()` holds them all."""
        lo, hi = self.bounds(n)
        window = Window(lo, hi, n)
        assert window.step.all()
        want = np.linspace(lo, hi, n, axis=0)
        for k in range(n):
            got = window.plane(k)
            assert got.dtype == np.float64 and got.shape == lo.shape
            assert got.tobytes() == want[k].tobytes(), k
        assert window.plane(n - 1).tobytes() == hi.tobytes()
        assert window.planes().values.tobytes() == want.tobytes()
        assert sample_planes(lo, hi, n).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 12])
    def test_zero_step_pixels_hold_lo(self, n):
        """A pixel with lo == hi holds lo in every plane, and every other
        pixel keeps k * step + lo, whatever the zero-step pixels."""
        lo, hi = self.bounds(3, 40, 40)
        hi[0, 0] = lo[0, 0]
        hi[7] = lo[7]
        window = Window(lo, hi, n)
        planes = window.planes()
        assert not planes.values.flags.writeable
        for k in range(n):
            for got in (window.plane(k), planes.values[k]):
                assert np.array_equal(got[0, 0], lo[0, 0]) and np.array_equal(got[7], lo[7]), k
                want = hi if k == n - 1 else k * ((hi - lo) / (n - 1)) + lo
                assert got.tobytes() == want.tobytes(), k

    def test_planes_make_one_array(self):
        """`planes()` fills one (N, H, W) array in place: at 12 planes of
        256x512 its peak above held is that array and at most two (H, W)
        maps (the step and its temporary), with no stacked copy, and leaves
        no step map cached on the window, which a StageResult keeps."""
        lo, hi = self.bounds(6, 256, 512)
        window = Window(lo, hi, 12)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            planes = window.planes()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= planes.values.nbytes + 2 * lo.nbytes
        assert "step" not in vars(window)

    @pytest.mark.parametrize(
        "lo, hi, n, match",
        [
            (np.zeros(3), np.ones(3), 4, "^window lo must be 2-dimensional, got shape \\(3,\\)$"),
            (np.zeros((2, 3)), np.ones((2, 3, 1)), 4, "^window hi must be 2-dimensional"),
            (np.zeros((2, 3)), np.ones((3, 2)), 4, "^window bounds differ in shape: \\(2, 3\\) vs \\(3, 2\\)$"),
            (np.zeros((2, 3)), np.ones((2, 3)), 1, "^need at least 2 hypothesis planes$"),
            (np.full((2, 3), np.nan), np.ones((2, 3)), 4, "^window bounds contain NaN or inf$"),
            (np.zeros((2, 3)), np.full((2, 3), np.inf), 4, "^window bounds contain NaN or inf$"),
            (np.ones((2, 3)), np.zeros((2, 3)), 4, "^window lo must not exceed hi$"),
        ],
        ids=["1-D lo", "3-D hi", "shapes", "one plane", "NaN", "inf", "inverted"],
    )
    def test_rejects(self, lo, hi, n, match):
        with pytest.raises(ValueError, match=match):
            Window(lo, hi, n)

    def test_check_is_per_pixel_not_per_plane(self):
        """The check reads the bounds, not the planes: a window of a million
        planes costs a few (H, W) maps."""
        lo, hi = self.bounds(4, 64, 128)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Window(lo, hi, 10**6)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 2 * lo.nbytes

    def test_dense(self):
        window = Window.dense(64, 3, (2, 3))
        assert window.n == 8
        assert all(np.array_equal(window.plane(k), np.full((2, 3), float(k))) for k in range(8))
        with pytest.raises(ValueError, match="^dmax 36 not divisible by 2\\*\\*scale at scale 3$"):
            Window.dense(36, 3, (2, 3))
        with pytest.raises(ValueError, match="^dmax 8 leaves fewer than 2 planes at scale 3$"):
            Window.dense(8, 3, (2, 3))

    def test_evenly_spaced_planes_are_their_window(self):
        lo, hi = self.bounds(5)
        window = sample_planes(lo, hi, 6).window()
        assert window.n == 6
        assert window.lo.tobytes() == lo.tobytes() and window.hi.tobytes() == hi.tobytes()
        sv = ScoreVolume(np.zeros((6,) + lo.shape), sample_planes(lo, hi, 6), 1)
        assert isinstance(sv.window, Window) and sv.window.hi.tobytes() == hi.tobytes()

    def test_uneven_planes_are_no_window(self):
        pv = np.array([1.0, 2.0, 4.0, 7.0]).reshape(4, 1, 1)
        with pytest.raises(ValueError, match="^planes are not evenly spaced, so they are no window to decode$"):
            ScoreVolume(np.zeros((4, 1, 1)), HypothesisPlanes(pv), 1)

    def test_stream_cost_rejects_a_window_of_another_grid(self):
        fl = np.zeros((2, 4, 8))
        with pytest.raises(ValueError, match=r"^window shaped \(4, 6\) does not match features \(4, 8\)$"):
            stream_cost(fl, fl, Window.dense(32, 3, (4, 6)), 3, lambda v, chans: v)


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

    def test_shifts_past_the_row_width_read_zeros(self):
        """32 planes on rows 8 wide: from plane 8 on, the match leaves the
        frame at every column, so left - matched is the left value and the
        correlation 0."""
        rng = np.random.default_rng(12)
        fl, fr = rng.normal(size=(2, 3, 2, 8))
        vol = build_dense_volume(fl, fr, 256, 3, 1)
        assert vol.data.shape == (4, 32, 2, 8)
        assert np.array_equal(vol.data[:3, 8:], np.broadcast_to(fl[:, None], (3, 24, 2, 8)))
        assert not vol.data[3, 8:].any()
        oracle = volume_oracle(fl, fr, vol.planes, 3, 1)
        assert np.abs(vol.data - oracle.data).max() < 1e-12

    NO_CHANNEL = r"^features have no channel: shape \(0, 4, 8\)$"

    @pytest.mark.parametrize(
        "entry, match",
        [
            ("shapes-differ", r"^feature shapes differ: \(2, 3, 4\) vs \(2, 3, 5\)$"),
            ("dense-no-channel", NO_CHANNEL),
            ("sparse-no-channel", NO_CHANNEL),
            ("stream-no-channel", NO_CHANNEL),
            (
                "reduce-correlation-only",
                r"^need the correlation and at least one feature channel, got shape \(1, 4, 4, 8\)$",
            ),
        ],
    )
    def test_bad_feature_shapes_rejected(self, entry, match):
        """Each entry point rejects features of another shape or of no
        channel, and a volume of the correlation alone, by name."""
        none, window = np.zeros((0, 4, 8)), Window.dense(32, 3, (4, 8))
        calls = {
            "shapes-differ": lambda: build_dense_volume(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), 8, 1, 1),
            "dense-no-channel": lambda: build_dense_volume(none, none, 32, 3, 1),
            "sparse-no-channel": lambda: build_sparse_volume(none, none, window.planes(), 3, 1),
            "stream-no-channel": lambda: stream_cost(none, none, window, 3, lambda v, chans: v),
            "reduce-correlation-only": lambda: reduce_to_cost(np.zeros((1, 4, 4, 8)), window, 3),
        }
        with pytest.raises(ValueError, match=match):
            calls[entry]()


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


def test_sparse_volume_matches_per_channel_gather():
    # the builder fills all 7 rows at once; each row's flat gather indices
    # need that row's own offset
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
        sv = ScoreVolume(np.zeros((4, 2, 2)), Window.dense(4, 0, (2, 2)).planes(), 1)
        assert np.allclose(soft_argmin(sv), 1.5)

    def test_dot_product(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        cost = -np.log(p).reshape(4, 1, 1)
        sv = ScoreVolume(cost, Window.dense(4, 0, (1, 1)).planes(), 1)
        assert abs(soft_argmin(sv)[0, 0] - 2.0) < 1e-12

    @given(st.floats(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_per_pixel_cost_shift_invariance(self, const):
        rng = np.random.default_rng(8)
        cost = rng.normal(size=(5, 3, 4))
        planes = Window.dense(5, 0, (3, 4)).planes()
        a = soft_argmin(ScoreVolume(cost, planes, 1))
        b = soft_argmin(ScoreVolume(cost + const, planes, 1))
        assert np.allclose(a, b, atol=1e-9)

    def test_output_within_plane_bounds(self):
        rng = np.random.default_rng(9)
        lo, hi = np.sort(rng.uniform(0, 10, size=(2, 4, 4)), axis=0)
        sv = ScoreVolume(rng.normal(size=(6, 4, 4)), Window(lo, hi, 6), 1)
        d = soft_argmin(sv)
        assert np.all(d >= lo) and np.all(d <= hi)

    def test_rejects_single_plane(self):
        # a one-plane ScoreVolume cannot be made: its planes are rejected first
        with pytest.raises(ValueError, match="at least 2 hypothesis planes"):
            HypothesisPlanes(np.zeros((1, 2, 2)))


class TestDecode:
    def test_cost_is_held_as_float64(self):
        """A float64 cost is held as the same array; a float32 one as its
        float64 cast, and it decodes to the bytes of that cast."""
        cost = np.random.default_rng(11).normal(scale=5.0, size=(6, 4, 5))
        window = Window.dense(6, 0, (4, 5))
        assert ScoreVolume(cost, window, 1).cost is cost
        narrow = cost.astype(np.float32)
        sv, wide = ScoreVolume(narrow, window, 1), ScoreVolume(narrow.astype(np.float64), window, 1)
        assert sv.cost.dtype == np.float64 and sv.cost.tobytes() == wide.cost.tobytes()
        d = soft_argmin(sv)
        assert d.tobytes() == soft_argmin(wide).tobytes()
        assert uncertainty(sv, d).tobytes() == uncertainty(wide, d).tobytes()

    def test_softmax_runs_once_per_decode(self, monkeypatch):
        calls = []

        def counting(volume, **kwargs):
            calls.append(volume.shape)
            return softmax(volume, **kwargs)

        softmax = cost_volume.softmax_along_planes
        monkeypatch.setattr(cost_volume, "softmax_along_planes", counting)
        sv = ScoreVolume(np.random.default_rng(10).normal(size=(5, 3, 4)), Window.dense(5, 0, (3, 4)).planes(), 1)
        uncertainty(sv, soft_argmin(sv))
        assert calls == [(5, 3, 4)]

    @pytest.mark.parametrize("seed", range(4))
    def test_distribution_is_the_softmax_of_the_negated_cost(self, seed):
        rng = np.random.default_rng(seed)
        cost = rng.normal(scale=20.0, size=(9, 5, 7))
        cost[:, 0, 0] = 3.0  # ties, where min - cost is +0
        cost[4, 1] = cost.min(axis=0)[1]
        sv = ScoreVolume(cost, Window.dense(9, 0, (5, 7)).planes(), 1)
        want = softmax_along_planes(-cost)
        assert sv._distribution.tobytes() == want.tobytes()
        assert softmax_along_planes(cost, negate=True).tobytes() == want.tobytes()

    def test_distribution_makes_one_map_beside_the_cost(self):
        """The decode holds the cost and the softmax's one buffer, with no
        negated copy: the peak above the cost is one (N, H, W) map plus
        per-pixel reductions."""
        cost = np.random.default_rng(6).normal(size=(12, 64, 128))
        sv = ScoreVolume(cost, Window.dense(12, 0, (64, 128)).planes(), 1)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sv._distribution
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= cost.nbytes + 3 * cost[0].nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cost_names_the_pixel(self, bad):
        cost = np.zeros((4, 3, 5))
        cost[2, 1, 3] = bad
        planes = Window.dense(4, 0, (3, 5)).planes()
        with pytest.raises(ValueError, match=r"non-finite value at index \(2, 1, 3\)"):
            soft_argmin(ScoreVolume(cost, planes, 1))
        with pytest.raises(ValueError, match=r"non-finite value at index \(2, 1, 3\)"):
            uncertainty(ScoreVolume(cost, planes, 1), np.zeros((3, 5)))


def plane_decode(score):
    """The decode that reads plane values: the sum of plane * p in ascending
    order, clipped to the first and last plane, and the variance about it."""
    p = score._distribution
    pv = score.window.planes().values
    d = np.zeros(pv.shape[1:])
    for k in range(len(pv)):
        d += pv[k] * p[k]
    d = np.clip(d, pv[0], pv[-1])
    u = np.zeros_like(d)
    for k in range(len(pv)):
        diff = pv[k] - d
        u += diff * diff * p[k]
    return d, u


class TestClosedFormDecode:
    """soft_argmin is lo + step * E[k] and uncertainty step^2 * Var[k]."""

    @staticmethod
    def cost(seed, n, h, w):
        """Spread, peaked, tied and one-hot pixels."""
        rng = np.random.default_rng(seed)
        cost = rng.normal(scale=rng.uniform(0.1, 30.0, size=(h, w)), size=(n, h, w))
        cost[:, 0, 0] = 2.0
        cost[:, 0, 1] = BIG
        cost[n - 1, 0, 1] = -BIG
        cost[:, 0, 2] = BIG
        cost[0, 0, 2] = -BIG
        return cost

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_stage3_bytes_equal_the_plane_decode(self, n):
        """On the window [0, n - 1], lo is 0 and step 1, so the closed form
        does the plane decode's operations in its order."""
        sv = ScoreVolume(self.cost(n, n, 16, 32), Window.dense(n, 0, (16, 32)), 3)
        d = soft_argmin(sv)
        want_d, want_u = plane_decode(sv)
        assert d.tobytes() == want_d.tobytes()
        assert uncertainty(sv, d).tobytes() == want_u.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_refinement_windows_agree_with_the_plane_decode(self, seed):
        n = (2, 12, 16)[seed % 3]
        window = random_window(seed, n, 16, 32)
        sv = ScoreVolume(self.cost(seed, n, 16, 32), window, 1)
        d = soft_argmin(sv)
        u = uncertainty(sv, d)
        want_d, want_u = plane_decode(sv)
        assert np.abs(d - want_d).max() <= 1e-12
        assert (np.abs(u - want_u) / np.maximum(1.0, want_u)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_estimate_stays_in_the_window(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 1e6, size=(16, 32))
        hi = lo + rng.uniform(0.0, 3.0, size=(16, 32))
        hi[0] = lo[0]  # zero-width windows too
        for n in (2, 12, 16):
            sv = ScoreVolume(self.cost(seed, n, 16, 32), Window(lo, hi, n), 1)
            d = soft_argmin(sv)
            assert np.all(d >= lo) and np.all(d <= hi)

    @pytest.mark.parametrize("n", [8, 16])
    def test_index_mean_capped_at_the_last_plane(self, n):
        """Near-one-hot weight on the last plane can sum past n - 1; the
        decode caps the mean there, as the plane decode clips to the last
        plane, byte for byte at stage 3."""
        rng = np.random.default_rng(0)
        cost = rng.normal(scale=rng.uniform(0.01, 3.0), size=(n, 64, 64))
        cost[-1] -= rng.uniform(0.0, 40.0, size=(64, 64))
        sv = ScoreVolume(cost, Window.dense(n, 0, (64, 64)), 3)
        raw = np.zeros((64, 64))
        for k, pk in enumerate(sv._distribution):
            raw += k * pk
        assert (raw > n - 1).any()
        d = soft_argmin(sv)
        want_d, want_u = plane_decode(sv)
        assert d.tobytes() == want_d.tobytes()
        assert uncertainty(sv, d).tobytes() == want_u.tobytes()

    def test_estimate_capped_at_hi(self):
        """lo + step * (n - 1) can round past hi, or short of it; one-hot
        weight on the last plane decodes to hi where it rounds past, within
        rounding of hi elsewhere, and with zero variance everywhere."""
        rng = np.random.default_rng(2)
        lo = rng.uniform(0.0, 1e3, size=(256, 256))
        hi = lo + rng.uniform(0.0, 10.0, size=(256, 256))
        n = 12
        window = Window(lo, hi, n)
        over = window.step * (n - 1) + lo > hi
        assert over.any()
        cost = np.full((n, 256, 256), BIG)
        cost[-1] = -BIG
        sv = ScoreVolume(cost, window, 1)
        d = soft_argmin(sv)
        assert np.array_equal(d[over], hi[over]) and np.all(d <= hi)
        assert np.abs(d - hi).max() <= 1e-12 * np.abs(hi).max()
        assert not uncertainty(sv, d).any()

    def test_uncertainty_is_zero_iff_one_hot(self):
        n, h, w = 12, 4, 6
        window = random_window(7, n, h, w)
        for k in range(n):
            cost = np.full((n, h, w), BIG)
            cost[k] = -BIG
            sv = ScoreVolume(cost, window, 1)
            d = soft_argmin(sv)
            assert np.array_equal(np.minimum(window.plane(k), window.hi), d)
            assert not uncertainty(sv, d).any()
            # a second plane that holds any weight at all
            cost[(k + 1) % n] = -BIG + 30.0
            sv = ScoreVolume(cost, window, 1)
            assert np.all(uncertainty(sv, soft_argmin(sv)) > 0.0)

    def test_uncertainty_about_another_estimate(self):
        """About d_hat + e the variance is larger by e^2."""
        sv = ScoreVolume(self.cost(3, 12, 8, 8), random_window(3, 12, 8, 8), 1)
        d = soft_argmin(sv)
        u = uncertainty(sv, d)
        assert np.allclose(uncertainty(sv, d + 0.5), u + 0.25, rtol=1e-12, atol=1e-12)


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

    @pytest.mark.parametrize("weights", [(0.7, 1.3), (9.75, 9.75)])
    def test_float32_volume_sums_the_cost_in_float32(self, weights):
        """A float32 volume's cost is summed in channel order and finished
        in float32, then cast to float64 once; it stays within float32
        rounding of the float64 sum."""
        w_group, w_absdiff = weights
        fl, fr = self.feature_pair(4)
        vol = build_dense_volume(fl, fr, 16, 1, 2)
        diff = mean_correlation(vol)
        assert diff.dtype == np.float32
        got = reduce_to_cost(diff, vol.planes, 1, w_group=w_group, w_absdiff=w_absdiff).cost
        assert got.dtype == np.float64
        c = diff.shape[0] - 1
        total = np.zeros(diff.shape[1:], np.float32)
        for channel in diff[:c]:
            total += np.abs(channel)
        want = total / np.float32(c) * np.float32(w_absdiff) - np.float32(w_group) * diff[c]
        assert want.dtype == np.float32
        assert got.tobytes() == want.astype(np.float64).tobytes()
        wide = reduce_to_cost(diff.astype(np.float64), vol.planes, 1, w_group=w_group, w_absdiff=w_absdiff).cost
        assert np.all(np.abs(got - wide) <= 1e-5 * np.maximum(1.0, np.abs(wide)))


# (dtype, reduce_first): each dtype regularizing its channels, then its cost
DTYPE_ORDERS = [
    pytest.param(np.float32, False, id="float32"),
    pytest.param(np.float64, False, id="float64"),
    pytest.param(np.float32, True, id="float32-cost"),
    pytest.param(np.float64, True, id="float64-cost"),
]


class TestStreamCost:
    """stream_cost equals reduce_to_cost of the whole regularized volume byte
    for byte, and with `reduce_first` the regularized cost that
    reduce_to_cost makes of the whole volume in the volume's dtype. Each
    case streams twice against one reference: at the default BLOCK_BYTES,
    where the shapes give two or more channel blocks with the last one
    partial, in float32 and in float64; and at BLOCK_BYTES = 1, the
    one-channel floor that a channel over 256 KiB reaches."""

    CONFIG = replace(desk_config(), fusion_smooth_radius=(1, 2, 1), fusion_passes=2)
    WEIGHTS = dict(w_group=9.75, w_absdiff=0.8125)
    CHANNELS = 13

    def features(self, seed, h, w, dtype):
        rng = np.random.default_rng(seed)
        fl = smoothed_features(rng, self.CHANNELS, h, w)
        fr = 0.8 * np.roll(fl, 5, axis=-1) + 0.2 * smoothed_features(rng, self.CHANNELS, h, w)
        return fl.astype(dtype), fr.astype(dtype)

    def streamed(self, monkeypatch, fl, fr, window, scale, regularize, split=True, reduce_first=False):
        """stream_cost's costs at the default BLOCK_BYTES and at 1, checking
        the fills and the regularize calls. The fills run through the C
        channels in blocks; at the default, two or more blocks if `split`,
        else one. Regularizing the channels, each block's channels are its
        `chans` of the (C+1)-channel layout, in order, then the
        correlation, channel C. With `reduce_first` the one call is on the
        (N, H, W) cost in the features' dtype, with `chans` None."""
        costs = []
        fill = cost_volume._fill
        for block_bytes in (cost_volume.BLOCK_BYTES, 1):
            monkeypatch.setattr(cost_volume, "BLOCK_BYTES", block_bytes)
            blocks, fills = [], []

            def counted(volume, chans):
                if chans is None:
                    assert volume.shape == (window.n,) + window.lo.shape and volume.dtype == fl.dtype
                    blocks.append(None)
                else:
                    assert volume.shape[0] == chans.stop - chans.start
                    blocks.append((chans.start, chans.stop))
                return regularize(volume, chans)

            def filled(fl_block, *args):
                fills.append(len(fl_block))
                return fill(fl_block, *args)

            monkeypatch.setattr(cost_volume, "_fill", filled)
            score = stream_cost(fl, fr, window, scale, counted, reduce_first=reduce_first, **self.WEIGHTS)
            assert score.cost.dtype == np.float64 and score.window is window
            if reduce_first:
                assert blocks == [None]
            else:
                *chunks, corr = blocks
                assert corr == (self.CHANNELS, self.CHANNELS + 1)
                assert [a for a, _ in chunks] == [0] + [b for _, b in chunks[:-1]] and chunks[-1][1] == self.CHANNELS
                assert [b - a for a, b in chunks] == fills
            assert sum(fills) == self.CHANNELS
            if not fl[0].size:  # an empty plane fits any block
                assert fills == [self.CHANNELS]
            elif block_bytes == 1:
                assert fills == [1] * self.CHANNELS
            elif split:
                assert len(fills) >= 2 and fills[-1] < fills[0]
            else:
                assert fills == [self.CHANNELS]
            costs.append(score.cost)
        return costs

    def smooth(self, volume, chans=None):
        return aggregate(volume, self.CONFIG)

    def fuser(self, v4, v5):
        """The fused stage's regularizer: a scale-3 block fused with the
        same channels of the whole scale-4 and scale-5 volumes."""

        def fuse(block, chans):
            return fuse_volumes(block, v4[chans], v5[chans], self.CONFIG)

        return fuse

    def dense_case(self, dmax, scales, h, w, dtypes):
        """The features of `scales` (each of its dtype), the dense window of
        the first, its regularizer (fused if three scales are given, else
        smoothed) and the whole regularized volume the builders give."""
        feats = {s: self.features(s, h >> s, w >> s, dtype) for s, dtype in zip(scales, dtypes)}
        volumes = [build_dense_volume(*feats[s], dmax, s, 1).data for s in scales]
        regularize = self.fuser(*volumes[1:]) if len(scales) == 3 else self.smooth
        window = Window.dense(dmax, scales[0], feats[scales[0]][0].shape[1:])
        return feats[scales[0]], window, regularize, regularize(volumes[0], slice(None))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fusion", [True, False])
    def test_dense_planes(self, monkeypatch, dtype, fusion):
        scales = (3, 4, 5) if fusion else (3,)
        feats, window, regularize, whole = self.dense_case(128, scales, 64, 512, [dtype] * 3)
        want = reduce_to_cost(whole, window, 3, **self.WEIGHTS)
        for got in self.streamed(monkeypatch, *feats, window, 3, regularize):
            assert np.array_equal(got, want.cost)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scales", [(3, 4, 5), (3,), (4,), (5,)], ids=["fused", "3", "4", "5"])
    def test_dense_planes_at_or_past_the_row_width(self, monkeypatch, dtype, scales):
        """`RunConfig()`'s dmax 256 on a 64x64 pair: 32 planes on scale-3
        rows 8 wide, 16 on scale-4 rows 4 wide and 8 on scale-5 rows 2 wide.
        A shift at or past the row width reads a zero row, in the builder
        and in the stream alike."""
        feats, window, regularize, whole = self.dense_case(256, scales, 64, 64, [dtype] * 3)
        want = reduce_to_cost(whole, window, scales[0], **self.WEIGHTS)
        for got in self.streamed(monkeypatch, *feats, window, scales[0], regularize, split=False):
            assert got.tobytes() == want.cost.tobytes()

    def test_mixed_dtype_inputs(self, monkeypatch):
        """float32 features at scale 3 fused with float64 ones at 4 and 5
        regularize to float64, and the sum follows: still byte-equal."""
        dtypes = [np.float32, np.float64, np.float64]
        feats, window, fuse, fused = self.dense_case(128, (3, 4, 5), 64, 512, dtypes)
        assert fused.dtype == np.float64
        want = reduce_to_cost(fused, window, 3, **self.WEIGHTS)
        for got in self.streamed(monkeypatch, *feats, window, 3, fuse):
            assert got.tobytes() == want.cost.tobytes()

    def test_sum_takes_the_regularized_dtype(self, monkeypatch):
        """A regularize that turns float32 blocks into float64 ones gets a
        float64 sum, as reduce_to_cost of its float64 volume does."""
        fl, fr = self.features(3, 8, 64, np.float32)
        window = Window.dense(128, 3, fl.shape[1:])

        def widened(volume, chans=None):
            return self.smooth(volume).astype(np.float64)

        want = reduce_to_cost(widened(build_dense_volume(fl, fr, 128, 3, 1).data), window, 3, **self.WEIGHTS)
        for got in self.streamed(monkeypatch, fl, fr, window, 3, widened):
            assert got.tobytes() == want.cost.tobytes()

    def test_the_window_decides_the_fill(self, monkeypatch):
        """A window whose planes are the integers 0 .. n - 1 at every pixel
        is filled by slices, made by `Window.dense` or by hand, and its cost
        is the dense builder's; with one pixel's `hi` at n - 1.5, or its
        `lo` at 0.5, the window is gathered, and its cost is the sparse
        builder's."""
        fl, fr = self.features(5, 8, 64, np.float32)
        shape, n = fl.shape[1:], 16
        by_hand = Window(np.zeros(shape), np.full(shape, n - 1.0), n)
        lo, hi = by_hand.lo.copy(), by_hand.hi.copy()
        hi[3, 5] = n - 1.5
        lo[6, 2] = 0.5
        cases = [(Window.dense(128, 3, shape), True), (by_hand, True), (Window(by_hand.lo, hi, n), False)]
        cases.append((Window(lo, by_hand.hi, n), False))
        dense = build_dense_volume(fl, fr, 128, 3, 1).data
        fill = cost_volume._fill
        for window, integer in cases:
            volume = dense if integer else build_sparse_volume(fl, fr, window.planes(), 3, 1).data
            want = reduce_to_cost(self.smooth(volume), window, 3, **self.WEIGHTS)
            kinds = set()

            def filled(fl_block, fr_block, weights, *args):
                kinds.update(isinstance(wts, int) for wts in weights)
                return fill(fl_block, fr_block, weights, *args)

            monkeypatch.setattr(cost_volume, "_fill", filled)
            got = stream_cost(fl, fr, window, 3, self.smooth, **self.WEIGHTS)
            assert kinds == {integer}
            assert got.cost.tobytes() == want.cost.tobytes()

    @pytest.mark.parametrize("dtype, reduce_first", DTYPE_ORDERS)
    def test_sparse_planes(self, monkeypatch, dtype, reduce_first):
        """Regularizing the channels, the cost is reduce_to_cost of the
        regularized volume; regularizing the cost (stage 1's order), it is
        `aggregate` of the cost reduce_to_cost makes of the whole volume,
        cast back to the volume's dtype (exactly: it is worked out in it).
        So it is on a grid of no rows or no columns too, where the builders
        give an empty volume."""
        features = self.features(7, 16, 64, dtype)
        whole = random_window(8, 12, 16, 64)
        for h, w in ((16, 64), (0, 64), (16, 0)):
            fl, fr = (f[:, :h, :w] for f in features)
            window = Window(whole.lo[:h, :w], whole.hi[:h, :w], whole.n)
            vol = build_sparse_volume(fl, fr, window.planes(), 1, 1)
            if reduce_first:
                cost = reduce_to_cost(vol.data, window, 1, **self.WEIGHTS).cost.astype(dtype)
                want = self.smooth(cost).astype(np.float64)
            else:
                want = reduce_to_cost(self.smooth(vol.data), window, 1, **self.WEIGHTS).cost
            assert want.shape == (12, h, w)
            for got in self.streamed(monkeypatch, fl, fr, window, 1, self.smooth, reduce_first=reduce_first):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, reduce_first", DTYPE_ORDERS)
    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("radii", [(0, 2, 2), (0, 1, 0)])
    @pytest.mark.parametrize("planes", ["dense", "sparse"])
    def test_plane_reach_zero_streams_plane_by_plane(self, monkeypatch, planes, radii, passes, dtype, reduce_first):
        """At plane reach 0 each plane is regularized alone, a block of
        channels at a time, then the correlation once; regularizing the
        cost, as stage 1 does, the blocks are filled the same way and the
        one cost is regularized once. 32x256 planes give two or more blocks
        per plane at the default BLOCK_BYTES, the last one partial, in
        float32 and in float64."""
        config = replace(desk_config(), fusion_smooth_radius=radii, fusion_passes=passes)
        assert plane_reach(config) == 0
        h, w = 32, 256
        fl, fr = self.features(12, h, w, dtype)
        if planes == "dense":
            window = Window.dense(16, 3, (h, w))
            vol = build_dense_volume(fl, fr, 16, 3, 1)
        else:
            window = random_window(13, 3, h, w)
            vol = build_sparse_volume(fl, fr, window.planes(), 3, 1)
        n = window.n

        def smooth(volume):
            return aggregate(volume, config)

        if reduce_first:
            want = smooth(reduce_to_cost(vol.data, window, 3, **self.WEIGHTS).cost.astype(dtype)).astype(np.float64)
        else:
            want = reduce_to_cost(smooth(vol.data), window, 3, **self.WEIGHTS).cost
        fill = cost_volume._fill
        for block_bytes in (cost_volume.BLOCK_BYTES, 1):
            monkeypatch.setattr(cost_volume, "BLOCK_BYTES", block_bytes)
            calls, fills = [], []

            def counted(volume, chans):
                calls.append(volume.shape[:2])
                return smooth(volume)

            def filled(fl_block, fr_block, weights, *args):
                fills.append((len(fl_block), len(weights)))
                return fill(fl_block, fr_block, weights, *args)

            monkeypatch.setattr(cost_volume, "_fill", filled)
            score = stream_cost(
                fl, fr, window, 3, counted, plane_reach=0, reduce_first=reduce_first,
                **self.WEIGHTS,
            )
            assert score.cost.tobytes() == want.tobytes()
            block = max(1, block_bytes // fl[0].nbytes)
            chunks = [(min(block, self.CHANNELS - c0), 1) for c0 in range(0, self.CHANNELS, block)]
            if block_bytes == 1:
                assert chunks == [(1, 1)] * self.CHANNELS
            else:
                assert len(chunks) >= 2 and chunks[-1] < chunks[0]
            # a (channel chunk, one plane) fill per chunk of each plane
            assert fills == chunks * n
            # and as many calls, then the correlation; or the one (N, H, W) cost
            assert calls == ([(n, h)] if reduce_first else chunks * n + [(1, n)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("planes", ["dense", "sparse"])
    def test_plane_reach_zero_fills_a_block_with_small_planes(self, monkeypatch, planes, dtype):
        """A 16x32 plane with its 13 channels is 26 KiB in float32 and 52 KiB
        in float64, so a 256 KiB block holds 9 or 4 whole planes: each span
        of planes is one (13, planes) call, the last span partial, then the
        correlation. At BLOCK_BYTES = 1 every channel of every plane is a
        call of its own."""
        config = desk_config()
        assert plane_reach(config) == 0
        h, w = 16, 32
        fl, fr = self.features(14, h, w, dtype)
        if planes == "dense":
            window = Window.dense(128, 3, (h, w))
            vol = build_dense_volume(fl, fr, 128, 3, 1)
        else:
            window = random_window(15, 16, h, w)
            vol = build_sparse_volume(fl, fr, window.planes(), 3, 1)
        n = window.n
        assert n == 16

        def smooth(volume):
            return aggregate(volume, config)

        want = reduce_to_cost(smooth(vol.data), window, 3, **self.WEIGHTS)
        for block_bytes in (cost_volume.BLOCK_BYTES, 1):
            monkeypatch.setattr(cost_volume, "BLOCK_BYTES", block_bytes)
            calls = []

            def counted(volume, chans):
                calls.append(volume.shape[:2])
                return smooth(volume)

            score = stream_cost(fl, fr, window, 3, counted, plane_reach=0, **self.WEIGHTS)
            assert score.cost.tobytes() == want.cost.tobytes()
            if block_bytes == 1:
                assert calls == [(1, 1)] * (self.CHANNELS * n) + [(1, n)]
            else:
                span = {np.float32: 9, np.float64: 4}[dtype]
                assert calls == [(self.CHANNELS, min(span, n - n0)) for n0 in range(0, n, span)] + [(1, n)]

    @pytest.mark.parametrize("reach", [-1, -4])
    def test_negative_plane_reach_rejected(self, reach):
        fl, fr = self.features(0, 4, 8, np.float64)
        with pytest.raises(ValueError, match=f"^plane reach must be None or >= 0, got {reach}$"):
            stream_cost(fl, fr, Window.dense(32, 3, (4, 8)), 3, self.smooth, plane_reach=reach)

    def test_peak_memory_is_cost_maps_plus_blocks(self):
        """A desk refinement band (stage 1: 12 planes of 64x128, plane reach
        0): beyond its inputs, `stream_cost` holds at most five float64
        (N, H, W) maps (the float32 sum and correlation, the cost and their
        temporaries) plus a few blocks. Whole-span gather weights alone
        would take 3 maps more."""
        config = desk_config()
        fl, fr = self.features(3, 64, 128, np.float32)
        window = random_window(4, 12, 64, 128)
        reach = plane_reach(config)
        assert reach == 0

        def smooth(volume, chans):
            return aggregate(volume, config)

        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            score = stream_cost(fl, fr, window, 1, smooth, plane_reach=reach, **self.WEIGHTS)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 5 * score.cost.nbytes + 4 * cost_volume.BLOCK_BYTES

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
