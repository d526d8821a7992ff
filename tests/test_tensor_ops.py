import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cfstereo.tensor_ops import (
    _apply_row_weights,
    _row_weights,
    _sample_rows,
    as_grid,
    avgpool_volume,
    bilinear_upsample2x,
    box_smooth_axis,
    softmax_along_planes,
    trilinear_upsample2x,
    weighted_smooth_axis,
)
from references import box_reference, take_clamped

finite = st.floats(-50, 50, allow_nan=False)


def small_volumes():
    return arrays(np.float64, array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6), elements=finite)


class TestSoftmax:
    def test_uniform_logits(self):
        p = softmax_along_planes(np.zeros((4, 3, 2)))
        assert np.allclose(p, 0.25)

    def test_shift_invariance(self):
        base = np.array([0.0, 0.7, -1.2, 2.0]).reshape(4, 1, 1)
        shifted = base + 13.5
        assert np.allclose(softmax_along_planes(base), softmax_along_planes(shifted))

    def test_closed_form(self):
        p = softmax_along_planes(np.array([[[0.0]], [[np.log(3.0)]]]))
        assert np.allclose(p[:, 0, 0], [0.25, 0.75])

    def test_nonfinite_reports_pixel(self):
        v = np.zeros((2, 3, 4))
        v[1, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"\(1, 2, 1\)"):
            softmax_along_planes(v)

    @given(small_volumes())
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, v):
        p = softmax_along_planes(v)
        assert np.all(p > 0) and np.all(p < 1 + 1e-12)
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (5, 3, 4), (12, 20, 64)])
    def test_one_buffer_form_keeps_bytes_and_input(self, dtype, shape):
        """The subtract makes the one fresh array and the exp and divide work
        in place on it: the input is untouched, the result shares no memory
        with it, and the bytes are those of the three-temporary form."""
        rng = np.random.default_rng(shape[0])
        v = (rng.normal(size=shape) * 20.0).astype(dtype)
        before = v.tobytes()
        p = softmax_along_planes(v)
        e = np.exp(v - v.max(axis=0, keepdims=True))
        want = e / e.sum(axis=0, keepdims=True)
        assert v.tobytes() == before
        assert not np.shares_memory(p, v)
        assert p.dtype == want.dtype and p.tobytes() == want.tobytes()


class TestBilinearUpsample:
    def test_constant(self):
        out = bilinear_upsample2x(np.full((3, 5), 2.75))
        assert out.shape == (6, 10)
        assert np.allclose(out, 2.75)

    def test_single_cell_clamps(self):
        assert np.allclose(bilinear_upsample2x(np.array([[7.0]])), 7.0)

    def test_half_pixel_weights(self):
        out = bilinear_upsample2x(np.array([[0.0, 1.0]]))
        assert np.allclose(out, [[0.0, 0.25, 0.75, 1.0], [0.0, 0.25, 0.75, 1.0]])

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8), elements=finite))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_input(self, m):
        out = bilinear_upsample2x(m)
        assert out.min() >= m.min() - 1e-12
        assert out.max() <= m.max() + 1e-12


class TestAvgpool:
    def test_ones(self):
        assert np.allclose(avgpool_volume(np.ones((4, 4, 4))), 1.0)

    def test_block_mean(self):
        out = avgpool_volume(np.arange(8.0).reshape(2, 2, 2))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 3.5

    def test_shape_contract_4d(self):
        out = avgpool_volume(np.zeros((3, 16, 32, 64)))
        assert out.shape == (3, 8, 16, 32)

    def test_odd_dims_instruct_padding(self):
        with pytest.raises(ValueError, match="pad"):
            avgpool_volume(np.zeros((3, 4, 5)))

    @given(arrays(np.float64, st.tuples(st.sampled_from([2, 4]), st.sampled_from([2, 4]), st.sampled_from([2, 4])), elements=finite))
    @settings(max_examples=40, deadline=None)
    def test_preserves_global_mean(self, v):
        assert abs(avgpool_volume(v).mean() - v.mean()) < 1e-6


class TestBoxSmooth:
    def test_radius_zero_identity(self):
        a = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(box_smooth_axis(a, 1, 0), a)

    def test_impulse_spreads_thirds(self):
        a = np.zeros((1, 7))
        a[0, 3] = 3.0
        out = box_smooth_axis(a, 1, 1)
        assert np.allclose(out[0], [0, 0, 1, 1, 1, 0, 0])

    def test_edge_clamp_preserves_constant(self):
        a = np.full((2, 5), 4.0)
        assert np.allclose(box_smooth_axis(a, 1, 2), 4.0)


def test_trilinear_matches_bilinear_per_slice():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 4, 5))
    up = trilinear_upsample2x(v)
    assert up.shape == (6, 8, 10)
    # plane-axis constant volume: each doubled plane slice is the 2D upsampling
    c = np.broadcast_to(v[0], (2, 4, 5)).copy()
    up_c = trilinear_upsample2x(c)
    assert np.allclose(up_c[0], bilinear_upsample2x(v[0]))


# Reference formulas that shift with np.take over clipped indices. The library
# shifts by slicing but computes the same terms and adds them in the same
# order, so results must be equal bit for bit, signed zeros included.


def weighted_reference(a, axis, weights):
    radius = len(weights) // 2
    acc = np.zeros_like(a)
    for k, off in enumerate(range(-radius, radius + 1)):
        acc += weights[k] * take_clamped(a, axis, off)
    return acc


def upsample_axis_reference(a, axis):
    n = a.shape[axis]
    idx = np.arange(n)
    lo = np.take(a, np.maximum(idx - 1, 0), axis=axis)
    hi = np.take(a, np.minimum(idx + 1, n - 1), axis=axis)
    shape = list(a.shape)
    shape[axis] = 2 * n
    out = np.empty(shape)
    sel = [slice(None)] * a.ndim
    sel[axis] = slice(0, None, 2)
    out[tuple(sel)] = 0.75 * a + 0.25 * lo
    sel[axis] = slice(1, None, 2)
    out[tuple(sel)] = 0.75 * a + 0.25 * hi
    return out


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def grids():
    return arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5), elements=finite)


LENGTH_ONE = np.array([[-0.0], [2.5], [-1.25]])  # axis 1 has length 1


finite32 = st.floats(-50, 50, allow_nan=False, width=32)
NEG_ZERO_32 = np.array([[-0.0, -0.0, 1.5], [-0.0, 0.0, -2.25]], np.float32)


def uniform(shape, seed):
    return np.random.default_rng(seed).uniform(-50.0, 50.0, size=shape)


# Rows longer than any drawn grid's (sides of at most 5), and inputs that are
# not C-contiguous: along the last axis the taps are flat runs over whole
# padded rows, so these check rows that start at every offset of such a run.
WIDE = uniform((3, 2, 37), 20)
WIDE_ROW = uniform((1, 1, 129), 21)
TRANSPOSED = uniform((37, 2, 3), 22).T  # (3, 2, 37), its last axis strided
STEPPED = uniform((3, 5, 80), 23)[:, ::2, 1::2]  # (3, 3, 40)
WIDE_32, TRANSPOSED_32 = WIDE.astype(np.float32), uniform((37, 2, 3), 22).astype(np.float32).T
STEPPED_32 = uniform((3, 5, 80), 23).astype(np.float32)[:, ::2, 1::2]
assert not any(a.flags.c_contiguous for a in (TRANSPOSED, STEPPED, TRANSPOSED_32, STEPPED_32))


# even (planes, H, W), as avgpool needs: wide rows, a transposed view and a stepped view
EVEN_WIDE = uniform((2, 2, 130), 24)
EVEN_WIDE_4D = uniform((2, 4, 2, 38), 25)
EVEN_TRANSPOSED = uniform((38, 2, 4), 26).T
EVEN_STEPPED = uniform((4, 8, 80), 27)[:, ::2, 1::2]


def even_shapes():
    return st.lists(st.sampled_from([2, 4, 6]), min_size=3, max_size=4).map(tuple)


def grids32():
    return arrays(np.float32, array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5), elements=finite32)


def kernels():
    return st.sampled_from([1, 3, 5, 9, 13]).flatmap(lambda n: st.lists(finite, min_size=n, max_size=n))


def any_axis(axis, ndim):
    """A drawn axis in [-4, 4) as a valid axis of an ndim grid, keeping its sign."""
    return axis % ndim - (ndim if axis < 0 else 0)


def upsample_axis_reference32(a, axis):
    return upsample_axis_reference(a, axis).astype(np.float32)


class TestSliceShiftsMatchGathers:
    @given(grids(), st.integers(-4, 3), st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    @example(WIDE, -1, 2)
    @example(WIDE, 0, 1)
    @example(WIDE_ROW, -1, 7)
    @example(TRANSPOSED, -1, 3)
    @example(TRANSPOSED, 1, 2)
    @example(STEPPED, -1, 1)
    @example(STEPPED, -2, 2)
    def test_box_smooth_axis(self, a, axis, radius):
        axis = any_axis(axis, a.ndim)
        assert_bitwise_equal(box_smooth_axis(a, axis, radius), box_reference(a, axis, radius))

    @given(grids(), st.integers(-4, 3), kernels())
    @settings(max_examples=150, deadline=None)
    @example(WIDE, -1, [1.0, 4.0, 6.0, 4.0, 1.0])
    @example(WIDE_ROW, -1, [0.25, -0.5, 1.0, 0.0, 2.0, -3.0, 0.75, 1.5, -0.125])
    @example(TRANSPOSED, -1, [1.0, 2.0, 1.0])
    @example(TRANSPOSED, 0, [1.0, 2.0, 1.0])
    @example(STEPPED, -1, [-1.0, 0.5, 3.0, 0.5, -1.0])
    def test_weighted_smooth_axis(self, a, axis, weights):
        axis = any_axis(axis, a.ndim)
        weights = np.asarray(weights)
        assert_bitwise_equal(weighted_smooth_axis(a, axis, weights), weighted_reference(a, axis, weights))

    @pytest.mark.parametrize("axis", [0, 1, -1, -2])
    def test_radius_beyond_axis_and_length_one(self, axis):
        a = np.arange(10.0).reshape(2, 5) - 4.5
        for radius in (1, 4, 5, 9):
            assert_bitwise_equal(box_smooth_axis(a, axis, radius), box_reference(a, axis, radius))
            kernel = np.linspace(-1.0, 2.0, 2 * radius + 1)
            assert_bitwise_equal(weighted_smooth_axis(a, axis, kernel), weighted_reference(a, axis, kernel))
        for radius in (1, 6):
            assert_bitwise_equal(box_smooth_axis(LENGTH_ONE, axis, radius), box_reference(LENGTH_ONE, axis, radius))

    def test_empty_axis_gives_empty_result(self):
        a = np.zeros((0, 3))
        assert_bitwise_equal(box_smooth_axis(a, 0, 2), box_reference(a, 0, 2))
        assert_bitwise_equal(weighted_smooth_axis(a, 0, [1.0, 2.0, 1.0]), weighted_reference(a, 0, [1.0, 2.0, 1.0]))
        assert_bitwise_equal(bilinear_upsample2x(a), np.zeros((0, 6)))

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5), elements=finite))
    @settings(max_examples=80, deadline=None)
    @example(LENGTH_ONE)
    @example(np.array([[-0.0]]))
    @example(WIDE[0])
    @example(WIDE_ROW[0])
    @example(TRANSPOSED[:, 0])
    @example(STEPPED[1])
    def test_bilinear_upsample2x(self, m):
        want = upsample_axis_reference(upsample_axis_reference(m, 0), 1)
        assert_bitwise_equal(bilinear_upsample2x(m), want)

    @given(arrays(np.float64, array_shapes(min_dims=3, max_dims=4, min_side=1, max_side=4), elements=finite))
    @settings(max_examples=80, deadline=None)
    @example(WIDE)
    @example(WIDE_ROW)
    @example(TRANSPOSED)
    @example(STEPPED)
    @example(STEPPED[None])
    def test_trilinear_upsample2x(self, v):
        want = v
        for axis in (-3, -2, -1):
            want = upsample_axis_reference(want, axis)
        assert_bitwise_equal(trilinear_upsample2x(v), want)

    # The pipeline feeds float32 volumes through the same taps. The float32
    # draws run against the same np.take references: the weighted reference
    # gets the kernel in float32, as the library multiplies in the grid's
    # dtype, and each upsampled axis is cast back to float32, which is exact
    # since the reference computes it in float32 before storing it in float64.

    @given(grids32(), st.integers(-4, 3), st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    @example(NEG_ZERO_32, 0, 1)
    @example(NEG_ZERO_32, -1, 2)
    @example(NEG_ZERO_32, 1, 0)
    @example(WIDE_32, -1, 2)
    @example(WIDE_ROW.astype(np.float32), -1, 5)
    @example(TRANSPOSED_32, -1, 2)
    @example(STEPPED_32, -1, 1)
    def test_box_smooth_axis_float32(self, a, axis, radius):
        axis = any_axis(axis, a.ndim)
        assert_bitwise_equal(box_smooth_axis(a, axis, radius), box_reference(a, axis, radius))

    @given(grids32(), st.integers(-4, 3), kernels())
    @settings(max_examples=150, deadline=None)
    @example(NEG_ZERO_32, 0, [1.0, 2.0, 1.0])
    @example(NEG_ZERO_32, -1, [0.25, -0.5, 1.0, 0.0, 2.0])
    @example(WIDE_32, -1, [1.0, 4.0, 6.0, 4.0, 1.0])
    @example(TRANSPOSED_32, -1, [1.0, 2.0, 1.0])
    @example(STEPPED_32, -1, [0.25, -0.5, 1.0, 0.0, 2.0])
    def test_weighted_smooth_axis_float32(self, a, axis, weights):
        axis = any_axis(axis, a.ndim)
        weights = np.asarray(weights)
        want = weighted_reference(a, axis, weights.astype(np.float32))
        assert_bitwise_equal(weighted_smooth_axis(a, axis, weights), want)

    @given(arrays(np.float32, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5), elements=finite32))
    @settings(max_examples=80, deadline=None)
    @example(NEG_ZERO_32)
    @example(np.array([[-0.0]], np.float32))
    @example(WIDE_32[0])
    @example(TRANSPOSED_32[:, 0])
    @example(STEPPED_32[1])
    def test_bilinear_upsample2x_float32(self, m):
        want = upsample_axis_reference32(upsample_axis_reference32(m, 0), 1)
        assert_bitwise_equal(bilinear_upsample2x(m), want)

    @given(arrays(np.float32, array_shapes(min_dims=3, max_dims=4, min_side=1, max_side=4), elements=finite32))
    @settings(max_examples=80, deadline=None)
    @example(NEG_ZERO_32.reshape(1, 2, 3))
    @example(WIDE_32)
    @example(TRANSPOSED_32)
    @example(STEPPED_32[None])
    def test_trilinear_upsample2x_float32(self, v):
        want = v
        for axis in (-3, -2, -1):
            want = upsample_axis_reference32(want, axis)
        assert_bitwise_equal(trilinear_upsample2x(v), want)

    @given(arrays(np.float64, even_shapes(), elements=finite))
    @settings(max_examples=60, deadline=None)
    @example(EVEN_WIDE)
    @example(EVEN_WIDE_4D)
    @example(EVEN_TRANSPOSED)
    @example(EVEN_STEPPED)
    def test_avgpool_volume(self, v):
        assert_bitwise_equal(avgpool_volume(v), avgpool_reference(v))

    @given(arrays(np.float32, even_shapes(), elements=finite32))
    @settings(max_examples=60, deadline=None)
    @example(EVEN_WIDE.astype(np.float32))
    @example(EVEN_TRANSPOSED.astype(np.float32, order="K"))
    @example(uniform((4, 8, 80), 27).astype(np.float32)[:, ::2, 1::2])
    def test_avgpool_volume_float32(self, v):
        assert_bitwise_equal(avgpool_volume(v), avgpool_reference(v))


def avgpool_reference(v):
    """x pairs, then y pairs, then plane pairs, gathered with np.take."""
    for axis in (-1, -2, -3):
        n = v.shape[axis]
        v = np.take(v, np.arange(0, n, 2), axis=axis) + np.take(v, np.arange(1, n, 2), axis=axis)
    return v * 0.125


# A stencil's result is a fresh array, or a view of one: writing into it
# must change neither the input nor another result of the same call.
STENCILS = {
    "box x": lambda a: box_smooth_axis(a, -1, 2),
    "box y": lambda a: box_smooth_axis(a, -2, 1),
    "box planes": lambda a: box_smooth_axis(a, -3, 1),
    "box radius 0": lambda a: box_smooth_axis(a, -1, 0),
    "weighted x": lambda a: weighted_smooth_axis(a, -1, [1.0, 2.0, 1.0]),
    "weighted y": lambda a: weighted_smooth_axis(a, -2, [1.0, 2.0, 1.0]),
    "bilinear": lambda a: bilinear_upsample2x(a[0, 0]),
    "trilinear": trilinear_upsample2x,
    "avgpool": avgpool_volume,
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(STENCILS))
def test_result_does_not_alias_input(name, dtype):
    a = np.random.default_rng(28).normal(size=(2, 4, 6, 10)).astype(dtype)
    before = a.copy()
    first, second = STENCILS[name](a), STENCILS[name](a)
    kept = second.copy()
    first[...] = 7.0
    assert a.tobytes() == before.tobytes()
    assert second.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, a) and not np.shares_memory(first, second)


@pytest.mark.parametrize("radius", [0, 1, 2])
@pytest.mark.parametrize(
    "a",
    [np.arange(5), np.arange(-6, 6, dtype=np.int32).reshape(3, 4), np.linspace(-2, 2, 12).astype(np.float16).reshape(3, 4)],
    ids=["int64", "int32", "float16"],
)
def test_box_smooth_axis_upcasts_like_as_grid(a, radius):
    want = box_smooth_axis(a.astype(np.float64), 0, radius)
    assert want.dtype == np.float64
    assert_bitwise_equal(box_smooth_axis(a, 0, radius), want)


def blocks_mean(v):
    n, h, w = v.shape[-3:]
    return v.reshape(v.shape[:-3] + (n // 2, 2, h // 2, 2, w // 2, 2)).mean(axis=(-5, -3, -1))


class TestAvgpoolSumsSlices:
    """`avgpool_volume` adds x pairs, then y pairs, then plane pairs; only the
    summation order differs from the strided block mean."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_values_equal_block_mean(self, dtype):
        v = np.random.default_rng(7).integers(-1000, 1000, size=(3, 4, 6, 8)).astype(dtype)
        assert_bitwise_equal(avgpool_volume(v), blocks_mean(v))

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 6, 10), (2, 4, 8, 16)])
    def test_random_values_within_rounding_of_block_mean(self, dtype, rel, shape):
        v = np.random.default_rng(8).normal(size=shape).astype(dtype)
        got, want = avgpool_volume(v), blocks_mean(v)
        assert got.dtype == want.dtype == dtype
        # relative to each block's mean magnitude, which bounds the rounding
        scale = blocks_mean(np.abs(v).astype(np.float64))
        assert np.all(np.abs(got.astype(np.float64) - want) <= rel * scale)


# The row sampler against the per-pixel formula that `synth.volume_oracle`
# writes out: linear between floor(src) and floor(src) + 1, and a column
# outside [0, W) reads 0.


def sample_rows_reference(a, src):
    h, w = a.shape[-2:]
    out = np.empty(a.shape)
    for lead in np.ndindex(a.shape[:-2]):
        rows = a[lead].tolist()
        for y in range(h):
            for x in range(w):
                s = float(src[y, x])
                x0 = math.floor(s)
                t = s - x0
                v0 = rows[y][x0] if 0 <= x0 < w else 0.0
                v1 = rows[y][x0 + 1] if 0 <= x0 + 1 < w else 0.0
                out[lead + (y, x)] = (1.0 - t) * v0 + t * v1
    return out


def source_columns(w):
    """Fractional, integer, negative, >= W and in-(W-1, W) columns."""
    return st.one_of(
        st.floats(-2.0 * w - 2, 2.0 * w + 2, allow_nan=False),
        st.integers(-w - 2, 2 * w + 2).map(float),
        st.floats(w - 1, w, exclude_min=True, exclude_max=True),
        st.sampled_from([-1.0, -0.5, 0.0, w - 1.0, float(w)]),
    )


class TestSampleRows:
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=5), elements=finite), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pixel_formula(self, a, data):
        h, w = a.shape[-2:]
        src = data.draw(arrays(np.float64, (h, w), elements=source_columns(w)), label="src")
        got = _sample_rows(a, src)
        assert got.shape == a.shape and got.dtype == np.float64
        assert np.array_equal(got, sample_rows_reference(a, src))

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=5), elements=finite), st.data())
    @settings(max_examples=80, deadline=None)
    def test_integer_columns_are_an_exact_lookup(self, a, data):
        h, w = a.shape[-2:]
        cols = data.draw(arrays(np.int64, (h, w), elements=st.integers(0, w - 1)), label="cols")
        want = np.take_along_axis(a, np.broadcast_to(cols, a.shape), axis=-1)
        assert np.array_equal(_sample_rows(a, cols.astype(np.float64)), want)

    def test_outside_the_frame_reads_zero(self):
        a = np.arange(1.0, 13.0).reshape(3, 4)
        src = np.array([[-1.0, -0.5, 4.0, 3.5]] * 3)
        assert np.array_equal(_sample_rows(a, src), np.array([[0.0, 0.5, 0.0, 0.5]]) * a[:, [0, 0, 0, 3]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_apply_to_channel_slices(self, dtype):
        """Weights computed once serve any block of channels: each slice
        equals that slice of the whole stack's result, byte for byte."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 5, 9)).astype(dtype)
        src = rng.uniform(-3.0, 12.0, size=(5, 9))
        src[0, :4] = [-1.0, 0.0, 8.0, 9.0]
        weights = _row_weights(src, 9, dtype)
        assert weights[1].dtype == dtype and weights[3].dtype == dtype
        whole = _apply_row_weights(a, weights)
        assert whole.dtype == dtype
        assert np.array_equal(whole, _sample_rows(a, src))
        for chans in (slice(0, 3), slice(3, 7), slice(6, 7), slice(0, 7)):
            assert np.array_equal(_apply_row_weights(a[chans], weights), whole[chans])


    @pytest.mark.parametrize("h, w", [(3, 5), (4, 1), (1, 8)])
    def test_indices_stay_in_their_row_far_outside_the_frame(self, h, w):
        """The gathers take mode "wrap" and write into scratch arrays, which
        is exact only because every index is already inside its own row."""
        far = [-1e9, -1e6, -10.0 * w - 0.5, -w - 1.0, -1.5, 2.0 * w + 0.25, 10.0 * w, 1e6 + 0.5, 1e9]
        src = np.resize(np.array(far), (h, w))
        rows = np.arange(h)[:, None] * w
        for table in _row_weights(src, w, np.float64)[::2]:
            assert ((table >= rows) & (table < rows + w)).all()
            assert ((table >= 0) & (table < h * w)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fractional", [True, False])
    def test_scratch_gathers_equal_fresh_ones(self, dtype, fractional):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 6, 9)).astype(dtype)
        src = rng.uniform(-12.0, 20.0, size=(6, 9))
        weights = _row_weights(src if fractional else np.round(src), 9, dtype)
        out, spare = np.full(a.shape, np.nan, dtype), np.full(a.shape, np.nan, dtype)
        got = _apply_row_weights(a, weights, out, spare)
        assert got is out
        assert got.tobytes() == _apply_row_weights(a, weights).tobytes()


def reference_row_weights(src, w, dtype):
    """The plain form of `_row_weights`, which its tables must equal byte for
    byte: masks from two signed compares each, weights masked in float64
    and then cast, and each index clipped to its own tap's range."""
    h = src.shape[0]
    base = np.floor(src)
    t = src - base
    i0 = np.clip(base, -2, w).astype(np.int32)
    row_start = np.arange(h, dtype=np.intp)[:, None] * w
    w0 = ((1.0 - t) * ((i0 >= 0) & (i0 < w))).astype(dtype, copy=False)
    j0 = np.clip(i0, 0, w - 1) + row_start
    w1 = (t * ((i0 >= -1) & (i0 < w - 1))).astype(dtype, copy=False)
    j1 = np.clip(i0, -1, w - 2) + (row_start + 1)
    return j0, w0, j1, w1


class TestRowWeightTables:
    """`_row_weights` builds its tables in fewer passes (an in-place clip,
    unsigned frame compares, weights cast before masking) and gives the
    bytes of `reference_row_weights`: every column from -3 to w + 2, whole
    and fractional, in float32 and float64. Whole columns give four tables
    too, their second weights all zero."""

    @staticmethod
    def assert_tables_equal(got, want):
        assert len(got) == len(want) == 4
        for g, x in zip(got, want):
            assert g.dtype == x.dtype and g.shape == x.shape
            assert g.tobytes() == x.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("w", [1, 2, 7, 16])
    def test_every_column_near_the_frame(self, dtype, w):
        cols = np.arange(-3, w + 3, dtype=np.float64)
        whole = np.resize(cols, (3, cols.size))
        rng = np.random.default_rng(w)
        # fractional rows: each column plus a random fraction, and its halves
        fractional = np.stack([cols + rng.uniform(0.0, 1.0, cols.size), cols + 0.5, cols - 0.25])
        for src in (whole, fractional, np.concatenate([whole, fractional])):
            got = _row_weights(src, w, dtype)
            want = reference_row_weights(src, w, dtype)
            self.assert_tables_equal(got, want)
            if src is whole:
                assert not got[3].any()
            assert got[0].dtype == np.intp and got[1].dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_columns(self, dtype, data):
        h = data.draw(st.integers(1, 4), label="h")
        w = data.draw(st.integers(1, 9), label="w")
        src = data.draw(arrays(np.float64, (h, w), elements=st.floats(-w - 3.0, 2.0 * w + 3.0)), label="src")
        if data.draw(st.booleans(), label="integer"):
            src = np.floor(src)
        self.assert_tables_equal(_row_weights(src, w, dtype), reference_row_weights(src, w, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fractional", [True, False])
    def test_wrap_gathers_equal_clip_ones(self, dtype, fractional):
        """Every index is inside the grid, so mode "wrap" (what the gathers
        use) reads what mode "clip" reads."""
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 5, 8)).astype(dtype)
        src = rng.uniform(-4.0, 12.0, size=(5, 8))
        j0, w0, j1, w1 = _row_weights(src if fractional else np.round(src), 8, dtype)
        flat = a.reshape(3, 40)
        for j in (j0, j1):
            assert np.take(flat, j, axis=-1, mode="wrap").tobytes() == np.take(flat, j, axis=-1, mode="clip").tobytes()
        clipped = np.take(flat, j0, axis=-1, mode="clip") * w0
        clipped += np.take(flat, j1, axis=-1, mode="clip") * w1
        assert _apply_row_weights(a, (j0, w0, j1, w1)).tobytes() == clipped.tobytes()


class TestIntegerColumns:
    """Integer columns are an exact lookup through both gathers, the second
    at weight 0: the in-frame value, and 0 outside [0, W)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_in_frame_value_and_zero_outside(self, dtype, data):
        elements = finite32 if dtype == np.float32 else finite
        a = data.draw(arrays(dtype, array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=5), elements=elements))
        h, w = a.shape[-2:]
        cols = data.draw(arrays(np.int64, (h, w), elements=st.integers(-w - 2, 2 * w + 2)), label="cols")
        got = _sample_rows(a, cols.astype(np.float64))
        assert got.dtype == dtype
        inside = (cols >= 0) & (cols < w)
        lookup = np.take_along_axis(a, np.broadcast_to(np.clip(cols, 0, w - 1), a.shape), axis=-1)
        assert np.array_equal(got, np.where(inside, lookup, 0.0))

    def test_negative_zero_lookup_is_the_two_term_sum(self):
        """The second gather adds (+0.0) * neighbour, so an exact lookup of
        -0.0 next to a non-negative neighbour reads +0.0: equal in value."""
        a = np.array([[-0.0, 1.0, -2.0]])
        got = _sample_rows(a, np.array([[0.0, 1.0, -1.0]]))
        assert got.tolist() == [[0.0, 1.0, 0.0]]
        assert not np.signbit(got[0, 0])

    def test_fractional_plane_keeps_both_gathers(self):
        src = np.array([[0.0, 1.5, 2.0]])
        j0, w0, j1, w1 = _row_weights(src, 3, np.float64)
        assert w0.tolist() == [[1.0, 0.5, 1.0]]
        assert w1.tolist() == [[0.0, 0.5, 0.0]]
        a = np.array([[4.0, 6.0, 10.0]])
        assert _sample_rows(a, src).tolist() == [[4.0, 8.0, 10.0]]


# Float32 grids stay float32, within float32 rounding of the float64 result
# on the same values; the float64 results are pinned bit for bit above.


def assert_float32_close(got, want):
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


FLOAT32_CASES = {
    "sample_rows": lambda a: _sample_rows(a, np.linspace(-2.5, 9.75, 8 * 8).reshape(8, 8)),
    "box_smooth_axis": lambda a: box_smooth_axis(a, -1, 2),
    "weighted_smooth_axis": lambda a: weighted_smooth_axis(a, -2, [1.0, 4.0, 6.0, 4.0, 1.0]),
    "avgpool_volume": avgpool_volume,
    "trilinear_upsample2x": trilinear_upsample2x,
    "bilinear_upsample2x": lambda a: bilinear_upsample2x(a[0, 0]),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
def test_float32_input_stays_float32(name):
    a32 = np.random.default_rng(5).normal(size=(3, 4, 8, 8)).astype(np.float32)
    fn = FLOAT32_CASES[name]
    assert_float32_close(fn(a32), fn(a32.astype(np.float64)))


def test_as_grid_keeps_float32_and_upcasts_the_rest():
    assert as_grid(np.zeros(3, np.float32)).dtype == np.float32
    for a in (np.zeros(3, np.float16), np.zeros(3, np.int32), [1, 2], np.zeros(3)):
        assert as_grid(a).dtype == np.float64
