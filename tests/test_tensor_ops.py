import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cfstereo.tensor_ops import (
    _sample_rows,
    as_grid,
    avgpool_volume,
    bilinear_upsample2x,
    box_smooth_axis,
    softmax_along_planes,
    trilinear_upsample2x,
    weighted_smooth_axis,
)

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


def take_clamped(a, axis, off):
    n = a.shape[axis]
    return np.take(a, np.clip(np.arange(n) + off, 0, n - 1), axis=axis)


def box_reference(a, axis, radius):
    if radius == 0:
        return a.copy()
    acc = np.zeros_like(a)
    for off in range(-radius, radius + 1):
        acc += take_clamped(a, axis, off)
    return acc / (2 * radius + 1)


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


class TestSliceShiftsMatchGathers:
    @given(grids(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_box_smooth_axis(self, a, data):
        axis = data.draw(st.integers(-a.ndim, a.ndim - 1), label="axis")
        radius = data.draw(st.integers(0, 7), label="radius")
        assert_bitwise_equal(box_smooth_axis(a, axis, radius), box_reference(a, axis, radius))

    @given(grids(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_weighted_smooth_axis(self, a, data):
        axis = data.draw(st.integers(-a.ndim, a.ndim - 1), label="axis")
        size = data.draw(st.sampled_from([1, 3, 5, 9, 13]), label="kernel size")
        weights = np.asarray(data.draw(st.lists(finite, min_size=size, max_size=size), label="weights"))
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

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5), elements=finite))
    @settings(max_examples=80, deadline=None)
    @example(LENGTH_ONE)
    @example(np.array([[-0.0]]))
    def test_bilinear_upsample2x(self, m):
        want = upsample_axis_reference(upsample_axis_reference(m, 0), 1)
        assert_bitwise_equal(bilinear_upsample2x(m), want)

    @given(arrays(np.float64, array_shapes(min_dims=3, max_dims=4, min_side=1, max_side=4), elements=finite))
    @settings(max_examples=80, deadline=None)
    def test_trilinear_upsample2x(self, v):
        want = v
        for axis in (-3, -2, -1):
            want = upsample_axis_reference(want, axis)
        assert_bitwise_equal(trilinear_upsample2x(v), want)


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
