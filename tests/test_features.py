import numpy as np
import pytest

from cfstereo.features import (
    STAT_RADIUS, _scale_centred, blur_chain, blur_decimate2, build_pyramid, channel_stack, level_features
)
from references import (
    blur_then_decimate, box_reference, std_normalized, take_clamped, whole_stack_channels, whole_stack_pyramid
)


def test_constant_image_all_channels_zero():
    img = np.full((64, 64), 0.4)
    pyr = build_pyramid(img)
    for level, feats in pyr.items():
        assert np.all(feats == 0.0), f"level {level} not zeroed"


def test_shape_contract():
    img = np.random.default_rng(0).random((128, 256))
    pyr = build_pyramid(img)
    assert sorted(pyr) == [1, 2, 3, 4, 5]
    # 5 statistics channels + 8 census channels, none of them padding
    assert pyr[3].shape == (13, 128 // 8, 256 // 8)
    assert pyr[5].shape == (13, 128 // 32, 256 // 32)


def test_step_edge_gradient_peak():
    # full-res step at column 2k lands at column k of level 1
    k = 16
    img = np.zeros((64, 128))
    img[:, 2 * k :] = 1.0
    pyr = build_pyramid(img)
    gx = pyr[1][1]
    peaks = np.argmax(np.abs(gx), axis=1)
    assert np.all((peaks == k - 1) | (peaks == k))


def test_raw_generators_translation_equivariant():
    """Shifting the crop window shifts every raw channel exactly (interior)."""
    rng = np.random.default_rng(3)
    shift = 5
    wide = rng.random((32, 64 + shift))
    a = channel_stack(wide[:, :64])
    b = channel_stack(wide[:, shift : 64 + shift])
    pad = 3  # widest kernel support (stat radius 2) plus one
    assert np.array_equal(b[:, pad:-pad, pad : 64 - shift - pad], a[:, pad:-pad, shift + pad : 64 - pad])


def test_deterministic_output():
    img = np.random.default_rng(4).random((64, 64))
    a = build_pyramid(img)
    b = build_pyramid(img)
    for level in a:
        assert a[level].tobytes() == b[level].tobytes()


def test_rejects_misaligned_dims():
    with pytest.raises(ValueError, match="divisible"):
        build_pyramid(np.zeros((60, 64)))


@pytest.mark.parametrize("shape", [(32, 32), (32, 64), (64, 32)])
def test_rejects_a_side_under_two_pixels_at_scale_5(shape):
    with pytest.raises(ValueError, match=r"at least 64 \(two pixels at scale 5\)"):
        build_pyramid(np.random.default_rng(0).random(shape))


def test_smallest_sides_still_run():
    pyr = build_pyramid(np.random.default_rng(0).random((64, 64)))
    assert pyr[5].shape == (13, 2, 2)
    assert all(np.isfinite(f).all() for f in pyr.values())


@pytest.mark.parametrize("shape", [(6, 1, 1), (6, 2, 3), (6, 17, 33), (13, 64, 128), (13, 128, 256)])
def test_scale_centred_is_byte_equal_to_dividing_by_std(shape):
    rng = np.random.default_rng(shape[1])
    stack = rng.normal(size=shape) * rng.uniform(0.0, 50.0, size=(shape[0], 1, 1)) + 3.0
    stack[1] = -0.0
    stack[2] = 7.25
    stack[3, ..., 0] = -0.0  # a -0.0 column in a varying channel
    stack[4] = rng.choice([-1.0, 1.0], size=shape[1:])
    centred = stack - stack.mean(axis=(1, 2), keepdims=True)
    square = np.empty(shape[1:])
    for channel in centred:
        assert _scale_centred(channel, square) is channel
    got = centred
    assert got.tobytes() == std_normalized(stack).tobytes()
    assert not got[1:3].any()
    if shape[1] * shape[2] > 1:
        assert got[0].any() and got[4].any()


@pytest.mark.parametrize("census_radius", [1, 2])
def test_float32_levels_are_the_cast_float64_levels(census_radius):
    """Levels cast as they are made equal the float64 pyramid cast after the
    fact, byte for byte, and building them leaves the image as it was."""
    img = np.random.default_rng(6).random((64, 128))
    before = img.tobytes()
    got = build_pyramid(img, census_radius=census_radius, dtype=np.float32)
    want = build_pyramid(img, census_radius=census_radius)
    assert img.tobytes() == before
    assert sorted(got) == sorted(want)
    for level, feats in got.items():
        assert feats.dtype == np.float32 and feats.flags.c_contiguous
        assert feats.tobytes() == want[level].astype(np.float32).tobytes()


@pytest.mark.parametrize("dtype", [np.float16, np.int32, complex])
def test_rejects_other_feature_dtypes(dtype):
    with pytest.raises(ValueError, match="feature dtype must be float32 or float64"):
        build_pyramid(np.zeros((64, 64)), dtype=dtype)


@pytest.mark.parametrize("census_radius", [1, 2, 3])
@pytest.mark.parametrize("channels", [1, 4, 8, 13, 16, 30, 60])
def test_levels_match_truncated_full_stack(census_radius, channels):
    """Every level is the normalized full channel stack, byte for byte, and
    its first `channels` channels are the normalized first raw channels."""
    img = np.random.default_rng(5).random((64, 128))
    pyr = build_pyramid(img, census_radius=census_radius)
    current = img
    for level in (1, 2, 3, 4, 5):
        current = blur_decimate2(current)
        raw = channel_stack(current, census_radius)
        assert raw.shape[0] == 5 + (2 * census_radius + 1) ** 2 - 1
        assert pyr[level].tobytes() == std_normalized(raw).tobytes()
        # normalization is per channel, so it commutes with truncation
        assert pyr[level][:channels].tobytes() == std_normalized(raw[:channels]).tobytes()


# The census neighbours and the blur taps are slices of edge-padded copies.
# These references write the same formulas with clipped np.take indices, so
# the two must agree bit for bit, including where the radius reaches past
# the image (a 4x8 image is desk's scale 5).


def blur_reference(a, axis):
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    acc = np.zeros_like(a)
    for weight, off in zip(kernel, range(-2, 3)):
        acc += weight * take_clamped(a, axis, off)
    return acc


def channel_stack_reference(image, census_radius):
    gy, gx = np.gradient(image)
    mean = box_reference(box_reference(image, 0, STAT_RADIUS), 1, STAT_RADIUS)
    sq_mean = box_reference(box_reference(image * image, 0, STAT_RADIUS), 1, STAT_RADIUS)
    std = np.sqrt(np.maximum(sq_mean - mean * mean, 0.0))
    channels = [image, gx, gy, mean, std]
    h, w = image.shape
    for dy in range(-census_radius, census_radius + 1):
        ry = np.clip(np.arange(h) + dy, 0, h - 1)
        for dx in range(-census_radius, census_radius + 1):
            if dy == 0 and dx == 0:
                continue
            rx = np.clip(np.arange(w) + dx, 0, w - 1)
            channels.append(np.where(image > image[ry][:, rx], 1.0, -1.0))
    return np.stack(channels, axis=0)


PADDED_IMAGES = {
    "random 64x128": np.random.default_rng(6).random((64, 128)),
    "ties 16x32": np.random.default_rng(7).integers(0, 3, size=(16, 32)).astype(np.float64),
    "4x8": np.random.default_rng(8).random((4, 8)),
    "2x4": np.random.default_rng(9).random((2, 4)),
}


@pytest.mark.parametrize("census_radius", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PADDED_IMAGES))
def test_channel_stack_matches_clipped_index_census(census_radius, name):
    image = PADDED_IMAGES[name]
    got, want = channel_stack(image, census_radius), channel_stack_reference(image, census_radius)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(PADDED_IMAGES))
def test_blur_decimate2_matches_blur_then_decimate(name):
    image = PADDED_IMAGES[name]
    want = blur_reference(blur_reference(image, 0), 1)[::2, ::2]
    got = blur_decimate2(image)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("census_radius", [1, 2, 3])
def test_pyramid_levels_match_clipped_index_references(census_radius):
    """Down to the 4x8 level of a 128x256 image, every raw stack is the
    reference's, byte for byte."""
    current = want = np.random.default_rng(10).random((128, 256))
    for level in range(1, 6):
        current = blur_decimate2(current)
        want = blur_reference(blur_reference(want, 0), 1)[::2, ::2]
        assert current.tobytes() == want.tobytes()
        raw = channel_stack(current, census_radius)
        assert raw.tobytes() == channel_stack_reference(want, census_radius).tobytes()
    assert current.shape == (4, 8)


def census_where(image, census_radius):
    """The census channels as `np.where` over slices of the edge-padded
    image, one fresh array per neighbour."""
    r = census_radius
    h, w = image.shape
    padded = np.pad(image, r, mode="edge")
    return np.stack([
        np.where(image > padded[r + dy : r + dy + h, r + dx : r + dx + w], 1.0, -1.0)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if dy or dx
    ])


CENSUS_IMAGES = {
    "random 24x40": np.random.default_rng(11).normal(size=(24, 40)),
    "constant 8x16": np.full((8, 16), 3.5),
    # ties, and +0.0 against -0.0, which compare equal and so give -1
    "ties 16x33": np.random.default_rng(12).choice([-1.0, -0.0, 0.0, 2.0], size=(16, 33)),
    "signed zeros 4x8": np.random.default_rng(13).choice([-0.0, 0.0], size=(4, 8)),
}


@pytest.mark.parametrize("census_radius", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CENSUS_IMAGES))
def test_census_channels_match_where_form(census_radius, name):
    """The census compares flat runs of one padded image and writes
    2 * (centre > neighbour) - 1 into the stack: +1 and -1 exactly where
    `np.where` puts them."""
    image = CENSUS_IMAGES[name]
    got = channel_stack(image, census_radius)[5:]
    want = census_where(image, census_radius)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Levels are made a channel at a time, and the blur computes only the kept
# samples. `references` keeps the whole-stack forms they replaced; the two
# must agree byte for byte.

WHOLE_STACK_IMAGES = {
    "random 128x256": np.random.default_rng(14).random((128, 256)),
    "ties 64x128": np.random.default_rng(15).integers(0, 3, size=(64, 128)).astype(np.float64),
    "constant 64x64": np.full((64, 64), 0.4),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("census_radius", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WHOLE_STACK_IMAGES))
def test_levels_are_the_whole_stack_levels(name, census_radius, dtype):
    image = WHOLE_STACK_IMAGES[name]
    got = build_pyramid(image, census_radius=census_radius, dtype=dtype)
    want = whole_stack_pyramid(image, census_radius, dtype)
    assert sorted(got) == sorted(want) == [1, 2, 3, 4, 5]
    chain = blur_chain(image)
    for level, feats in got.items():
        assert feats.dtype == dtype and feats.flags.c_contiguous
        assert feats.tobytes() == want[level].tobytes(), level
        # the pipeline's path: one level from one image of the chain
        assert level_features(chain[level], census_radius, dtype).tobytes() == feats.tobytes(), level
        if name.startswith("constant"):
            assert not feats.any(), level


@pytest.mark.parametrize("census_radius", [1, 3])
@pytest.mark.parametrize("name", sorted(PADDED_IMAGES))
def test_channel_stack_is_the_whole_stack(census_radius, name):
    image = PADDED_IMAGES[name]
    got, want = channel_stack(image, census_radius), whole_stack_channels(image, census_radius)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


BLUR_IMAGES = {
    **PADDED_IMAGES,
    "odd 7x9": np.random.default_rng(16).random((7, 9)),
    "one row 1x6": np.random.default_rng(17).random((1, 6)),
    "float32 16x32": np.random.default_rng(18).random((16, 32)).astype(np.float32),
    "signed zeros 8x8": np.random.default_rng(19).choice([-0.0, 0.0], size=(8, 8)),
}


@pytest.mark.parametrize("name", sorted(BLUR_IMAGES))
def test_blur_decimate2_is_the_blur_then_decimate(name):
    """Blurring only the kept rows and columns gives the bytes of blurring
    everything and then dropping the odd rows and columns."""
    image = BLUR_IMAGES[name]
    got, want = blur_decimate2(image), blur_then_decimate(image)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_blur_chain_checks_the_image():
    image = np.random.default_rng(20).random((64, 128))
    chain = blur_chain(image)
    assert sorted(chain) == [1, 2, 3, 4, 5]
    assert [chain[i].shape for i in chain] == [(64 >> i, 128 >> i) for i in range(1, 6)]
    image[5, 7] = np.inf
    with pytest.raises(ValueError, match=r"image has a non-finite value at index \(5, 7\)"):
        blur_chain(image)
    with pytest.raises(ValueError, match="divisible"):
        blur_chain(np.zeros((60, 64)))
