import tracemalloc

import numpy as np
import pytest

from cfstereo.features import blur_decimate2, build_pyramid, channel_stack, normalize_channels


def test_constant_image_all_channels_zero():
    img = np.full((64, 64), 0.4)
    pyr = build_pyramid(img)
    for level, feats in pyr.items():
        assert np.all(feats == 0.0), f"level {level} not zeroed"


def test_shape_contract():
    img = np.random.default_rng(0).random((128, 256))
    pyr = build_pyramid(img, channels=16)
    assert sorted(pyr) == [1, 2, 3, 4, 5]
    assert pyr[3].shape == (16, 128 // 8, 256 // 8)
    assert pyr[5].shape == (16, 128 // 32, 256 // 32)


def test_step_edge_gradient_peak():
    # full-res step at column 2k lands at column k of level 1
    k = 16
    img = np.zeros((64, 128))
    img[:, 2 * k :] = 1.0
    pyr = build_pyramid(img)
    gx = pyr[1][1]
    peaks = np.argmax(np.abs(gx), axis=1)
    assert np.all((peaks == k - 1) | (peaks == k))


def test_padded_channels_stay_zero():
    img = np.random.default_rng(1).random((64, 64))
    pyr = build_pyramid(img, channels=16)
    # 5 statistics channels + 8 census channels = 13 generated
    assert np.all(pyr[1][13:] == 0.0)
    assert np.any(pyr[1][:13] != 0.0)


def test_channel_truncation():
    img = np.random.default_rng(2).random((64, 64))
    pyr = build_pyramid(img, channels=8)
    assert pyr[1].shape[0] == 8


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


@pytest.mark.parametrize("census_radius", [1, 2, 3])
@pytest.mark.parametrize("channels", [1, 4, 8, 13, 16, 30, 60])
def test_levels_match_truncated_full_stack(census_radius, channels):
    """Computing only the kept channels changes no byte of any level."""
    img = np.random.default_rng(5).random((64, 128))
    pyr = build_pyramid(img, channels=channels, census_radius=census_radius)
    current = img
    for level in (1, 2, 3, 4, 5):
        current = blur_decimate2(current)
        raw = channel_stack(current, census_radius)
        want = np.zeros((channels,) + current.shape)
        take = min(channels, raw.shape[0])
        want[:take] = normalize_channels(raw[:take])
        assert pyr[level].tobytes() == want.tobytes()


def test_wide_census_radius_stays_small():
    # r = 8 has 288 census neighbors; only the 11 that fit in 16 channels are built
    img = np.random.default_rng(6).random((128, 256))
    tracemalloc.start()
    try:
        build_pyramid(img, channels=16, census_radius=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"
