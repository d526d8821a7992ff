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
        assert pyr[level].tobytes() == normalize_channels(raw).tobytes()
        # normalization is per channel, so it commutes with truncation
        assert pyr[level][:channels].tobytes() == normalize_channels(raw[:channels]).tobytes()
