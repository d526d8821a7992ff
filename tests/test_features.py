import numpy as np
import pytest

from cfstereo.features import build_pyramid, channel_stack


def test_constant_image_all_channels_zero():
    img = np.full((64, 64), 0.4)
    pyr = build_pyramid(img, levels=4)
    for level, feats in pyr.levels.items():
        assert np.all(feats == 0.0), f"level {level} not zeroed"


def test_shape_contract():
    img = np.random.default_rng(0).random((128, 256))
    pyr = build_pyramid(img, levels=5, channels=16)
    assert pyr.levels[3].shape == (16, 128 // 8, 256 // 8)
    assert pyr.levels[5].shape == (16, 128 // 32, 256 // 32)
    assert pyr.channel_count == 16


def test_step_edge_gradient_peak():
    # full-res step at column 2k lands at column k of level 1
    k = 16
    img = np.zeros((64, 128))
    img[:, 2 * k :] = 1.0
    pyr = build_pyramid(img, levels=3)
    gx = pyr.levels[1][1]
    peaks = np.argmax(np.abs(gx), axis=1)
    assert np.all((peaks == k - 1) | (peaks == k))


def test_padded_channels_stay_zero():
    img = np.random.default_rng(1).random((64, 64))
    pyr = build_pyramid(img, levels=3, channels=16)
    # 5 statistics channels + 8 census channels = 13 generated
    assert np.all(pyr.levels[1][13:] == 0.0)
    assert np.any(pyr.levels[1][:13] != 0.0)


def test_channel_truncation():
    img = np.random.default_rng(2).random((64, 64))
    pyr = build_pyramid(img, levels=3, channels=8)
    assert pyr.levels[1].shape[0] == 8


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
    a = build_pyramid(img, levels=3)
    b = build_pyramid(img, levels=3)
    for level in a.levels:
        assert a.levels[level].tobytes() == b.levels[level].tobytes()


def test_rejects_misaligned_dims():
    with pytest.raises(ValueError, match="divisible"):
        build_pyramid(np.zeros((60, 64)), levels=4)


def test_rejects_too_few_levels():
    with pytest.raises(ValueError, match="levels"):
        build_pyramid(np.zeros((64, 64)), levels=2)
