import tracemalloc

import numpy as np
import pytest

from cfstereo import synth
from cfstereo.synth import block_match_oracle, disparity_field, random_dot_stereogram
from references import whole_image_stereogram


class TestStereogram:
    def test_zero_disparity_identity(self):
        scene = random_dot_stereogram(32, 64, "constant:0", 5)
        assert scene.left.tobytes() == scene.right.tobytes()
        assert scene.valid.all()

    def test_integer_shift(self):
        scene = random_dot_stereogram(32, 64, "constant:8", 1)
        assert np.array_equal(scene.left[:, 8:], scene.right[:, :-8])
        assert not scene.valid[:, :8].any()
        assert scene.valid[:, 8:].all()

    def test_two_plane_occlusion_band(self):
        scene = random_dot_stereogram(32, 256, "two-plane:8,24", 2)
        k = 128
        band = scene.valid[:, k - 16 : k]
        assert not band.any(), "occluded band must be invalid"
        assert scene.valid[:, k - 32 : k - 16].all()
        assert scene.valid[:, k:].all()

    def test_warp_identity_on_valid(self):
        scene = random_dot_stereogram(24, 96, "slanted:3,11", 3)
        h, w = scene.left.shape
        xs = np.arange(w)[None, :] - np.where(scene.valid, scene.gt, 0.0)
        x0 = np.floor(xs).astype(int)
        t = xs - x0
        x0c = np.clip(x0, 0, w - 1)
        x1c = np.clip(x0 + 1, 0, w - 1)
        rows = np.broadcast_to(np.arange(h)[:, None], (h, w))
        interp = (1 - t) * scene.right[rows, x0c] + t * scene.right[rows, x1c]
        assert np.abs((scene.left - interp)[scene.valid]).max() < 1e-6

    def test_seed_determinism(self):
        a = random_dot_stereogram(16, 64, "piecewise:2,10", 9)
        b = random_dot_stereogram(16, 64, "piecewise:2,10", 9)
        assert a.left.tobytes() == b.left.tobytes()
        assert a.gt.tobytes() == b.gt.tobytes()

    @pytest.mark.parametrize("h, w", [(0, 64), (-4, 64), (16, 0)])
    def test_rejects_nonpositive_size(self, h, w):
        with pytest.raises(ValueError, match=f"image size {h}x{w} must be positive"):
            random_dot_stereogram(h, w, "constant:0", 0)

    def test_rejects_oversized_disparity(self):
        with pytest.raises(ValueError, match="W/4"):
            random_dot_stereogram(16, 64, "constant:20", 0)


# Every spec kind, piecewise with the default and an explicit slab count;
# only constant:0 leaves every pixel valid, so its fill is never drawn.
SMALL_SPECS = ["constant:0", "constant:5", "two-plane:2,6", "slanted:1,7", "piecewise:0,7", "piecewise:0,7,5"]
# 300 and 100 rows are not a multiple of their bands (128 and 32 rows), one
# row, a band of a single row at a width past BAND_PIXELS, and 7x33
SMALL_SIZES = [(300, 128), (100, 512), (1, 64), (3, synth.BAND_PIXELS + 40), (7, 33)]


def assert_same_scene(a, b):
    for name in ("left", "right", "gt", "valid"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


class TestBandedStereogram:
    """The scene made in row bands is the whole-image scene, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("h, w", SMALL_SIZES)
    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_matches_whole_image_reference(self, spec, h, w, seed):
        scene = random_dot_stereogram(h, w, spec, seed)
        assert_same_scene(scene, whole_image_stereogram(h, w, spec, seed))
        assert scene.valid.all() == (spec == "constant:0")

    @pytest.mark.parametrize("spec", ["two-plane:20,90", "piecewise:0,120,9"])
    def test_matches_at_benchmark_disparities(self, spec):
        assert_same_scene(random_dot_stereogram(130, 1024, spec, 5), whole_image_stereogram(130, 1024, spec, 5))

    @pytest.mark.parametrize("band_pixels", [1, 33, 1000])
    def test_band_size_does_not_change_the_scene(self, monkeypatch, band_pixels):
        monkeypatch.setattr(synth, "BAND_PIXELS", band_pixels)
        for spec in ("constant:0", "piecewise:0,7,5"):
            assert_same_scene(random_dot_stereogram(37, 64, spec, 3), whole_image_stereogram(37, 64, spec, 3))

    @pytest.mark.parametrize(
        "h, w, spec",
        [
            (16, 64, "spiral:1"),
            (16, 64, "constant:1,2"),
            (16, 64, "piecewise:0,10,2.5"),
            (0, 64, "constant:0"),
            (16, -1, "constant:0"),
            (16, 64, "constant:20"),
            (16, 64, "constant:inf"),
            (16, 64, "slanted:-1,3"),
        ],
    )
    def test_errors_are_the_references(self, h, w, spec):
        with pytest.raises(ValueError) as expected:
            whole_image_stereogram(h, w, spec, 0)
        with pytest.raises(ValueError) as got:
            random_dot_stereogram(h, w, spec, 0)
        assert str(got.value) == str(expected.value)

    def test_traced_peak_is_the_outputs_and_a_band(self):
        """At 512x1024 the four outputs take 13.1 MB; the banded scene peaks
        at about 14.2 MB traced, where the whole-image one reached 43.2."""
        tracemalloc.start()
        try:
            random_dot_stereogram(512, 1024, "two-plane:20,90", 5)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 20, f"traced peak {peak_mb:.1f} MB"


class TestDisparityField:
    def test_constant(self):
        f = disparity_field("constant:7", (4, 8), np.random.default_rng(0))
        assert np.all(f == 7.0)

    def test_two_plane_split(self):
        f = disparity_field("two-plane:3,9", (2, 8), np.random.default_rng(0))
        assert np.all(f[:, :4] == 3.0) and np.all(f[:, 4:] == 9.0)

    def test_slanted_endpoints(self):
        f = disparity_field("slanted:2,10", (2, 5), np.random.default_rng(0))
        assert f[0, 0] == 2.0 and f[0, -1] == 10.0

    def test_piecewise_within_range(self):
        f = disparity_field("piecewise:2,10,5", (4, 64), np.random.default_rng(1))
        assert f.min() >= 2.0 and f.max() <= 10.0

    @pytest.mark.parametrize("count", ["inf", "1e400", "nan", "2.5", "0", "-3", "65", "1e300"])
    def test_piecewise_slab_count_must_be_whole_and_fit(self, count):
        with pytest.raises(ValueError, match="slab count must be a whole number from 1 to 64"):
            disparity_field(f"piecewise:0,10,{count}", (4, 64), np.random.default_rng(1))

    @pytest.mark.parametrize("count", [1, 5, 64])
    def test_piecewise_slab_count_gives_that_many_slabs(self, count):
        f = disparity_field(f"piecewise:0,10,{count}.0", (4, 64), np.random.default_rng(1))
        assert np.count_nonzero(np.diff(f[0])) + 1 == count
        assert (f == f[0]).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            disparity_field("spiral:1", (4, 4), np.random.default_rng(0))


class TestBlockMatchOracle:
    def test_identical_images(self):
        img = random_dot_stereogram(32, 64, "constant:0", 4).right
        disp = block_match_oracle(img, img, 16, 3)
        assert np.all(disp == 0.0)

    def test_recovers_constant_shift(self):
        scene = random_dot_stereogram(64, 128, "constant:9", 6)
        disp = block_match_oracle(scene.left, scene.right, 32, 4)
        interior = scene.valid.copy()
        interior[:8] = interior[-8:] = False
        interior[:, :16] = interior[:, -16:] = False
        assert np.mean(disp[interior] == 9.0) >= 0.99

    def test_window_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            block_match_oracle(np.zeros((8, 8)), np.zeros((8, 8)), 4, 5)
