import numpy as np
import pytest

from cfstereo.synth import block_match_oracle, disparity_field, random_dot_stereogram


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
