import importlib.util
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfstereo
from cfstereo import cascade, cost_volume
from cfstereo.benchmarks import DESK_SPECS, desk_config, desk_scene, evaluate_scene, stagewise_bad2
from cfstereo.cascade import (
    RangeParams,
    next_range,
    range_bounds,
    run_pipeline,
    sample_planes,
    uncertainty,
)
from cfstereo.config import RunConfig
from cfstereo.cost_volume import HypothesisPlanes, ScoreVolume, Window, soft_argmin, stream_cost
from cfstereo.errors import ConfigError, PipelineError
from cfstereo.synth import random_dot_stereogram

BIG = 1000.0
# Bytes of desk stage 1's float64 (N, H, W) map: 12 planes of 64x128.
DESK_STAGE1_BYTES = 12 * 64 * 128 * 8


def score_from_probs(probs, plane_values):
    """Cost whose softmax reproduces the given per-plane probabilities."""
    probs = np.asarray(probs, dtype=float)
    cost = np.where(probs > 0, -np.log(np.maximum(probs, 1e-300)), BIG)
    planes = HypothesisPlanes.per_pixel(np.asarray(plane_values, dtype=float).reshape(-1, 1, 1))
    return ScoreVolume(cost.reshape(-1, 1, 1), planes, 1)


class TestUncertainty:
    def test_unimodal_distribution(self):
        sv = score_from_probs([0, 0, 1.0, 0, 0], [2, 4, 6, 8, 10])
        from cfstereo.cost_volume import soft_argmin

        d = soft_argmin(sv)
        u = uncertainty(sv, d)
        assert d[0, 0] == 6.0
        assert u[0, 0] == 0.0

    def test_predominantly_unimodal(self):
        sv = score_from_probs([0, 0, 0.8, 0.2, 0], [2, 4, 6, 8, 10])
        from cfstereo.cost_volume import soft_argmin

        d = soft_argmin(sv)
        u = uncertainty(sv, d)
        assert abs(d[0, 0] - 6.4) < 1e-9
        assert abs(u[0, 0] - 0.64) < 1e-9

    def test_variance_by_hand(self):
        sv = score_from_probs([0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3])
        from cfstereo.cost_volume import soft_argmin

        d = soft_argmin(sv)
        u = uncertainty(sv, d)
        assert abs(d[0, 0] - 2.0) < 1e-12
        assert abs(u[0, 0] - 1.0) < 1e-12

    @given(st.floats(-30, 30), st.floats(0.1, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_translation_and_scaling(self, k, s):
        from cfstereo.cost_volume import soft_argmin

        probs = [0.1, 0.5, 0.25, 0.15]
        base = np.array([1.0, 2.5, 4.0, 5.5])
        sv0 = score_from_probs(probs, base)
        d0 = soft_argmin(sv0)
        u0 = uncertainty(sv0, d0)

        sv_k = score_from_probs(probs, base + k)
        dk = soft_argmin(sv_k)
        uk = uncertainty(sv_k, dk)
        assert abs(dk[0, 0] - (d0[0, 0] + k)) < 1e-8
        assert abs(uk[0, 0] - u0[0, 0]) < 1e-8

        sv_s = score_from_probs(probs, base * s)
        ds = soft_argmin(sv_s)
        us = uncertainty(sv_s, ds)
        assert abs(ds[0, 0] - d0[0, 0] * s) < 1e-8
        assert abs(us[0, 0] - u0[0, 0] * s * s) < 1e-6

    def test_shape_mismatch_rejected(self):
        sv = score_from_probs([0.5, 0.5], [0, 1])
        with pytest.raises(ValueError, match="match"):
            uncertainty(sv, np.zeros((2, 2)))


class TestRangeBounds:
    def test_one_sigma_window(self):
        lo, hi = range_bounds(np.array([[6.4]]), np.array([[0.64]]), 0.0, 0.0)
        assert abs(lo[0, 0] - 5.6) < 1e-12
        assert abs(hi[0, 0] - 7.2) < 1e-12

    def test_widened_window(self):
        lo, hi = range_bounds(np.array([[6.4]]), np.array([[0.64]]), 1.0, 1.0)
        assert abs(lo[0, 0] - 3.8) < 1e-12
        assert abs(hi[0, 0] - 9.0) < 1e-12

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            range_bounds(np.zeros((2, 2)), np.full((2, 2), -1.0), 0.0, 0.0)

    def test_containment_algebra(self):
        """|gt - d| <= (alpha+1) sqrt(U) + beta puts gt inside the raw window."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0, 30, (4, 4))
            u = rng.uniform(0, 9, (4, 4))
            alpha = rng.uniform(-1, 3)
            beta = rng.uniform(0, 4)
            half = (alpha + 1) * np.sqrt(u) + beta
            gt = d + rng.uniform(-1, 1, (4, 4)) * half
            lo, hi = range_bounds(d, u, alpha, beta)
            assert np.all(gt >= lo - 1e-12) and np.all(gt <= hi + 1e-12)


class TestNextRange:
    def test_zero_uncertainty_hits_width_floor(self):
        params = RangeParams(min_step=0.25, plane_counts=(16, 12))
        d = np.full((4, 4), 5.0)
        u = np.zeros((4, 4))
        lo, hi = next_range(d, u, params, stage=3, dmax=256)
        floor = 15 * 0.25
        assert np.allclose(hi - lo, floor, atol=1e-9)
        assert np.allclose(0.5 * (lo + hi), 10.0, atol=1e-9)  # doubled estimate

    @pytest.mark.parametrize(
        "change", [{"alpha": (0.0, np.nan)}, {"beta": (np.inf, 0.0)}, {"min_step": np.inf}]
    )
    def test_nonfinite_params_rejected(self, change):
        with pytest.raises(ValueError, match="finite"):
            RangeParams(**change)

    def test_window_shifts_inward_at_borders(self):
        params = RangeParams(min_step=0.5, plane_counts=(16, 12))
        d = np.zeros((2, 2))
        u = np.zeros((2, 2))
        lo, hi = next_range(d, u, params, stage=3, dmax=256)
        assert np.allclose(lo, 0.0)
        assert np.allclose(hi, 7.5)

    def test_monotone_in_alpha_and_beta(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = rng.uniform(0, 120, (6, 6))
            u = rng.uniform(0, 16, (6, 6))
            a1, a2 = sorted(rng.uniform(-1, 3, 2))
            b1, b2 = sorted(rng.uniform(0, 4, 2))
            p_small = RangeParams(alpha=(a1, a1), beta=(b1, b1))
            p_alpha = RangeParams(alpha=(a2, a2), beta=(b1, b1))
            p_beta = RangeParams(alpha=(a1, a1), beta=(b2, b2))
            lo0, hi0 = next_range(d, u, p_small, 3, 256)
            for p in (p_alpha, p_beta):
                lo1, hi1 = next_range(d, u, p, 3, 256)
                assert np.all(lo1 <= lo0 + 1e-9)
                assert np.all(hi1 >= hi0 - 1e-9)


class TestSamplePlanes:
    def test_is_the_one_sampler(self):
        """`cascade` and the package re-export `cost_volume.sample_planes`
        itself, not a wrapper."""
        assert cascade.sample_planes is cost_volume.sample_planes
        assert cfstereo.sample_planes is cost_volume.sample_planes

    def test_hand_spacing(self):
        planes = sample_planes(np.array([[5.6]]), np.array([[7.2]]), 5)
        assert np.allclose(planes.values[:, 0, 0], [5.6, 6.0, 6.4, 6.8, 7.2], atol=1e-9)

    def test_two_planes_are_endpoints(self):
        planes = sample_planes(np.array([[1.25]]), np.array([[9.5]]), 2)
        assert planes.values[0, 0, 0] == 1.25
        assert planes.values[1, 0, 0] == 9.5

    def test_degenerate_equal_bounds(self):
        c = np.full((3, 3), 4.0)
        planes = sample_planes(c, c, 4)
        assert np.all(planes.values == 4.0)

    def test_rejects_single_plane(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_planes(np.zeros((1, 1)), np.ones((1, 1)), 1)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="^window lo must not exceed hi$"):
            sample_planes(np.ones((1, 1)), np.zeros((1, 1)), 4)


class TestPipeline:
    def test_identical_images_near_zero(self):
        scene = random_dot_stereogram(128, 256, "constant:0", 7)
        out = run_pipeline(scene.right, scene.right, desk_config())
        interior = np.abs(out.disparity[16:-16, 16:-16])
        assert np.median(interior) <= 0.5

    def test_constant_scene_accuracy(self):
        scene = random_dot_stereogram(128, 256, "constant:12", 0)
        rep, out = evaluate_scene(scene, desk_config())
        assert rep.median_abs_err <= 1.0
        assert rep.coverage >= 0.95

    def test_stage_disparity_within_plane_bounds(self):
        scene = random_dot_stereogram(128, 256, "slanted:6,20", 2)
        out = run_pipeline(scene.left, scene.right, desk_config())
        for stage in out.stages:
            lo, hi = stage.planes.values[0], stage.planes.values[-1]
            assert np.all(stage.disparity >= lo - 1e-9)
            assert np.all(stage.disparity <= hi + 1e-9)

    def test_two_plane_refinement_monotone(self):
        """bad-2.0 (full-res units) must fall through the cascade; the final
        2x resampling may add a sliver at the disparity jump (it cannot add
        information), so the last step gets a half-point slack."""
        cfg = desk_config()
        good = 0
        for seed in range(20):
            scene = random_dot_stereogram(128, 256, "two-plane:8,24", 100 + seed)
            _, out = evaluate_scene(scene, cfg)
            seq = stagewise_bad2(scene, out)
            stages_ok = all(seq[i + 1] <= seq[i] + 1e-12 for i in range(2))
            final_ok = seq[3] <= seq[2] + 0.005
            good += stages_ok and final_ok
        assert good >= 18

    def test_default_config_past_the_row_width(self):
        """`RunConfig()` (dmax 256) on a 64x64 pair: stage 3 has 32 planes
        on rows 8 px wide, and shifts at or past the width read zero rows."""
        scene = random_dot_stereogram(64, 64, "constant:8", 3)
        out = run_pipeline(scene.left, scene.right, RunConfig())
        assert out.disparity.shape == out.uncertainty.shape == (64, 64)
        for maps in [(out.disparity, out.uncertainty)] + [(s.disparity, s.uncertainty) for s in out.stages]:
            assert all(np.isfinite(m).all() for m in maps)
        assert out.stages[0].window.n == 32

    def test_refinement_plane_counts_are_the_floors_counts(self):
        """Each refinement stage decodes the plane count of its plan entry,
        and its window is at least (n - 1) * min_step wide, the floor
        `next_range` works out from the same count."""
        config = replace(desk_config(), pipeline_dmax=256, cascade_n2=10, cascade_n1=6)
        scene = desk_scene(1)
        stages = cascade.plan(scene.left.shape, config)
        out = run_pipeline(scene.left, scene.right, config)
        assert [entry.n for entry in stages[1:]] == [10, 6]
        for entry, stage in zip(stages[1:], out.stages[1:], strict=True):
            assert stage.window.n == entry.n
            width = stage.window.hi - stage.window.lo
            assert width.min() >= (entry.n - 1) * config.cascade_min_step - 1e-9, entry.scale

    def test_mismatched_shapes_tagged(self):
        with pytest.raises(PipelineError, match=r"^input: image shapes differ: \(64, 64\) vs \(64, 96\)$"):
            run_pipeline(np.zeros((64, 64)), np.zeros((64, 96)), desk_config())

    @pytest.mark.parametrize(
        "image, message",
        [
            pytest.param(np.zeros((64, 64, 3)), "left image must be 2-dimensional", id="rgb"),
            pytest.param(np.full((64, 64), "a"), "could not convert string to float", id="strings"),
        ],
    )
    def test_bad_image_tagged_as_input(self, image, message):
        with pytest.raises(PipelineError, match=f"^input: {message}") as info:
            run_pipeline(image, np.zeros((64, 64)), desk_config())
        assert isinstance(info.value.__cause__, ValueError)

    def test_bad_dims_tagged(self):
        with pytest.raises(PipelineError, match="divisible by 32"):
            run_pipeline(np.zeros((60, 64)), np.zeros((60, 64)), desk_config())

    def test_nonfinite_image_tagged_as_features_stage(self):
        img = np.zeros((64, 64))
        img[3, 3] = np.nan
        with pytest.raises(PipelineError, match="features"):
            run_pipeline(img, np.zeros((64, 64)), desk_config())

    @pytest.mark.parametrize(
        "name, call, tag, budget",
        [
            pytest.param("stream_cost", 1, "stage 3", None, id="stream_cost-1-stage 3"),
            pytest.param("stream_cost", 2, "stage 2", None, id="stream_cost-2-stage 2"),
            pytest.param("stream_cost", 3, "stage 1", None, id="stream_cost-3-stage 1"),
            # the last of stage 1's three bands: its map is 3 budgets of bytes
            pytest.param("stream_cost", 5, "stage 1", DESK_STAGE1_BYTES // 3, id="stream_cost-5-stage 1-band 3"),
            # two per refinement step in next_range, then the output's first
            pytest.param("bilinear_upsample2x", 5, "output", None, id="bilinear_upsample2x-5-output"),
        ],
    )
    def test_failure_inside_a_stage_carries_its_tag(self, monkeypatch, name, call, tag, budget):
        if budget is not None:
            monkeypatch.setattr(cascade, "BAND_BYTES", budget)
        real = getattr(cascade, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(name)
            if len(calls) == call:
                raise ValueError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(cascade, name, failing)
        scene = desk_scene(0)
        with pytest.raises(PipelineError, match=f"^{tag}: injected$") as info:
            run_pipeline(scene.left, scene.right, desk_config())
        assert isinstance(info.value.__cause__, ValueError)

    def test_threads_variable_is_ignored(self, monkeypatch):
        scene = desk_scene(3)
        monkeypatch.delenv("CFSTEREO_THREADS", raising=False)
        want = run_pipeline(scene.left, scene.right, desk_config())
        for value in ("abc", "-1", "2"):
            monkeypatch.setenv("CFSTEREO_THREADS", value)
            out = run_pipeline(scene.left, scene.right, desk_config())
            assert out.disparity.tobytes() == want.disparity.tobytes(), value
            assert out.uncertainty.tobytes() == want.uncertainty.tobytes(), value

    @pytest.mark.parametrize(
        "change", [{"cascade_alpha": (-2.0, -2.0)}, {"fusion_passes": 0}, {"cascade_n1": 1}]
    )
    def test_invalid_config_is_config_error(self, change):
        with pytest.raises(ConfigError):
            run_pipeline(np.zeros((64, 64)), np.zeros((64, 64)), replace(desk_config(), **change))


class TestInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_gain_and_bias_keep_the_bytes(self, seed):
        # features are normalized per level, so a global a*I + b cancels exactly
        scene = desk_scene(seed)
        want = run_pipeline(scene.left, scene.right, desk_config())
        pairs = [(a * scene.left + b, a * scene.right + b) for a, b in ((0.5, 0.2), (0.7, 0.13), (1.3, -0.05))]
        pairs.append((0.7 * scene.left + 0.13, scene.right))
        for left, right in pairs:
            out = run_pipeline(left, right, desk_config())
            assert out.disparity.tobytes() == want.disparity.tobytes()
            assert out.uncertainty.tobytes() == want.uncertainty.tobytes()

    def test_cascade_follows_a_disparity_offset(self):
        """Cropping the right image s columns further on adds s to the truth;
        columns 96 and up keep x - d - s in frame. At s = 0, 32 and 64 the
        means were 0.107, 0.105 and 0.107 px, and bad-2 0.018, 0.013 and 0.012."""
        cfg = replace(desk_config(), pipeline_dmax=128)
        scores = {}
        for shift in (0, 32, 64):
            medians, bad2 = [], []
            for seed in range(12):
                scene = random_dot_stereogram(128, 320, DESK_SPECS[seed % 3], seed)
                out = run_pipeline(scene.left[:, :256], scene.right[:, shift : shift + 256], cfg)
                valid = scene.valid[:, :256].copy()
                valid[:, :96] = False
                err = np.abs(out.disparity - (scene.gt[:, :256] + shift))[valid]
                medians.append(np.median(err))
                bad2.append(np.mean(err > 2.0))
            scores[shift] = np.mean(medians), np.mean(bad2)
        for shift in (32, 64):
            assert abs(scores[shift][0] - scores[0][0]) <= 0.02, scores
            assert abs(scores[shift][1] - scores[0][1]) <= 0.01, scores


def stage_bytes(out):
    """Every array of a PipelineOutput, as bytes, the planes included."""
    maps = [out.disparity, out.uncertainty]
    for stage in out.stages:
        maps += [stage.disparity, stage.uncertainty, stage.window.lo, stage.window.hi, stage.planes.values]
    return [m.tobytes() for m in maps]


class TestStagePlanes:
    """A StageResult keeps the window it decoded, and builds its planes
    afresh each time they are read, keeping none."""

    def test_planes_are_the_windows_and_are_not_kept(self):
        scene = desk_scene(2)
        out = run_pipeline(scene.left, scene.right, desk_config())
        for stage in out.stages:
            want = stage.window.planes().values
            first, second = stage.planes, stage.planes
            assert first is not second
            for planes in (first, second):
                assert planes.values.tobytes() == want.tobytes()
                assert planes.count == stage.window.n
            assert np.array_equal(first.values[0], stage.window.lo)
            assert np.array_equal(first.values[-1], stage.window.hi)
            assert "planes" not in vars(stage)

    def test_stage3_planes_are_the_dense_planes(self):
        scene = desk_scene(2)
        config = desk_config()
        stage3 = run_pipeline(scene.left, scene.right, config).stages[0]
        dense = Window.dense(config.pipeline_dmax, 3, stage3.disparity.shape).planes()
        assert stage3.planes.values.tobytes() == dense.values.tobytes()

    def test_no_stage_samples_its_planes_whole(self, monkeypatch):
        """With small bands, every refinement call decodes a window of a
        band's rows, and stage 3 the whole dense window."""
        scene = desk_scene(2)
        _, stages, windows = banded_run(monkeypatch, scene, desk_config(), 200000)
        # stage 2 (32x64) in 2 bands and stage 1 (64x128) in 4, halo 2 rows
        shapes = [w.lo.shape for w in windows]
        assert shapes == [(16, 32), (18, 64), (18, 64), (18, 128), (20, 128), (20, 128), (18, 128)]
        assert [w.n for w in windows] == [8] + [16] * 2 + [12] * 4
        assert [entry.dense for entry in stages] == [True, False, False]

    def test_a_band_frees_its_decode_before_the_next(self, monkeypatch):
        """A band's score volume (its cost, softmax and window) is gone
        before the next band's is made, so a stage's peak is one band's."""
        decoded = []

        def counted(*args, **kwargs):
            assert all(ref() is None for ref in decoded)
            score = stream_cost(*args, **kwargs)
            decoded.append(weakref.ref(score))
            return score

        monkeypatch.setattr(cascade, "BAND_BYTES", 200000)
        monkeypatch.setattr(cascade, "stream_cost", counted)
        scene = desk_scene(2)
        run_pipeline(scene.left, scene.right, desk_config())
        stages = cascade.plan(scene.left.shape, desk_config())
        assert len(decoded) == sum(len(entry.bands) for entry in stages) == 7

    def test_pipeline_makes_no_plane_array(self, monkeypatch):
        """No stage builds planes (`Window.planes`, `np.linspace`), and
        stage 3 fills its dense windows by slices, with no gather tables
        (`_row_weights`); the refinement stages make tables a plane at a
        time."""
        scene = desk_scene(2)  # the scene's own ramps use np.linspace
        calls = []

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        monkeypatch.setattr(Window, "planes", refused("Window.planes"))
        monkeypatch.setattr(np, "linspace", refused("np.linspace"))
        row_weights = cost_volume._row_weights

        def tables(src, *args):
            calls.append(len(src))
            return row_weights(src, *args)

        def counted(*args, **kwargs):
            calls.append("stream_cost")
            return stream_cost(*args, **kwargs)

        monkeypatch.setattr(cost_volume, "_row_weights", tables)
        monkeypatch.setattr(cascade, "stream_cost", counted)
        run_pipeline(scene.left, scene.right, desk_config())
        first, second, third = (i for i, c in enumerate(calls) if c == "stream_cost")
        # no table in stage 3's call; stage 2 made 16 tables of 32 rows, stage 1 12 of 64
        assert first == 0 and second == 1
        assert calls[second + 1 : third] == [32] * 16
        assert calls[third + 1 :] == [64] * 12

    def test_a_repeated_pair_is_unchanged_by_a_pair_between(self):
        """The pipeline's in-place steps touch only arrays it made: a pair
        run again after another pair gives the same bytes, and the first
        run's arrays are left as they were."""
        config = desk_config()
        a, b = desk_scene(7), desk_scene(8)
        first = run_pipeline(a.left, a.right, config)
        want = stage_bytes(first)
        run_pipeline(b.left, b.right, config)
        again = run_pipeline(a.left, a.right, config)
        assert stage_bytes(again) == want
        assert stage_bytes(first) == want


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is in /proc/self/status on Linux only")
class TestMemory:
    # The pair runs in a fresh process of its own, which reports the peak of
    # its own address space (VmHWM, in KiB). RUSAGE_CHILDREN would report the
    # largest of all the test run's child processes, and the child's own
    # ru_maxrss counts the test process's memory too: exec keeps the
    # high-water mark of the address space the child leaves, which subprocess
    # shares with the test process until then.
    PROGRAM = textwrap.dedent("""
        import sys
        from dataclasses import replace
        from cfstereo.benchmarks import desk_config
        from cfstereo.cascade import run_pipeline
        from cfstereo.synth import random_dot_stereogram
        scene = random_dot_stereogram(int(sys.argv[1]), int(sys.argv[2]), "two-plane:20,90", 5)
        run_pipeline(scene.left, scene.right, replace(desk_config(), pipeline_dmax=256))
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    """)

    def max_rss_mb(self, h, w):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROGRAM, str(h), str(w)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1]) / 1024

    def test_volumes_are_never_whole(self):
        """A 512x1024 pair at dmax 256 stays under 280 MB max RSS. The
        stage volumes, at scales 3, 2 and 1, are never whole; only the fused
        stage's scale-4 and scale-5 volumes are (about 2 MB). Building each
        stage's (C+1)-channel volume whole took 371 MB; streaming the
        channels in blocks took about 190 MB, and decoding stages 2 and 1 in
        row bands as well took about 86 MB, when both whole pyramids were
        made up front. With each stage making its own levels a channel at a
        time it takes about 77 MB. The process starts at about 29 MB and
        making the scene (synth) takes it to 48 MB; the blur chains take it
        to 59 MB, stage 3 to 65 MB, and stage 1, with its level-1 features,
        to 77 MB."""
        peak_mb = self.max_rss_mb(512, 1024)
        assert peak_mb < 280, f"max RSS {peak_mb:.0f} MB"

    def test_refinement_maps_are_never_whole(self):
        """A 1024x2048 pair at dmax 256 stays under 450 MB max RSS. With
        stages 2 and 1 decoded whole it took about 660 MB; in row bands (8
        and 24 bands) it took about 233 MB, set by the two whole pyramids
        made up front. With each stage making its own levels a channel at a
        time it takes about 186 MB. Making the scene (synth) takes the
        process from about 29 to 86 MB, the blur chains to 129 MB, stage 3
        to 155 MB, and stage 1, with its level-1 features, sets the peak."""
        peak_mb = self.max_rss_mb(1024, 2048)
        assert peak_mb < 450, f"max RSS {peak_mb:.0f} MB"


def stage_peaks_mb(monkeypatch, scene, config):
    """run_pipeline's traced peak in each `_stage` block, in MB above what
    was allocated when the block began."""
    peaks = {}
    real = cascade._stage

    @contextmanager
    def traced(tag):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with real(tag):
            yield
        peaks[tag] = (tracemalloc.get_traced_memory()[1] - held) / 1e6

    monkeypatch.setattr(cascade, "_stage", traced)
    tracemalloc.start()
    try:
        run_pipeline(scene.left, scene.right, config)
    finally:
        tracemalloc.stop()
    return peaks


class TestTracedPeak:
    def test_banded_stage1_peak(self, monkeypatch):
        """A 256x512 pair at dmax 256 decodes stage 1 (12 planes of 128x256,
        3 MB of float64 map) in 2 bands. Each band samples only its own
        planes and the softmax makes one array, so the stage's peak above
        held is about 9.9 MB (10.6 MB when stage 1 regularized its
        channels rather than its cost); with the stage's planes sampled
        whole and copied, and a four-array softmax, it was 17.6 MB."""
        scene = random_dot_stereogram(256, 512, "two-plane:20,90", 5)
        peaks = stage_peaks_mb(monkeypatch, scene, replace(desk_config(), pipeline_dmax=256))
        assert peaks["stage 1"] < 12.0, peaks

    def test_fused_stage3_peak(self, monkeypatch):
        """A 512x1024 pair at dmax 256 fuses stage 3 (32 planes of 64x128)
        with its whole scale-4 and scale-5 volumes (1.8 and 0.2 MB): the
        stage's peak above held is about 12.2 MB, and 10.4 MB when those
        volumes were streamed a channel block at a time as well."""
        scene = random_dot_stereogram(512, 1024, "two-plane:20,90", 5)
        peaks = stage_peaks_mb(monkeypatch, scene, replace(desk_config(), pipeline_dmax=256))
        assert peaks["stage 3"] < 14.0, peaks


    def test_largest_stage_peak_is_stage1_with_its_level(self, monkeypatch):
        """A 512x1024 pair at dmax 256: every stage makes the levels it reads,
        a channel at a time, and drops them once decoded, so the largest
        stage peak above held is stage 1's, about 24.2 MB, of which its
        level-1 features are 13.6 MB. With both whole pyramids made up
        front from whole float64 stacks, the features' 31.6 MB was the
        largest."""
        scene = random_dot_stereogram(512, 1024, "two-plane:20,90", 5)
        peaks = stage_peaks_mb(monkeypatch, scene, replace(desk_config(), pipeline_dmax=256))
        assert max(peaks.values()) < 26.0, peaks


class TestLevels:
    def test_each_stage_makes_its_levels_and_drops_them(self, monkeypatch):
        """Stage 3 makes levels 4 and 5, builds their fused volumes and
        drops them, then makes level 3; stages 2 and 1 make levels 2 and 1.
        Each level is made once per image, the left image's first, and when
        a level is made, the only other one alive is the left image's of the
        same scale. None is alive while a stage works out its window or the
        output is upsampled."""
        scene = desk_scene(2)
        h, w = scene.left.shape
        made = []
        real_level, real_upsample = cascade.level_features, cascade.bilinear_upsample2x

        def alive():
            return [(scale, k) for scale, k, ref in made if ref() is not None]

        def level(image, *args):
            scale = {(h >> s, w >> s): s for s in range(1, 6)}[image.shape]
            k = sum(1 for s, _, _ in made if s == scale)
            assert alive() == ([(scale, 0)] if k else []), (scale, k)
            out = real_level(image, *args)
            made.append((scale, k, weakref.ref(out)))
            return out

        upsampled = []

        def upsample(grid):
            upsampled.append(alive())
            return real_upsample(grid)

        monkeypatch.setattr(cascade, "level_features", level)
        monkeypatch.setattr(cascade, "bilinear_upsample2x", upsample)
        run_pipeline(scene.left, scene.right, desk_config())
        assert [(scale, k) for scale, k, _ in made] == [(s, k) for s in (4, 5, 3, 2, 1) for k in (0, 1)]
        # two upsamples per refinement step in next_range, then the output's two
        assert upsampled == [[]] * 6


def banded_run(monkeypatch, scene, config, budget):
    """run_pipeline with `budget` as the stages' band byte budget, the plan
    it ran, and the window of each band it decoded, in decode order."""
    windows = []

    def decoded(score):
        windows.append(score.window)
        return soft_argmin(score)

    with monkeypatch.context() as patch:
        patch.setattr(cascade, "BAND_BYTES", budget)
        patch.setattr(cascade, "soft_argmin", decoded)
        stages = cascade.plan(scene.left.shape, config)
        return run_pipeline(scene.left, scene.right, config), stages, windows


def assert_band_windows(stages, windows, want):
    """Every planned band was decoded, in order, and each band's window is
    its rows, halo included, of the window of the whole stage in `want`."""
    bands = [(entry, band) for entry in stages for band in entry.bands]
    for (entry, band), win in zip(bands, windows, strict=True):
        stage = want.stages[3 - entry.scale]
        rows = slice(max(0, band.a - entry.halo), min(entry.h, band.b + entry.halo))
        assert (band.a0, band.b0) == (rows.start, rows.stop), (entry.scale, band)
        assert win.n == stage.window.n == entry.n, (entry.scale, band)
        assert win.lo.tobytes() == stage.window.lo[rows].tobytes(), (entry.scale, band)
        assert win.hi.tobytes() == stage.window.hi[rows].tobytes(), (entry.scale, band)


def assert_same_bytes(got, want):
    for a, b in zip(got.stages, want.stages, strict=True):
        for name in ("disparity", "uncertainty"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.scale, name)
        for name in ("lo", "hi"):
            assert getattr(a.window, name).tobytes() == getattr(b.window, name).tobytes(), (a.scale, name)
        assert a.window.n == b.window.n
        assert a.planes.values.tobytes() == b.planes.values.tobytes(), a.scale
    for name in ("disparity", "uncertainty"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestBands:
    """Every stage not fused with coarser scales (stages 2 and 1, and stage 3
    with fusion off) decodes in the row bands and halo of its plan; every
    band count, with any channel block size, gives the bytes of the
    one-band run at the default block size, whether the stage regularizes
    its channels (stages 3 and 2) or its cost (stage 1)."""

    WHOLE = 1 << 62
    whole_runs: dict = {}  # one-band runs, shared by the budgets of one config

    @pytest.mark.parametrize("h, count", [(1, 1), (7, 1), (7, 3), (64, 40), (32, 32), (256, 3)])
    def test_bands_split_rows_evenly(self, h, count):
        bands = cascade._bands(h, count)
        sizes = [b - a for a, b in bands]
        assert len(bands) == count and bands[0][0] == 0 and bands[-1][1] == h
        assert all(p[1] == q[0] for p, q in zip(bands, bands[1:]))
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1

    # Desk stage 3 is 8 planes of 16x32 (32 KiB), stage 2 16 of 32x64 (256 KiB)
    # and stage 1 12 of 64x128 (768 KiB). `bands` counts each stage's bands,
    # stage 3's with fusion off: fused, it is one band.
    @pytest.mark.parametrize(
        "budget, bands",
        [
            # every band one row, shorter than the desk halo of 2 rows
            pytest.param(1, (16, 32, 64), id="one-row"),
            # stage 3: 2 bands of 8 rows; stage 2: 4 of 3 rows and 10 of 2;
            # stage 1: 24 of 2 and 16 of 1
            pytest.param(20000, (2, 14, 40), id="last-band-one-row"),
            pytest.param(200000, (1, 2, 4), id="few-bands"),
            # stage 1, which regularizes its cost, in 3 bands of 21-22 rows
            pytest.param(300000, (1, 1, 3), id="three-bands"),
        ],
    )
    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({}, id="desk"),
            pytest.param({"fusion_passes": 2, "fusion_smooth_radius": (1, 1, 1)}, id="two-pass"),
            pytest.param({"fusion_smooth_radius": (0, 2, 0)}, id="no-y"),
            pytest.param({"fusion_enabled": False}, id="fusion-off"),
        ],
    )
    # stream_cost's default channel blocks, and one channel per block
    @pytest.mark.parametrize("block", [None, 1], ids=["block-default", "block-one"])
    def test_banded_decode_is_exact(self, monkeypatch, budget, bands, change, block):
        scene = desk_scene(6)
        config = replace(desk_config(), **change)
        key = tuple(sorted(change.items()))
        if key not in self.whole_runs:
            self.whole_runs[key] = banded_run(monkeypatch, scene, config, self.WHOLE)
        want, whole_stages, whole_windows = self.whole_runs[key]
        if block is not None:
            monkeypatch.setattr(cost_volume, "BLOCK_BYTES", block)
        got, stages, windows = banded_run(monkeypatch, scene, config, budget)
        assert [len(entry.bands) for entry in whole_stages] == [1, 1, 1]
        counts = [bands[0] if not config.fusion_enabled else 1, bands[1], bands[2]]
        assert [len(entry.bands) for entry in stages] == counts
        assert_same_bytes(got, want)
        assert_band_windows(whole_stages, whole_windows, want)
        assert_band_windows(stages, windows, want)

    def test_large_pair_splits_at_the_default_budget(self, monkeypatch):
        """512x1024 at dmax 256 and 2 MiB bands: stage 2 (16 x 128x256, 4 MiB)
        is two bands and stage 1 (12 x 256x512, 12 MiB) is six."""
        assert cascade.BAND_BYTES == 2 << 20
        scene = random_dot_stereogram(512, 1024, "two-plane:20,90", 5)
        config = replace(desk_config(), pipeline_dmax=256)
        got, stages, windows = banded_run(monkeypatch, scene, config, cascade.BAND_BYTES)
        want, whole_stages, _ = banded_run(monkeypatch, scene, config, self.WHOLE)
        assert [len(entry.bands) for entry in stages] == [1, 2, 6]
        assert [len(entry.bands) for entry in whole_stages] == [1, 1, 1]
        assert [entry.halo for entry in stages] == [0, 2, 2]
        assert_same_bytes(got, want)
        assert_band_windows(stages, windows, want)


class TestPlan:
    """`cascade.plan` works out every stage's tiling from the shape and the
    config, and the pipeline decodes exactly the plan."""

    @pytest.mark.parametrize(
        "h, w, dmax, counts",
        [(128, 256, 64, [1, 1, 1]), (256, 512, 256, [1, 1, 2]), (512, 1024, 256, [1, 2, 6])],
        ids=["desk", "mid", "large"],
    )
    def test_band_counts_are_the_runs_stream_cost_calls(self, monkeypatch, h, w, dmax, counts):
        """Each `stream_cost` call works out its spans and blocks once
        (`cost_volume.tiling`); one run's calls are the plan's bands, stage
        by stage, with the plan's spans and blocks."""
        config = replace(desk_config(), pipeline_dmax=dmax)
        scene = desk_scene(0) if h == 128 else random_dot_stereogram(h, w, "two-plane:20,90", 5)
        tiling, calls = cost_volume.tiling, []

        def counted(*args):
            calls.append(tiling(*args))
            return calls[-1]

        monkeypatch.setattr(cost_volume, "tiling", counted)
        run_pipeline(scene.left, scene.right, config)
        stages = cascade.plan((h, w), config)
        assert [len(entry.bands) for entry in stages] == counts
        assert calls == [band.tiles for entry in stages for band in entry.bands]

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({}, id="desk"),
            pytest.param({"fusion_passes": 2, "fusion_smooth_radius": (1, 2, 3)}, id="two-pass"),
            pytest.param({"fusion_enabled": False, "cascade_n1": 40}, id="fusion-off"),
            pytest.param({"features_census_radius": 3, "pipeline_dmax": 256}, id="census-3"),
        ],
    )
    @pytest.mark.parametrize("shape", [(64, 64), (128, 256), (512, 1024)])
    def test_entries(self, change, shape):
        config = replace(desk_config(), **change)
        stages = cascade.plan(shape, config)
        r_plane, _, r_y = config.fusion_smooth_radius
        assert [entry.scale for entry in stages] == [3, 2, 1]
        assert [entry.n for entry in stages] == [config.pipeline_dmax >> 3, config.cascade_n2, config.cascade_n1]
        assert [entry.dense for entry in stages] == [True, False, False]
        assert [entry.fused for entry in stages] == [config.fusion_enabled, False, False]
        assert [entry.reduce_first for entry in stages] == [False, False, True]
        for entry in stages:
            assert (entry.h, entry.w) == (shape[0] >> entry.scale, shape[1] >> entry.scale)
            rows = [(band.a, band.b) for band in entry.bands]
            if entry.fused:
                assert (entry.halo, entry.plane_reach, rows) == (0, None, [(0, entry.h)])
            else:
                assert (entry.halo, entry.plane_reach) == (config.fusion_passes * r_y, config.fusion_passes * r_plane)
                count = -(-entry.n * entry.h * entry.w * 8 // cascade.BAND_BYTES)
                assert rows == cascade._bands(entry.h, min(entry.h, count))
            for band in entry.bands:
                assert (band.a0, band.b0) == (max(0, band.a - entry.halo), min(entry.h, band.b + entry.halo))
                assert sum(planes for planes, _ in band.tiles) == entry.n
                assert all(block >= 1 for _, block in band.tiles)
                assert len(band.tiles) == 1 or entry.plane_reach == 0

    def test_bad_size_is_rejected(self):
        with pytest.raises(ValueError, match=r"^image dims \(96, 80\) must be divisible by 32"):
            cascade.plan((96, 80), desk_config())

    @pytest.mark.parametrize("h, w, dmax", [(128, 256, 64), (256, 512, 256)], ids=["desk", "mid"])
    def test_only_stage1_regularizes_its_cost(self, monkeypatch, h, w, dmax):
        """With stage 1's `reduce_first` cleared, so that every stage
        regularizes its channels, stages 3 and 2 keep their bytes; only
        stage 1 and the output move."""
        config = replace(desk_config(), pipeline_dmax=dmax)
        scene = desk_scene(0) if h == 128 else random_dot_stereogram(h, w, "two-plane:20,90", 5)
        got = run_pipeline(scene.left, scene.right, config)
        planned = cascade.plan

        def channels_everywhere(shape, cfg):
            entries = planned(shape, cfg)
            return tuple(replace(entry, reduce_first=False) if entry.scale == 1 else entry for entry in entries)

        monkeypatch.setattr(cascade, "plan", channels_everywhere)
        want = run_pipeline(scene.left, scene.right, config)
        assert [entry.reduce_first for entry in channels_everywhere((h, w), config)] == [False] * 3
        for a, b in zip(got.stages[:2], want.stages[:2], strict=True):
            for name in ("disparity", "uncertainty"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.scale, name)
            for name in ("lo", "hi"):
                assert getattr(a.window, name).tobytes() == getattr(b.window, name).tobytes(), (a.scale, name)
        assert got.stages[2].window.lo.tobytes() == want.stages[2].window.lo.tobytes()
        assert got.stages[2].disparity.tobytes() != want.stages[2].disparity.tobytes()
        assert got.disparity.tobytes() != want.disparity.tobytes()


class TestPrecision:
    """The pipeline's volumes are float32; its costs, planes and maps are float64."""

    def test_float32_image_matches_its_float64_copy(self):
        scene = desk_scene(4)
        left, right = scene.left.astype(np.float32), scene.right.astype(np.float32)
        got = run_pipeline(left, right, desk_config())
        want = run_pipeline(left.astype(np.float64), right.astype(np.float64), desk_config())
        for a, b in zip(got.stages, want.stages):
            for name in ("disparity", "uncertainty"):
                assert getattr(a, name).dtype == np.float64
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert a.planes.values.dtype == np.float64
            assert a.planes.values.tobytes() == b.planes.values.tobytes()
        for name in ("disparity", "uncertainty"):
            assert getattr(got, name).dtype == np.float64
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("fusion", [True, False])
    def test_volumes_float32_costs_and_maps_float64(self, monkeypatch, fusion):
        volumes, costs, fused = [], [], []

        def watch(fn, record):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                record(args, result)
                return result

            monkeypatch.setattr(cascade, fn.__name__, wrapper)

        watch(cascade.aggregate, lambda args, out: volumes.extend([args[0], out]))
        watch(cascade.fuse_volumes, lambda args, out: (volumes.extend([*args[:3], out]), fused.append(out)))
        watch(cascade.stream_cost, lambda args, out: costs.append(out.cost))
        scene = desk_scene(5)
        out = run_pipeline(scene.left, scene.right, replace(desk_config(), fusion_enabled=fusion))
        # one cost per stage; the regularizers' inputs and outputs, however
        # many channel blocks the volumes are streamed in
        assert len(costs) == 3
        assert bool(fused) == fusion
        assert volumes and all(v.dtype == np.float32 for v in volumes)
        maps = costs + [out.disparity, out.uncertainty]
        for stage in out.stages:
            maps += [stage.disparity, stage.uncertainty, stage.planes.values]
        assert all(m.dtype == np.float64 for m in maps)

    def test_float32_within_stated_tolerance_of_float64(self, monkeypatch):
        """README's tolerance: 1e-2 px in disparity and 1e-3*max(1, |u|) in
        uncertainty against float64 pyramid levels, over the digest's runs.
        The levels' dtype is `cascade.FEATURE_DTYPE`; each run records the
        dtype of the features its stages stream, so the float64 runs are
        seen to read float64 levels and the float32 runs float32 ones."""
        path = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
        spec = importlib.util.spec_from_file_location("output_digest", path)
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        cases = list(digest.cases())
        streamed = []
        stream = cascade.stream_cost

        def recording(left, right, *args):
            streamed.extend([left.dtype, right.dtype])
            return stream(left, right, *args)

        monkeypatch.setattr(cascade, "stream_cost", recording)
        got = [run_pipeline(scene.left, scene.right, cfg) for scene, cfg in cases]
        assert streamed and set(streamed) == {np.dtype(np.float32)}
        streamed.clear()
        monkeypatch.setattr(cascade, "FEATURE_DTYPE", np.float64)
        for (scene, cfg), a in zip(cases, got):
            b = run_pipeline(scene.left, scene.right, cfg)
            assert np.abs(a.disparity - b.disparity).max() <= 1e-2
            assert (np.abs(a.uncertainty - b.uncertainty) / np.maximum(1.0, np.abs(b.uncertainty))).max() <= 1e-3
        assert streamed and set(streamed) == {np.dtype(np.float64)}
