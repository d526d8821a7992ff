import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstereo import cascade
from cfstereo.benchmarks import desk_config, desk_scene, evaluate_scene, stagewise_bad2
from cfstereo.cascade import (
    RangeParams,
    next_range,
    range_bounds,
    run_pipeline,
    sample_planes,
    uncertainty,
)
from cfstereo.cost_volume import HypothesisPlanes, ScoreVolume
from cfstereo.errors import ConfigError, PipelineError
from cfstereo.synth import random_dot_stereogram

BIG = 1000.0


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
        base = np.array([1.0, 2.0, 4.0, 7.0])
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
        with pytest.raises(ValueError, match="non-decreasing"):
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

    def test_mismatched_shapes_tagged(self):
        with pytest.raises(PipelineError, match="input"):
            run_pipeline(np.zeros((64, 64)), np.zeros((64, 96)), desk_config())

    def test_bad_dims_tagged(self):
        with pytest.raises(PipelineError, match="divisible by 32"):
            run_pipeline(np.zeros((60, 64)), np.zeros((60, 64)), desk_config())

    def test_nonfinite_image_tagged_as_features_stage(self):
        img = np.zeros((64, 64))
        img[3, 3] = np.nan
        with pytest.raises(PipelineError, match="features"):
            run_pipeline(img, np.zeros((64, 64)), desk_config())

    @pytest.mark.parametrize(
        "name, call, tag",
        [
            ("stream_cost", 1, "stage 3"),
            ("stream_cost", 2, "stage 2"),
            ("stream_cost", 3, "stage 1"),
            # two per refinement step in next_range, then the output's first
            ("bilinear_upsample2x", 5, "output"),
        ],
    )
    def test_failure_inside_a_stage_carries_its_tag(self, monkeypatch, name, call, tag):
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


class TestMemory:
    # The pair runs in a fresh process of its own: RUSAGE_CHILDREN would
    # report the largest of all the test run's child processes.
    PROGRAM = textwrap.dedent("""
        import resource
        from dataclasses import replace
        from cfstereo.benchmarks import desk_config
        from cfstereo.cascade import run_pipeline
        from cfstereo.synth import random_dot_stereogram
        scene = random_dot_stereogram(512, 1024, "two-plane:20,90", 5)
        run_pipeline(scene.left, scene.right, replace(desk_config(), pipeline_dmax=256))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
    def test_volumes_are_never_whole(self):
        """A 512x1024 pair at dmax 256 stays under 280 MB max RSS. Building
        each stage's (C+1)-channel volume whole took 371 MB; streaming the
        channels in blocks takes about 190 MB."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROGRAM], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout.split()[-1]) / 1024
        assert peak_mb < 280, f"max RSS {peak_mb:.0f} MB"


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
