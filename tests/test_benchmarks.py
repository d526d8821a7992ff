import numpy as np

from cfstereo import benchmarks
from cfstereo.benchmarks import ORACLE_RADIUS, desk_config, desk_scene, evaluate_scene, interior_mask
from cfstereo.cost_volume import Window
from cfstereo.metrics import bad_tau, coverage_rate, downsample_gt
from cfstereo.synth import block_match_oracle


def test_oracle_runs_only_when_read(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return block_match_oracle(*args)

    monkeypatch.setattr(benchmarks, "block_match_oracle", counted)
    scene = desk_scene(1)
    cfg = desk_config()
    rep, _ = evaluate_scene(scene, cfg)
    assert calls == []

    oracle = block_match_oracle(scene.left, scene.right, cfg.pipeline_dmax, ORACLE_RADIUS)
    eager = bad_tau(oracle, np.where(interior_mask(scene), scene.gt, 0.0), 2.0)
    assert rep.oracle_bad2 == eager
    assert rep.oracle_bad2 == eager
    assert len(calls) == 1


def test_coverage_reads_the_stage_window_without_building_planes(monkeypatch):
    """evaluate_scene takes stage 1's coverage from its window's bounds: it
    and the pipeline build no planes, and the coverage is that of the
    stage's planes."""
    calls = []

    def counted(window):
        calls.append(window)
        return planes(window)

    planes = Window.planes
    monkeypatch.setattr(Window, "planes", counted)
    scene, cfg = desk_scene(0), desk_config()
    rep, out = evaluate_scene(scene, cfg)
    assert calls == []
    stage1 = out.stages[-1]
    gt_half = downsample_gt(np.where(scene.valid, scene.gt, 0.0), 2)
    assert rep.coverage == coverage_rate(gt_half, stage1.planes)
    assert calls == [stage1.window]
