import numpy as np

from cfstereo import benchmarks
from cfstereo.benchmarks import ORACLE_RADIUS, desk_config, desk_scene, evaluate_scene, interior_mask
from cfstereo.metrics import bad_tau
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
