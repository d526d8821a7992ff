"""Smoke test for the benchmark itself (about a minute on 2 cores):

    python3 -m pytest perfbench/test_smoke.py

A tiny-size pass over every workload must report every metric that
BENCHMARK.json declares, with its unit, and the output check must trip on
outputs this test corrupts itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import check_output, check_scores, make_scene, score_pair  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from cfstereo import run_pipeline  # noqa: E402
from cfstereo.benchmarks import desk_config  # noqa: E402
from cfstereo.cost_volume import HypothesisPlanes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def desk_pairs():
    """A clean and a noisy desk pair with their pipeline outputs."""
    spec = WORKLOADS["desk"]
    pairs = []
    for k in (0, 1):
        scene = make_scene("desk", spec["shape"], 5, k)
        pairs.append((k, scene, run_pipeline(scene.left, scene.right, desk_config())))
    return pairs


def _problems(k, scene, disp, unc, planes):
    problems = check_output(disp, unc, scene.left.shape, 64)
    if problems:
        return problems
    return check_scores("desk", k, score_pair(scene, disp, unc, planes))


def test_check_passes_on_real_outputs(desk_pairs):
    for k, scene, out in desk_pairs:
        assert _problems(k, scene, out.disparity, out.uncertainty, out.stages[-1].planes) == []


def test_check_trips_on_corrupted_outputs(desk_pairs):
    (k, scene, out), (kn, noisy, nout) = desk_pairs
    d, u, planes = out.disparity, out.uncertainty, out.stages[-1].planes
    nan = d.copy()
    nan[5, 7] = np.nan
    negative = u.copy()
    negative[3, 3] = -1.0
    too_far = d.copy()
    too_far[0, 0] = 64.0
    shifted_planes = HypothesisPlanes(planes.values + 10.0)
    cases = {
        "non-finite disparity": (nan, u, planes),
        "negative uncertainty": (d, negative, planes),
        "wrong shape": (d[:, :-32], u[:, :-32], planes),
        "disparity >= dmax": (too_far, u, planes),
        "median error > 1 px": (d + 5.0, u, planes),
        "stage-1 coverage < 0.95": (d, u, shifted_planes),
    }
    for label, (disp, unc, pl) in cases.items():
        assert _problems(k, scene, disp, unc, pl), label

    # Noisy pair: keep only the outliers, so filtering raises D1.
    err = np.abs(nout.disparity - noisy.gt)
    keep_bad = np.where(err > 3.0, 0.0, 100.0)
    assert _problems(kn, noisy, nout.disparity, keep_bad, nout.stages[-1].planes)


def test_failed_pairs_are_counted(tmp_path, monkeypatch):
    import worker

    import cfstereo.cli

    # setup() points cli.run_pipeline at its capture hook; undo that afterwards.
    monkeypatch.setattr(cfstereo.cli, "run_pipeline", cfstereo.cli.run_pipeline)

    class Args:
        workload, seed, tiny, workdir = "desk", 3, True, str(tmp_path)

    wl, _ = worker.setup(Args)
    real = wl.run_pair

    def corrupt_pair_one(k, scene):
        disp, unc, out, seconds = real(k, scene)
        return (disp + np.nan if k == 1 else disp), unc, out, seconds

    wl.run_pair = corrupt_pair_one
    loop = worker.run_loop(wl, seconds=0.0, min_pairs=3)
    assert loop["attempted"] == 3
    assert [f["pair"] for f in loop["failures"]] == [1]
    assert all(m["pair"] != 1 for m in loop["misses"])
    assert [p["pair"] for p in loop["pairs"] if "scores" in p] == [0, 2]
