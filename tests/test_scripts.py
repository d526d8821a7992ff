"""The experiment scripts run end to end on one seed and print their summary."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, summary",
    [
        ("desk_benchmark.py", "worst median="),
        ("uncertainty_filter_study.py", "mean relative D1 reduction:"),
    ],
)
def test_script_runs(script, summary):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--seeds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "seed=  0" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith(summary), proc.stdout
