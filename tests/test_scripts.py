"""The scripts run end to end: the desk study on one seed prints both
summaries, and the output digest prints the recorded digest."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("sigma", ["0", "0.05"])
def test_script_runs(sigma):
    proc = run_script("desk_benchmark.py", "--seeds", "1", "--sigma", sigma)
    assert proc.returncode == 0, proc.stderr
    assert "seed=  0" in proc.stdout
    *_, worst, reduction = proc.stdout.splitlines()
    assert worst.startswith("worst median="), proc.stdout
    assert reduction.startswith("mean relative D1 reduction:"), proc.stdout


# The digest of the current outputs. A change that moves them by design
# updates this and gives the old and new values in CHANGES.md.
OUTPUT_DIGEST = "522144daf11911861351913aae40775082450d6f917d54afefbd386be8f8ff35"


def test_output_digest_runs():
    """The byte-identity gate: one SHA-256 over all 61 runs' output maps,
    equal to the recorded one."""
    proc = run_script("output_digest.py")
    assert proc.returncode == 0, proc.stderr
    match = re.fullmatch(r"([0-9a-f]{64})  \(61 runs, [0-9.]+ s\)\n", proc.stdout)
    assert match, proc.stdout
    assert match[1] == OUTPUT_DIGEST
