"""The scripts run end to end: the desk study on one seed prints both
summaries, and the output digest prints the digest recorded for the
dispatch target of NumPy's float64 exp kernel."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.lib.introspect import opt_func_info

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args, env=None):
    """Run a script with this tree's `src` on the path and `env` added to
    this process's environment."""
    env = dict(os.environ, **(env or {}))
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


# The digest of the current outputs, by the dispatch target of NumPy's
# float64 exp kernel: the decode's softmax is the one step whose bytes
# differ between the AVX512 and AVX2 kernels, so each target has its own
# value, checked byte for byte. A change that moves the outputs by design
# updates every value and gives the old and new ones in CHANGES.md.
OUTPUT_DIGESTS = {
    "X86_V4": "522144daf11911861351913aae40775082450d6f917d54afefbd386be8f8ff35",
    "X86_V3": "1076281d2be2e86b5fffe55825ef89782f0fdbbad6563e444adebc578b97437d",
    "baseline(X86_V2)": "1076281d2be2e86b5fffe55825ef89782f0fdbbad6563e444adebc578b97437d",
}


def exp_target():
    """The target NumPy dispatches float64 exp to in this process."""
    return opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]


def printed_digest(proc):
    assert proc.returncode == 0, proc.stderr
    match = re.fullmatch(r"([0-9a-f]{64})  \(61 runs, [0-9.]+ s\)\n", proc.stdout)
    assert match, proc.stdout
    return match[1]


def test_output_digest_runs():
    """The byte-identity gate: one SHA-256 over all 61 runs' output maps,
    equal to the one recorded for this host's exp target."""
    target = exp_target()
    assert target in OUTPUT_DIGESTS, f"no output digest recorded for float64 exp target {target}"
    assert printed_digest(run_script("output_digest.py")) == OUTPUT_DIGESTS[target]


@pytest.mark.skipif(exp_target() != "X86_V4", reason="float64 exp does not dispatch to X86_V4 here")
def test_output_digest_without_avx512():
    """With the AVX512 kernels off in the script's process only, which
    leaves X86_V3, its digest is the one recorded for that target."""
    proc = run_script("output_digest.py", env={"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
    assert printed_digest(proc) == OUTPUT_DIGESTS["X86_V3"]
