#!/usr/bin/env python3
"""One benchmark process; run.py starts a fresh one per measurement.

Modes:
  setup    import cfstereo, load or validate the config, run one untimed
           warm-up pair, and report how long that took
  measure  setup, then match pairs one at a time for --seconds (and at least
           the workload's accuracy pairs), checking every output
  trace    setup with the warm-up pair traced for memory peaks, then
           alternate traced and untraced pairs for --seconds

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from workloads import TINY_SHAPE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DESK_POOL = 48  # desk input files written at setup; pairs cycle through them

# Per-layer self times reported on every workload. run_rows calls the volume
# fill closure itself, so volume construction shows as run_rows self time and
# build_*_volume keeps only allocation and plane setup.
SELF_S_LAYERS = (
    "fusion.aggregate",
    "fusion.fuse_volumes",
    "cost_volume.build_sparse_volume",
    "cost_volume.build_dense_volume",
    "parallel.run_rows",
    "cost_volume.reduce_to_cost",
    "cost_volume.soft_argmin",
    "cost_volume.uncertainty",
    "tensor_ops.box_smooth_axis",
    "tensor_ops.trilinear_upsample2x",
    "tensor_ops.avgpool_volume",
    "tensor_ops.softmax_along_planes",
    "tensor_ops.bilinear_upsample2x",
    "features.build_pyramid",
)
# Layers only the desk (CLI) path runs. Every metric BENCHMARK.json declares
# must appear on every workload, so these go to the run report only.
DESK_SELF_S_LAYERS = {
    "io_formats.read_image": "io_formats.read_image",
    "io_formats.write_pfm": "io_formats.write_pfm",
    "config.load_config": "config.load_config",
    "cli.match": "cli.cli_main",
}
ACCURACY_UNITS = {
    "bad2": "fraction",
    "d1_all": "fraction",
    "avg_error_px": "px",
    "median_err_px": "px",
    "d1_kept": "fraction",
    "kept_fraction": "fraction",
}


class Workload:
    """Inputs, config and the pair call for one workload in this process."""

    def __init__(self, name: str, shape, seed: int, workdir: Path):
        import cfstereo.cascade
        import cfstereo.cli
        import cfstereo.config
        import cfstereo.io_formats

        self.name = name
        self.spec = WORKLOADS[name]
        self.shape = tuple(shape)
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.cascade = cfstereo.cascade
        self.cli = cfstereo.cli
        self.cfgmod = cfstereo.config
        self.io = cfstereo.io_formats
        self.config = None
        self.last_output = None

    def scene(self, k: int):
        from checks import make_scene

        j = k % DESK_POOL if self.name == "desk" else k
        return make_scene(self.name, self.shape, self.seed, j)

    def prepare_inputs(self) -> None:
        """Desk: write the PGM pool and desk.cfg the CLI reads (untimed)."""
        if self.spec["via"] != "cli":
            return
        from cfstereo.benchmarks import desk_config

        for k in range(DESK_POOL):
            scene = self.scene(k)
            self.io.write_pgm(self._path(f"L{k}.pgm"), scene.left, maxval=65535)
            self.io.write_pgm(self._path(f"R{k}.pgm"), scene.right, maxval=65535)
        self._path("desk.cfg").write_text(self.cfgmod.format_config(desk_config()), encoding="ascii")
        # Keep a handle on the pipeline output the CLI computes, for the
        # stage-1 coverage check; the call itself goes to cascade unchanged.
        self.cli.run_pipeline = self._capture

    def load_config(self) -> None:
        from cfstereo.benchmarks import desk_config

        if self.spec["via"] == "cli":
            self.config = self.cfgmod.load_config(self._path("desk.cfg"))
        else:
            # desk-tuned cost, fusion and cascade settings at the default
            # search range; the shipped RunConfig() weights give bad2 = 1.0
            self.config = self.cfgmod.validate_config(replace(desk_config(), pipeline_dmax=256))

    def run_pair(self, k: int, scene):
        """Match pair k; returns (disparity, uncertainty, PipelineOutput, seconds)."""
        if self.spec["via"] == "cli":
            j = k % DESK_POOL
            disp_path, unc_path = self._path("out/disp.pfm"), self._path("out/unc.pfm")
            argv = [
                "match",
                "--left", str(self._path(f"L{j}.pgm")),
                "--right", str(self._path(f"R{j}.pgm")),
                "--config", str(self._path("desk.cfg")),
                "--out-disp", str(disp_path),
                "--out-unc", str(unc_path),
            ]
            t = time.perf_counter()
            code = self.cli.cli_main(argv)
            seconds = time.perf_counter() - t
            if code != 0:
                raise RuntimeError(f"cfstereo match exited with code {code}")
            return self.io.read_pfm(disp_path), self.io.read_pfm(unc_path), self.last_output, seconds
        t = time.perf_counter()
        out = self.cascade.run_pipeline(scene.left, scene.right, self.config)
        seconds = time.perf_counter() - t
        return out.disparity, out.uncertainty, out, seconds

    def _capture(self, left, right, config):
        self.last_output = self.cascade.run_pipeline(left, right, config)
        return self.last_output

    def _path(self, name: str) -> Path:
        return self.workdir / name


def setup(args, tracer=None) -> tuple[Workload, dict]:
    """Import, config, one warm-up pair; input generation is not timed.

    With a tracer the warm-up pair is traced with memory peaks on (pair -1).
    """
    t0 = time.perf_counter()
    import cfstereo

    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if Path(cfstereo.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cfstereo was imported from {cfstereo.__file__}, not from {src}")
    shape = TINY_SHAPE if args.tiny else WORKLOADS[args.workload]["shape"]
    wl = Workload(args.workload, shape, args.seed, Path(args.workdir))
    wl.prepare_inputs()
    t = time.perf_counter()
    wl.load_config()
    config_s = time.perf_counter() - t
    scene = wl.scene(0)
    if tracer is not None:
        tracer.pair = -1
        tracer.install(memory=True)
    try:
        _, _, _, warmup_s = wl.run_pair(0, scene)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wl, {
        "setup_s": import_s + config_s + warmup_s,
        "import_s": import_s,
        "config_s": config_s,
        "warmup_s": warmup_s,
    }


def reference_s(shape) -> float:
    """Seconds for a fixed numpy kernel owned by the benchmark, never by cfstereo.

    The shared host's speed drifts by +-20% over minutes, moving every pair
    of a run alike. The kernel does the kind of work the matcher's hot path
    does (fresh allocation, edge-clamped gathers along an axis,
    accumulation) on a volume that scales with the image, so timed right
    before and after each pair it moves with the host and the ratio cancels
    most of the drift. Changes to cfstereo leave it alone.
    """
    import numpy as np

    h, w = shape
    t = time.perf_counter()
    vol = np.empty((8, 12, h // 2, w // 2))
    vol[...] = np.arange(w // 2) * 1e-3
    idx = np.arange(w // 2)
    acc = np.zeros_like(vol)
    for off in range(-2, 3):
        acc += np.take(vol, np.clip(idx + off, 0, w // 2 - 1), axis=-1)
    float(acc.sum())
    return time.perf_counter() - t


def run_loop(wl: Workload, seconds: float, min_pairs: int, tracer=None, reference=False) -> dict:
    """Closed loop: one pair at a time; with a tracer, even pairs are traced;
    with `reference`, reference_s() is timed right before and after each pair.

    A pair that returned counts as completed and is timed. A pair that
    raised or gave invalid outputs is a failure. A pair whose outputs are
    valid but miss a desk criterion bound (criterion 5 or 6) is a quality
    miss: listed and reported next to the failures, not counted in them.
    """
    from checks import cascade_stats, check_output, check_scores, score_pair

    dmax = wl.config.pipeline_dmax
    pairs, failures, misses = [], [], []
    aside_s = 0.0  # input generation and reference kernel: not loop time
    start = time.perf_counter()
    k = 0
    while k < min_pairs or time.perf_counter() - start < seconds:
        g = time.perf_counter()
        scene = wl.scene(k)
        entry = {"pair": k, "traced": tracer is not None and k % 2 == 0}
        if reference:
            ref = reference_s(wl.shape)
        aside_s += time.perf_counter() - g
        quality = False
        try:
            if entry["traced"]:
                tracer.pair = k
                tracer.install()
            try:
                disp, unc, out, entry["seconds"] = wl.run_pair(k, scene)
            finally:
                if entry["traced"]:
                    tracer.uninstall()
            problems = check_output(disp, unc, wl.shape, dmax)
            if not problems:
                entry["scores"] = score_pair(scene, disp, unc, out.stages[-1].planes)
                entry["stats"] = cascade_stats(out, wl.config.cascade_min_step)
                problems = check_scores(wl.name, k, entry["scores"])
                quality = True
        except Exception as exc:  # a pair that raises counts as failed and the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            (misses if quality else failures).append(
                {"pair": k, "scene_seed": scene.seed, "spec": scene.spec, "problems": problems}
            )
        if reference:
            # Bracket the pair: the kernel runs right before and after it.
            g = time.perf_counter()
            entry["ref_s"] = 0.5 * (ref + reference_s(wl.shape))
            aside_s += time.perf_counter() - g
        if "seconds" in entry:
            pairs.append(entry)
        k += 1
    return {
        "attempted": k,
        "pairs": pairs,
        "failures": failures,
        "misses": misses,
        "loop_s": time.perf_counter() - start - aside_s,
    }


def measure(wl: Workload, args) -> dict:
    loop = run_loop(wl, args.seconds, WORKLOADS[wl.name]["accuracy_pairs"], reference=True)
    times = [p["seconds"] for p in loop["pairs"]]
    refs = [p["ref_s"] for p in loop["pairs"]]
    first = [p["scores"] for p in loop["pairs"] if "scores" in p and p["pair"] < WORKLOADS[wl.name]["accuracy_pairs"]]
    accuracy = {key: _v(statistics.fmean(s[key] for s in first), unit) for key, unit in ACCURACY_UNITS.items()} if first else {}
    return {
        "attempted": loop["attempted"],
        "failures": loop["failures"],
        "misses": loop["misses"],
        "pair_s": times,
        "ref_s": refs,
        "pairs_per_s": len(times) / loop["loop_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "accuracy": accuracy,
    }


def _v(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def make_tracer():
    """Tracer whose hooks record output bytes, bytes written and workers."""
    from spans import Tracer

    from cfstereo.parallel import thread_count

    def out_bytes(args_, kwargs, result):
        return result.data.nbytes

    return Tracer(
        hooks={
            "cost_volume.build_dense_volume": out_bytes,
            "cost_volume.build_sparse_volume": out_bytes,
            "io_formats.write_pfm": lambda a, kw, r: os.path.getsize(a[0]),
            "parallel.run_rows": lambda a, kw, r: min(thread_count(), a[1]),
        }
    )


def trace(wl: Workload, args, tracer) -> dict:
    """Per-layer metrics: times from the traced loop pairs, memory peaks
    from the warm-up pair."""
    from spans import cascade_stages, self_times

    loop = run_loop(wl, args.seconds, 2, tracer)
    traced = [p for p in loop["pairs"] if p["traced"]]
    untraced = [p for p in loop["pairs"] if not p["traced"]]
    scored = [p for p in loop["pairs"] if "scores" in p]
    trace_path = Path(args.workdir) / "trace.json"
    tracer.write(trace_path)
    if not traced or not untraced or not scored:
        return {"attempted": loop["attempted"], "failures": loop["failures"], "misses": loop["misses"], "layers": {}}

    n = len(traced)
    ok_pairs = {p["pair"] for p in traced}
    spans = [s for s in tracer.spans if s["pair"] in ok_pairs]
    own = self_times(spans)
    self_s, extras = defaultdict(float), defaultdict(list)
    for s in spans:
        self_s[s["name"]] += own[s["id"]]
        if "extra" in s:
            extras[s["name"]].append(s["extra"])
    layers = {f"{name}.self_s": self_s[name] / n for name in SELF_S_LAYERS}
    layers["cascade.self_s"] = self_s["cascade.run_pipeline"] / n
    memory_spans = [s for s in tracer.spans if s["pair"] == -1]
    peak = defaultdict(int)
    for s in memory_spans:
        peak[s["name"]] = max(peak[s["name"]], s["peak_bytes"])
    layers["fusion.aggregate.peak_mb"] = peak["fusion.aggregate"] / 1e6
    layers["fusion.fuse_volumes.peak_mb"] = peak["fusion.fuse_volumes"] / 1e6
    layers["cost_volume.build_sparse_volume.out_mb"] = sum(extras["cost_volume.build_sparse_volume"]) / n / 1e6
    layers["cost_volume.build_dense_volume.out_mb"] = sum(extras["cost_volume.build_dense_volume"]) / n / 1e6
    layers["parallel.run_rows.calls"] = len(extras["parallel.run_rows"]) / n
    layers["parallel.workers"] = max(extras["parallel.run_rows"], default=0)

    groups = cascade_stages(spans)
    for stage in ("stage3", "stage2", "stage1", "output"):
        layers[f"cascade.{stage}.s"] = sum(s["end"] - s["start"] for s in groups[stage]) / n
    stage1 = cascade_stages(memory_spans)["stage1"]
    stage1_peak = max(s["_peak"] for s in stage1) - stage1[0]["base"] if stage1 else 0
    layers["cascade.stage1.peak_mb"] = stage1_peak / 1e6

    layers["cascade.coverage"] = statistics.fmean(p["scores"]["coverage"] for p in scored)
    for key in scored[0]["stats"]:
        layers[f"cascade.{key}"] = statistics.fmean(p["stats"][key] for p in scored)

    traced_p50 = statistics.median(p["seconds"] for p in traced)
    layers["trace.overhead"] = traced_p50 / statistics.median(p["seconds"] for p in untraced) - 1.0

    report = {}
    if wl.spec["via"] == "cli":
        report = {f"{label}.self_s": _v(self_s[name] / n, "s") for label, name in DESK_SELF_S_LAYERS.items()}
        report["io_formats.bytes_written"] = _v(sum(extras["io_formats.write_pfm"]) / n, "bytes")
    traced_total = sum(p["seconds"] for p in traced)
    named = sum(layers[f"{name}.self_s"] for name in SELF_S_LAYERS) + layers["cascade.self_s"]
    named += sum(m["value"] for key, m in report.items() if key.endswith(".self_s"))
    # Share of the traced pair time that the named self times (and all
    # spans' self times) account for.
    report["trace.named_share"] = _v(named / (traced_total / n), "ratio")
    report["trace.all_share"] = _v(sum(own.values()) / traced_total, "ratio")
    report["trace.pairs"] = _v(n, "count")
    report["trace.file"] = str(trace_path.relative_to(ROOT))
    return {
        "attempted": loop["attempted"],
        "failures": loop["failures"],
        "misses": loop["misses"],
        "layers": layers,
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    tracer = make_tracer() if args.mode == "trace" else None
    wl, result = setup(args, tracer)
    if args.mode == "measure":
        result.update(measure(wl, args))
    elif args.mode == "trace":
        result.update(trace(wl, args, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
