"""Command-line surface: match, eval, synth, rank.

Exit codes: 0 success, 1 usage error, 2 data error. Metric output goes to
stdout as `key=value` lines so runs are easy to script against.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .cascade import run_pipeline
from .config import RunConfig, format_config, load_config
from .errors import CfStereoError
from .io_formats import read_image, read_pfm, write_pfm, write_pgm
from .metrics import avg_error, bad_tau, check_threshold, d1_all, filtered_metrics
from .ranking import parse_ballots, schulze_rank
from .synth import random_dot_stereogram


def _warn_nonfinite(name: str, values: np.ndarray) -> None:
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        print(f"warning: {name} contains {bad} non-finite pixels", file=sys.stderr)


def _resolve(path: str) -> tuple[str, object]:
    """`path` resolved, and what makes it one file: for a path that exists,
    its device and inode, so a hard link matches too; else the resolved path."""
    real = os.path.realpath(path)
    try:
        st = os.stat(real)
    except OSError:
        return real, real
    return real, (st.st_dev, st.st_ino)


def _check_outputs(files, inputs, directory) -> None:
    """Refuse, before any input is read or any work done, output `files` that
    cannot all be written, so a bad location writes nothing, not even a
    directory. `files` and `inputs` are (flag, path) pairs; `directory`, the
    pair of the directory the command makes, or None. Refused: a file path
    that is a directory; a `directory` that exists and is not one; two paths,
    or a path and an input, that are one file (see `_resolve`); and a path
    beneath an input, another output file or any existing file."""
    if directory and os.path.lexists(directory[1]) and not os.path.isdir(directory[1]):
        raise CfStereoError(f"{directory[0]} is not a directory: {directory[1]}")
    for flag, path in files:
        if os.path.isdir(path):
            raise CfStereoError(f"{flag} is a directory: {path}")
    ins = [(flag, *_resolve(path)) for flag, path in inputs if path]
    outs = [(flag, *_resolve(path)) for flag, path in files]
    made = [(directory[0], *_resolve(directory[1]))] if directory else []
    # the inputs may share a file (a pair of one image), so they only seed the check
    seen = {key: flag for flag, _, key in ins}
    for flag, real, key in outs + made:
        if key in seen:
            raise CfStereoError(f"{seen[key]} and {flag} are the same file, {real}")
        seen[key] = flag
    # A file holds no path, so nothing may lie beneath an input, an output
    # file or any existing non-directory. The directory, checked first so
    # that a clash names it and not a file in it, is the one that may.
    held = {real: flag for flag, real, _ in ins + outs}
    for flag, real, _ in reversed(ins + outs + made):
        parent = os.path.dirname(real)
        while parent != os.path.dirname(parent):
            if parent in held:
                raise CfStereoError(f"{flag} lies beneath {held[parent]}, {parent}")
            if os.path.lexists(parent) and not os.path.isdir(parent):
                raise CfStereoError(f"{flag} lies beneath a file, {parent}")
            parent = os.path.dirname(parent)


def _cmd_match(args) -> int:
    files = [("--out-disp", args.out_disp), ("--out-unc", args.out_unc)]
    if args.dump_stages:
        names = [f"{kind}{scale}.pfm" for scale in (3, 2, 1) for kind in "DU"]
        files += [(f"--dump-stages {name}", os.path.join(args.dump_stages, name)) for name in names]
    echo = os.path.join(os.path.dirname(os.path.abspath(args.out_disp)), "config_echo.cfg")
    inputs = [("--left", args.left), ("--right", args.right), ("--config", args.config)]
    stages = ("--dump-stages", args.dump_stages) if args.dump_stages else None
    _check_outputs(files + [("the config echo beside --out-disp", echo)], inputs, stages)
    left, _ = read_image(args.left)
    right, _ = read_image(args.right)
    config = load_config(args.config) if args.config else RunConfig()
    out = run_pipeline(left, right, config)
    # stages come at scales 3, 2, 1, as the names do; zip stops at the files asked for
    maps = [out.disparity, out.uncertainty] + [m for s in out.stages for m in (s.disparity, s.uncertainty)]
    for (_, path), values in zip(files, maps):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        write_pfm(path, values)
    with open(echo, "w", encoding="ascii") as fh:
        fh.write(format_config(config))
    return 0


def _cmd_eval(args) -> int:
    # flag errors come before any file is read, and every file is read and
    # every metric computed before the first is printed
    if args.unc is not None and args.filter_sqrtu is None:
        raise CfStereoError("--unc requires --filter-sqrtu")
    if args.filter_sqrtu is not None:
        if args.unc is None:
            raise CfStereoError("--filter-sqrtu requires --unc")
        check_threshold(args.filter_sqrtu, "--filter-sqrtu")
    pred = read_pfm(args.pred)
    gt = read_pfm(args.gt)
    unc = None if args.unc is None else read_pfm(args.unc)
    _warn_nonfinite("prediction", pred)
    _warn_nonfinite("ground truth", gt)
    metrics = {
        "bad1.0": bad_tau(pred, gt, 1.0),
        "bad2.0": bad_tau(pred, gt, 2.0),
        "d1_all": d1_all(pred, gt),
        "avg_error": avg_error(pred, gt),
    }
    if unc is not None:
        _warn_nonfinite("uncertainty", unc)
        filt = filtered_metrics(pred, gt, unc, args.filter_sqrtu)
        metrics.update(kept_fraction=filt.kept_fraction, d1_kept=filt.d1_kept)
    for name, value in metrics.items():
        print(f"{name}={value:.6f}")
    return 0


def _cmd_synth(args) -> int:
    names = ("left.pgm", "right.pgm", "gt.pfm", "mask.pgm")
    left, right, gt, mask = paths = [os.path.join(args.out, name) for name in names]
    _check_outputs([(f"--out {name}", path) for name, path in zip(names, paths)], (), ("--out", args.out))
    scene = random_dot_stereogram(args.height, args.width, args.spec, args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_pgm(left, scene.left, maxval=65535)
    write_pgm(right, scene.right, maxval=65535)
    write_pfm(gt, scene.gt)
    write_pgm(mask, scene.valid.astype(float), maxval=255)
    return 0


def _cmd_rank(args) -> int:
    with open(args.ballots, "r", encoding="ascii") as fh:
        ballots = parse_ballots(fh.read())
    rank = 1
    for group in schulze_rank(ballots):
        for name in group:
            print(f"{rank} {name}")
        rank += len(group)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfstereo")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("match", help="estimate disparity for a rectified pair")
    m.add_argument("--left", required=True)
    m.add_argument("--right", required=True)
    m.add_argument("--config", default=None)
    m.add_argument("--out-disp", required=True)
    m.add_argument("--out-unc", required=True)
    m.add_argument("--dump-stages", default=None, metavar="DIR")
    m.set_defaults(func=_cmd_match)

    e = sub.add_parser("eval", help="score a disparity map against ground truth")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--unc", default=None)
    e.add_argument("--filter-sqrtu", type=float, default=None, metavar="T")
    e.set_defaults(func=_cmd_eval)

    s = sub.add_parser("synth", help="generate a random-dot stereo pair")
    s.add_argument("--spec", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True, metavar="DIR")
    s.add_argument("--height", type=int, default=128)
    s.add_argument("--width", type=int, default=256)
    s.set_defaults(func=_cmd_synth)

    r = sub.add_parser("rank", help="fuse ranked ballots into one order")
    r.add_argument("--ballots", required=True, metavar="FILE")
    r.set_defaults(func=_cmd_rank)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (CfStereoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))
