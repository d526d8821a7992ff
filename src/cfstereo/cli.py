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


def _match_outputs(args) -> str:
    """The config echo's path, once no file `match` writes (the disparity,
    the uncertainty, the echo and the six stage maps) is a directory, the
    `--dump-stages` path is a directory or new, no two of those files and
    that path resolve to one file or any to an input, and none lies beneath
    an input, another output file or an existing file: checked before any
    input is read, so a bad output location writes nothing, not even a
    directory."""
    echo_path = os.path.join(os.path.dirname(os.path.abspath(args.out_disp)), "config_echo.cfg")
    echo = "the config echo beside --out-disp"
    outputs = [("--out-disp", args.out_disp), ("--out-unc", args.out_unc), (echo, echo_path)]
    if args.dump_stages:
        for name in ("D3", "U3", "D2", "U2", "D1", "U1"):
            outputs.append((f"--dump-stages {name}.pfm", os.path.join(args.dump_stages, f"{name}.pfm")))
        if os.path.lexists(args.dump_stages) and not os.path.isdir(args.dump_stages):
            raise CfStereoError(f"--dump-stages is not a directory: {args.dump_stages}")
    for flag, path in outputs:
        if os.path.isdir(path):
            raise CfStereoError(f"{flag} is a directory: {path}")
    # the inputs may share a file (a pair of one image), so they only seed the check
    inputs = (("--left", args.left), ("--right", args.right), ("--config", args.config))
    seen = {os.path.realpath(path): flag for flag, path in inputs if path}
    # the stage directory is made after the other outputs are written
    for flag, path in outputs + ([("--dump-stages", args.dump_stages)] if args.dump_stages else []):
        real = os.path.realpath(path)
        if real in seen:
            raise CfStereoError(f"{seen[real]} and {flag} are the same file, {real}")
        seen[real] = flag
    # A file holds no path, so nothing may lie beneath an input, an output
    # file or any existing non-directory. --dump-stages, checked first so that
    # a clash names it and not a stage map in it, is the one directory.
    files = {real: flag for real, flag in seen.items() if flag != "--dump-stages"}
    for real, flag in reversed(seen.items()):
        parent = os.path.dirname(real)
        while parent != os.path.dirname(parent):
            if parent in files:
                raise CfStereoError(f"{flag} lies beneath {files[parent]}, {parent}")
            if os.path.lexists(parent) and not os.path.isdir(parent):
                raise CfStereoError(f"{flag} lies beneath a file, {parent}")
            parent = os.path.dirname(parent)
    return echo_path


def _cmd_match(args) -> int:
    echo_path = _match_outputs(args)
    left, _ = read_image(args.left)
    right, _ = read_image(args.right)
    config = load_config(args.config) if args.config else RunConfig()
    out = run_pipeline(left, right, config)
    for path in (args.out_disp, args.out_unc):
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
    write_pfm(args.out_disp, out.disparity)
    write_pfm(args.out_unc, out.uncertainty)
    with open(echo_path, "w", encoding="ascii") as fh:
        fh.write(format_config(config))
    if args.dump_stages:
        os.makedirs(args.dump_stages, exist_ok=True)
        for stage in out.stages:
            write_pfm(os.path.join(args.dump_stages, f"D{stage.scale}.pfm"), stage.disparity)
            write_pfm(os.path.join(args.dump_stages, f"U{stage.scale}.pfm"), stage.uncertainty)
    return 0


def _cmd_eval(args) -> int:
    # flag errors come before any file is read or any metric is printed
    if args.unc is not None and args.filter_sqrtu is None:
        raise CfStereoError("--unc requires --filter-sqrtu")
    if args.filter_sqrtu is not None:
        if args.unc is None:
            raise CfStereoError("--filter-sqrtu requires --unc")
        check_threshold(args.filter_sqrtu, "--filter-sqrtu")
    pred = read_pfm(args.pred)
    gt = read_pfm(args.gt)
    _warn_nonfinite("prediction", pred)
    _warn_nonfinite("ground truth", gt)
    print(f"bad1.0={bad_tau(pred, gt, 1.0):.6f}")
    print(f"bad2.0={bad_tau(pred, gt, 2.0):.6f}")
    print(f"d1_all={d1_all(pred, gt):.6f}")
    print(f"avg_error={avg_error(pred, gt):.6f}")
    if args.unc is not None:
        unc = read_pfm(args.unc)
        filt = filtered_metrics(pred, gt, unc, args.filter_sqrtu)
        print(f"kept_fraction={filt.kept_fraction:.6f}")
        print(f"d1_kept={filt.d1_kept:.6f}")
    return 0


def _cmd_synth(args) -> int:
    scene = random_dot_stereogram(args.height, args.width, args.spec, args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_pgm(os.path.join(args.out, "left.pgm"), scene.left, maxval=65535)
    write_pgm(os.path.join(args.out, "right.pgm"), scene.right, maxval=65535)
    write_pfm(os.path.join(args.out, "gt.pfm"), scene.gt)
    write_pgm(os.path.join(args.out, "mask.pgm"), scene.valid.astype(float), maxval=255)
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
