import os
import warnings

import numpy as np
import pytest

from cfstereo import cli, run_pipeline
from cfstereo.cli import cli_main
from cfstereo.config import load_config, parse_config
from cfstereo.errors import FormatError
from cfstereo.io_formats import read_image, read_pfm, read_pgm, write_pfm

DESK_CFG = """\
pipeline.dmax = 64
cost.w_group = 9.75
cost.w_absdiff = 9.75
fusion.smooth_radius = 0,2,2
cascade.beta = 0.5,0.25
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth scene plus a match run, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "desk.cfg"
    cfg.write_text(DESK_CFG)
    assert cli_main(["synth", "--spec", "constant:10", "--seed", "3", "--out", str(root / "scene"),
                     "--height", "64", "--width", "128"]) == 0
    assert cli_main([
        "match",
        "--left", str(root / "scene" / "left.pgm"),
        "--right", str(root / "scene" / "right.pgm"),
        "--config", str(cfg),
        "--out-disp", str(root / "out" / "disp.pfm"),
        "--out-unc", str(root / "out" / "unc.pfm"),
        "--dump-stages", str(root / "out" / "stages"),
    ]) == 0
    return root


def test_synth_outputs_exist(workdir):
    for name in ("left.pgm", "right.pgm", "gt.pfm", "mask.pgm"):
        assert (workdir / "scene" / name).exists()


def test_synth_nonfinite_disparity_is_data_error(tmp_path, capsys):
    # NaN passes both range checks, and would give a scene with no valid pixel
    out = tmp_path / "scene"
    assert cli_main(["synth", "--spec", "constant:nan", "--seed", "0", "--out", str(out),
                     "--height", "32", "--width", "64"]) == 2
    assert "disparity must be finite" in capsys.readouterr().err
    assert not (out / "gt.pfm").exists()


@pytest.mark.parametrize("count", ["inf", "1e400", "2.5"])
def test_synth_bad_slab_count_is_data_error(tmp_path, capsys, count):
    out = tmp_path / "scene"
    assert cli_main(["synth", "--spec", f"piecewise:0,10,{count}", "--seed", "0", "--out", str(out),
                     "--height", "32", "--width", "64"]) == 2
    assert "slab count must be a whole number from 1 to 64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("height", ["0", "-4"])
def test_synth_nonpositive_size_is_data_error(tmp_path, capsys, height):
    out = tmp_path / "scene"
    assert cli_main(["synth", "--spec", "constant:0", "--seed", "0", "--out", str(out),
                     "--height", height]) == 2
    assert f"image size {height}x256 must be positive" in capsys.readouterr().err
    assert not out.exists()


def tree(root):
    """Every path under `root`, with a file's bytes or None for the rest."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def not_called(*args, **kwargs):
    pytest.fail("ran before the output check")


def symlinked(root):
    (root / "o").mkdir()
    (root / "o" / "right.pgm").write_bytes(b"kept")
    (root / "o" / "left.pgm").symlink_to("right.pgm")


def hard_linked(root):
    (root / "o").mkdir()
    (root / "o" / "left.pgm").write_bytes(b"kept")
    os.link(root / "o" / "left.pgm", root / "o" / "right.pgm")


@pytest.mark.parametrize(
    "make, out, message",
    [
        pytest.param(
            lambda root: (root / "o" / "gt.pfm").mkdir(parents=True),
            "o",
            "--out gt.pfm is a directory: {tmp}/o/gt.pfm",
            id="gt-is-a-directory",
        ),
        pytest.param(
            lambda root: (root / "o").write_bytes(b"kept"), "o", "--out is not a directory: {tmp}/o", id="out-is-a-file"
        ),
        pytest.param(
            lambda root: (root / "f").write_bytes(b"kept"),
            "f/o",
            "--out lies beneath a file, {real}/f",
            id="out-beneath-a-file",
        ),
        pytest.param(
            symlinked, "o", "--out left.pgm and --out right.pgm are the same file, {real}/o/right.pgm", id="symlink"
        ),
        pytest.param(
            hard_linked, "o", "--out left.pgm and --out right.pgm are the same file, {real}/o/right.pgm", id="hard-link"
        ),
    ],
)
def test_synth_unusable_output_is_data_error(tmp_path, capsys, monkeypatch, make, out, message):
    """An output location `synth` cannot write all four files to is refused
    before the scene is made, naming the flag, and nothing is written."""
    monkeypatch.setattr(cli, "random_dot_stereogram", not_called)
    make(tmp_path)
    before = tree(tmp_path)
    assert cli_main(["synth", "--spec", "constant:4", "--seed", "0", "--out", str(tmp_path / out),
                     "--height", "16", "--width", "32"]) == 2
    assert message.format(tmp=tmp_path, real=tmp_path.resolve()) in capsys.readouterr().err
    assert tree(tmp_path) == before


def test_match_outputs_and_stage_dumps(workdir):
    assert read_pfm(workdir / "out" / "disp.pfm").shape == (64, 128)
    assert read_pfm(workdir / "out" / "unc.pfm").min() >= 0.0
    for scale in (1, 2, 3):
        assert (workdir / "out" / "stages" / f"D{scale}.pfm").exists()
        assert (workdir / "out" / "stages" / f"U{scale}.pfm").exists()


def test_stage_maps_hold_their_stages(workdir):
    """Each dumped map is the disparity (D) or uncertainty (U) of the stage
    its name's scale gives."""
    left, _ = read_image(workdir / "scene" / "left.pgm")
    right, _ = read_image(workdir / "scene" / "right.pgm")
    out = run_pipeline(left, right, load_config(workdir / "desk.cfg"))
    assert [stage.scale for stage in out.stages] == [3, 2, 1]
    for stage in out.stages:
        stages = workdir / "out" / "stages"
        np.testing.assert_array_equal(read_pfm(stages / f"D{stage.scale}.pfm"), stage.disparity.astype(np.float32))
        np.testing.assert_array_equal(read_pfm(stages / f"U{stage.scale}.pfm"), stage.uncertainty.astype(np.float32))


def test_config_echo_reparses_equal(workdir):
    echoed = load_config(workdir / "out" / "config_echo.cfg")
    assert echoed == parse_config(DESK_CFG)


def test_eval_prints_metric_lines(workdir, capsys):
    rc = cli_main([
        "eval",
        "--pred", str(workdir / "out" / "disp.pfm"),
        "--gt", str(workdir / "scene" / "gt.pfm"),
        "--unc", str(workdir / "out" / "unc.pfm"),
        "--filter-sqrtu", "2.5",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == ["bad1.0", "bad2.0", "d1_all", "avg_error", "kept_fraction", "d1_kept"]
    values = {line.split("=")[0]: float(line.split("=")[1]) for line in lines}
    assert 0.0 <= values["bad2.0"] <= 1.0
    assert values["d1_kept"] <= values["d1_all"] + 1e-9


def test_eval_warns_of_nonfinite_uncertainty(tmp_path, capsys):
    """A NaN uncertainty is still dropped by the filter, and is now said."""
    gt = np.full((8, 8), 4.0, dtype=np.float32)
    unc = np.ones((8, 8), dtype=np.float32)
    unc[:4] = np.nan
    write_pfm(tmp_path / "gt.pfm", gt)
    write_pfm(tmp_path / "unc.pfm", unc)
    rc = cli_main(["eval", "--pred", str(tmp_path / "gt.pfm"), "--gt", str(tmp_path / "gt.pfm"),
                   "--unc", str(tmp_path / "unc.pfm"), "--filter-sqrtu", "2.5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines() == [
        "bad1.0=0.000000", "bad2.0=0.000000", "d1_all=0.000000", "avg_error=0.000000",
        "kept_fraction=0.500000", "d1_kept=0.000000",
    ]
    assert "warning: uncertainty contains 32 non-finite pixels" in captured.err


@pytest.mark.parametrize(
    "unc, message",
    [
        pytest.param(None, "No such file or directory", id="missing"),
        pytest.param(np.ones((4, 8), np.float32), "uncertainty shape (4, 8) does not match (8, 8)", id="wrong-shape"),
        pytest.param(np.full((8, 8), -1.0, np.float32), "uncertainty must be non-negative", id="negative"),
    ],
)
def test_eval_failing_uncertainty_prints_no_metric(tmp_path, capsys, unc, message):
    """Every input is read and every metric computed before the first line
    is printed, so an eval that fails on `--unc` leaves stdout empty."""
    write_pfm(tmp_path / "gt.pfm", np.full((8, 8), 4.0, dtype=np.float32))
    if unc is not None:
        write_pfm(tmp_path / "unc.pfm", unc)
    rc = cli_main(["eval", "--pred", str(tmp_path / "gt.pfm"), "--gt", str(tmp_path / "gt.pfm"),
                   "--unc", str(tmp_path / "unc.pfm"), "--filter-sqrtu", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--unc", "UNC"], "--unc requires --filter-sqrtu", id="unc-alone"),
        pytest.param(["--filter-sqrtu", "2.5"], "--filter-sqrtu requires --unc", id="filter-alone"),
        pytest.param(["--unc", "UNC", "--filter-sqrtu", "nan"], "--filter-sqrtu must be a number > 0", id="nan"),
        pytest.param(["--unc", "UNC", "--filter-sqrtu", "-1"], "--filter-sqrtu must be a number > 0", id="negative"),
        pytest.param(["--unc", "UNC", "--filter-sqrtu", "0"], "--filter-sqrtu must be a number > 0", id="zero"),
    ],
)
def test_eval_flag_errors_come_before_output(workdir, capsys, flags, message):
    unc = str(workdir / "out" / "unc.pfm")
    rc = cli_main([
        "eval",
        "--pred", str(workdir / "out" / "disp.pfm"),
        "--gt", str(workdir / "scene" / "gt.pfm"),
        *[unc if flag == "UNC" else flag for flag in flags],
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


def test_match_is_byte_deterministic(workdir):
    out2 = workdir / "out2"
    rc = cli_main([
        "match",
        "--left", str(workdir / "scene" / "left.pgm"),
        "--right", str(workdir / "scene" / "right.pgm"),
        "--config", str(workdir / "desk.cfg"),
        "--out-disp", str(out2 / "disp.pfm"),
        "--out-unc", str(out2 / "unc.pfm"),
    ])
    assert rc == 0
    assert (out2 / "disp.pfm").read_bytes() == (workdir / "out" / "disp.pfm").read_bytes()
    assert (out2 / "unc.pfm").read_bytes() == (workdir / "out" / "unc.pfm").read_bytes()


def match_into(workdir, tmp_path, outputs):
    """`match` on the shared scene, with `outputs` as {flag: path under tmp_path}."""
    return cli_main([
        "match",
        "--left", str(workdir / "scene" / "left.pgm"),
        "--right", str(workdir / "scene" / "right.pgm"),
        "--config", str(workdir / "desk.cfg"),
        *[arg for flag, path in outputs.items() for arg in (flag, str(tmp_path / path))],
    ])


@pytest.mark.parametrize(
    "outputs, flags",
    [
        pytest.param({"--out-disp": "o/x.pfm", "--out-unc": "o/x.pfm"}, ("--out-disp", "--out-unc"), id="disp-is-unc"),
        pytest.param(
            {"--out-disp": "p/config_echo.cfg", "--out-unc": "p/u.pfm"},
            ("--out-disp", "the config echo beside --out-disp"),
            id="disp-is-echo",
        ),
        pytest.param(
            {"--out-disp": "o/d.pfm", "--out-unc": "o/stages/D1.pfm", "--dump-stages": "o/stages"},
            ("--out-unc", "--dump-stages D1.pfm"),
            id="unc-is-stage-map",
        ),
    ],
)
def test_match_outputs_that_are_one_file_are_data_error(workdir, tmp_path, capsys, outputs, flags):
    """Two outputs resolving to one file would leave only the last one
    written; the clash is named before any input is read, and nothing is
    written."""
    rc = match_into(workdir, tmp_path, outputs)
    assert rc == 2
    assert f"{flags[0]} and {flags[1]} are the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_match_output_that_is_an_input_is_data_error(workdir, tmp_path, capsys, monkeypatch):
    """An output on an input file would overwrite the image it was read from."""
    monkeypatch.setattr(cli, "read_image", not_called)
    left = tmp_path / "left.pgm"
    left.write_bytes((workdir / "scene" / "left.pgm").read_bytes())
    rc = cli_main([
        "match",
        "--left", str(left),
        "--right", str(workdir / "scene" / "right.pgm"),
        "--config", str(workdir / "desk.cfg"),
        "--out-disp", str(left),
        "--out-unc", str(tmp_path / "u.pfm"),
    ])
    assert rc == 2
    assert "--left and --out-disp are the same file" in capsys.readouterr().err
    assert left.read_bytes() == (workdir / "scene" / "left.pgm").read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["left.pgm"]


@pytest.mark.parametrize(
    "left, outputs, message",
    [
        pytest.param(
            "s/left.pgm",
            {"--out-disp": "s/hard.pgm", "--out-unc": "s/u.pfm"},
            "--left and --out-disp are the same file, {real}/s/hard.pgm",
            id="disp-is-left",
        ),
        pytest.param(
            None,
            {"--out-disp": "s/left.pgm", "--out-unc": "s/hard.pgm"},
            "--out-disp and --out-unc are the same file, {real}/s/hard.pgm",
            id="disp-is-unc",
        ),
    ],
)
def test_match_hard_linked_outputs_are_data_error(workdir, tmp_path, capsys, monkeypatch, left, outputs, message):
    """A hard link has its own path, so two paths that are one file are told
    apart by device and inode: refused before any input is read, and the
    linked file is left as it was."""
    monkeypatch.setattr(cli, "read_image", not_called)
    (tmp_path / "s").mkdir()
    (tmp_path / "s" / "left.pgm").write_bytes((workdir / "scene" / "left.pgm").read_bytes())
    os.link(tmp_path / "s" / "left.pgm", tmp_path / "s" / "hard.pgm")
    before = tree(tmp_path)
    rc = cli_main([
        "match",
        "--left", str(tmp_path / left if left else workdir / "scene" / "left.pgm"),
        "--right", str(workdir / "scene" / "right.pgm"),
        *[arg for flag, path in outputs.items() for arg in (flag, str(tmp_path / path))],
    ])
    assert rc == 2
    assert message.format(real=tmp_path.resolve()) in capsys.readouterr().err
    assert tree(tmp_path) == before


def test_match_output_that_is_a_directory_is_data_error(workdir, tmp_path, capsys):
    """An output path naming a directory is refused before anything is
    written, not after the disparity."""
    (tmp_path / "p" / "isdir").mkdir(parents=True)
    rc = match_into(workdir, tmp_path, {"--out-disp": "p/d.pfm", "--out-unc": "p/isdir"})
    assert rc == 2
    assert f"--out-unc is a directory: {tmp_path / 'p' / 'isdir'}" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "p").iterdir()] == ["isdir"]
    assert list((tmp_path / "p" / "isdir").iterdir()) == []


@pytest.mark.parametrize(
    "existing, message",
    [
        pytest.param(True, "--dump-stages is not a directory: {q}", id="existing-file"),
        pytest.param(False, "--out-disp and --dump-stages are the same file, {real}", id="is-out-disp"),
    ],
)
def test_match_stage_directory_that_is_a_file_is_data_error(workdir, tmp_path, capsys, existing, message):
    """A `--dump-stages` path that is a file, or the `--out-disp` file, is
    refused before anything is written, not after the disparity, the
    uncertainty and the echo."""
    (tmp_path / "q").mkdir()
    q = tmp_path / "q" / "d.pfm"
    if existing:
        q.write_bytes(b"kept")
    rc = match_into(workdir, tmp_path, {"--out-disp": "q/d.pfm", "--out-unc": "q/u.pfm", "--dump-stages": "q/d.pfm"})
    assert rc == 2
    assert message.format(q=q, real=q.resolve()) in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "q").iterdir()] == (["d.pfm"] if existing else [])
    if existing:
        assert q.read_bytes() == b"kept"


@pytest.mark.parametrize(
    "outputs, message",
    [
        pytest.param(
            {"--out-disp": "q/d.pfm", "--out-unc": "q/d.pfm/u.pfm"},
            "--out-unc lies beneath --out-disp, {tmp}/q/d.pfm",
            id="unc-in-disp",
        ),
        pytest.param(
            {"--out-disp": "r/d.pfm", "--out-unc": "r/u.pfm", "--dump-stages": "r/d.pfm/st"},
            "--dump-stages lies beneath --out-disp, {tmp}/r/d.pfm",
            id="stages-in-disp",
        ),
    ],
)
def test_match_output_beneath_another_output_is_data_error(workdir, tmp_path, capsys, outputs, message):
    """An output whose directory would be another output file is refused
    before anything is written, not after the pair has run, and no
    directory is made for it."""
    rc = match_into(workdir, tmp_path, outputs)
    assert rc == 2
    assert message.format(tmp=tmp_path.resolve()) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "beneath, message",
    [
        pytest.param("left.pgm", "--out-unc lies beneath --left, {tmp}/left.pgm", id="input"),
        pytest.param("notes.txt", "--out-unc lies beneath a file, {tmp}/notes.txt", id="other-file"),
    ],
)
def test_match_output_beneath_a_file_is_data_error(workdir, tmp_path, capsys, beneath, message):
    """An output beneath an input, or beneath any existing file, is refused
    before the `--out-disp` directory is made."""
    left = tmp_path / "left.pgm"
    left.write_bytes((workdir / "scene" / "left.pgm").read_bytes())
    (tmp_path / "notes.txt").write_bytes(b"kept")
    rc = cli_main([
        "match",
        "--left", str(left),
        "--right", str(workdir / "scene" / "right.pgm"),
        "--config", str(workdir / "desk.cfg"),
        "--out-disp", str(tmp_path / "o" / "d.pfm"),
        "--out-unc", str(tmp_path / beneath / "u.pfm"),
    ])
    assert rc == 2
    assert message.format(tmp=tmp_path.resolve()) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["left.pgm", "notes.txt"]


@pytest.mark.parametrize(
    "line", ["cascade.alpha = 1e308", "cascade.beta = 0,1e308", "cost.w_group = 1e38", "cost.w_absdiff = -1e38"]
)
def test_huge_config_value_is_data_error(workdir, tmp_path, capsys, line):
    """A value that would overflow partway through a run is refused up
    front: exit 2 naming the key, no output, and no RuntimeWarning."""
    key = line.split(" = ")[0]
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("".join(f"{row}\n" for row in DESK_CFG.splitlines() if not row.startswith(key)) + line + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli_main([
            "match",
            "--left", str(workdir / "scene" / "left.pgm"),
            "--right", str(workdir / "scene" / "right.pgm"),
            "--config", str(cfg),
            "--out-disp", str(tmp_path / "out" / "d.pfm"),
            "--out-unc", str(tmp_path / "out" / "u.pfm"),
        ])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{key} must be" in err and "RuntimeWarning" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert [p.name for p in tmp_path.iterdir()] == ["huge.cfg"]


def test_rank_subcommand(tmp_path, capsys):
    ballots = tmp_path / "ballots.txt"
    ballots.write_text(
        "NLCANet, CFNet, CVANet, GANet, AANet, HSMNet\n"
        "HSMNet, CFNet, NLCANet, CVANet, AANet, GANet\n"
        "CFNet, NLCANet, HSMNet, CVANet, AANet, GANet\n"
    )
    assert cli_main(["rank", "--ballots", str(ballots)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "1 CFNet",
        "2 NLCANet",
        "3 HSMNet",
        "4 CVANet",
        "5 AANet",
        "6 GANet",
    ]


@pytest.mark.parametrize("text", [",\n", "A,B\n,\n"])
def test_rank_ballot_naming_no_method_is_data_error(tmp_path, capsys, text):
    ballots = tmp_path / "ballots.txt"
    ballots.write_text(text)
    assert cli_main(["rank", "--ballots", str(ballots)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "names no method" in captured.err


def test_missing_file_is_data_error(tmp_path, capsys):
    rc = cli_main(["eval", "--pred", str(tmp_path / "no.pfm"), "--gt", str(tmp_path / "no.pfm")])
    assert rc == 2


def test_oversized_image_header_is_data_error(tmp_path, capsys):
    huge = tmp_path / "huge.pfm"
    huge.write_bytes(b"Pf\n1000000 1000000\n-1.0\n" + b"\x00" * 16)
    assert cli_main(["eval", "--pred", str(huge), "--gt", str(huge)]) == 2
    assert "truncated payload" in capsys.readouterr().err


def test_out_of_memory_is_data_error(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(cli, "read_pfm", exhausted)
    assert cli_main(["eval", "--pred", str(tmp_path / "p.pfm"), "--gt", str(tmp_path / "g.pfm")]) == 2
    assert "out of memory" in capsys.readouterr().err


def test_usage_error(capsys):
    assert cli_main([]) == 1
    assert cli_main(["match", "--left", "x"]) == 1


def match_with_config(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    scene = tmp_path / "s"
    assert cli_main(["synth", "--spec", "constant:4", "--seed", "0", "--out", str(scene),
                     "--height", "32", "--width", "64"]) == 0
    return cli_main([
        "match",
        "--left", str(scene / "left.pgm"),
        "--right", str(scene / "right.pgm"),
        "--config", str(cfg),
        "--out-disp", str(tmp_path / "d.pfm"),
        "--out-unc", str(tmp_path / "u.pfm"),
    ])


def test_bad_config_is_data_error(tmp_path, capsys):
    assert match_with_config(tmp_path, "mystery.key = 1\n") == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["features.stat_radius = 2", "fusion.hourglass_passes = 1"])
def test_retired_config_keys_are_data_error(tmp_path, capsys, line):
    # the stat box radius and the single hourglass pass are fixed, not keys
    assert match_with_config(tmp_path, line + "\n") == 2
    assert "unknown config key" in capsys.readouterr().err


def test_nonfinite_config_value_is_data_error(tmp_path, capsys):
    assert match_with_config(tmp_path, "cost.w_group = nan\n") == 2
    assert "cost.w_group" in capsys.readouterr().err


def test_runaway_smoothing_config_is_data_error(tmp_path, capsys):
    # smoothing work is linear in the radius; uncapped, this would run for months
    assert match_with_config(tmp_path, "fusion.smooth_radius = 0,1000000000,1000000000\n") == 2
    assert "fusion.smooth_radius" in capsys.readouterr().err


def test_wide_census_config_is_data_error(tmp_path, capsys):
    # the census radius alone sets the feature channel count, (2r+1)^2 + 4
    assert match_with_config(tmp_path, "features.census_radius = 4\n") == 2
    assert "features.census_radius" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["cascade.n1", "cascade.n2"])
def test_plane_count_past_the_cap_is_data_error(tmp_path, capsys, key):
    # sparse volumes grow with the plane count; uncapped, 100000 planes ran out of memory
    assert match_with_config(tmp_path, f"{key} = 257\n") == 2
    assert "cascade.n1 and cascade.n2 must be <= 256" in capsys.readouterr().err


def test_image_too_small_for_the_pyramid_is_data_error(tmp_path, capsys):
    # 32 rows leave one row at scale 5, where np.gradient cannot run
    assert match_with_config(tmp_path, DESK_CFG) == 2
    err = capsys.readouterr().err
    assert "features: image dims (32, 64)" in err and "at least 64" in err
    assert "numerical gradient" not in err


@pytest.mark.parametrize("magic, reader", [(b"P2", read_pgm), (b"P3", read_image)])
def test_ascii_image_gets_the_readers_guidance(tmp_path, capsys, magic, reader):
    image = tmp_path / "ascii.pnm"
    image.write_bytes(magic + b"\n1 1\n255\n0 0 0\n")
    with pytest.raises(FormatError, match="convert to binary") as direct:
        reader(image)
    rc = cli_main([
        "match", "--left", str(image), "--right", str(image),
        "--out-disp", str(tmp_path / "d.pfm"), "--out-unc", str(tmp_path / "u.pfm"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"error: {direct.value}"
