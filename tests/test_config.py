import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cfstereo.config import RangeParams, RunConfig, format_config, parse_config, validate_config
from cfstereo.errors import ConfigError


def test_defaults_roundtrip():
    cfg = RunConfig()
    assert parse_config(format_config(cfg)) == cfg


def test_overrides_roundtrip():
    text = """
# desk settings
pipeline.dmax = 64
cost.w_group = 12.0
fusion.smooth_radius = 0,2,2
cascade.alpha = 0.5,0.25
fusion.enabled = false
"""
    cfg = parse_config(text)
    assert cfg.pipeline_dmax == 64
    assert cfg.cost_w_group == 12.0
    assert cfg.fusion_smooth_radius == (0, 2, 2)
    assert cfg.cascade_alpha == (0.5, 0.25)
    assert cfg.fusion_enabled is False
    assert parse_config(format_config(cfg)) == cfg


def test_scalar_broadcast_for_tuples():
    cfg = parse_config("fusion.smooth_radius = 2\ncascade.beta = 1.5\n")
    assert cfg.fusion_smooth_radius == (2, 2, 2)
    assert cfg.cascade_beta == (1.5, 1.5)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("pipeline.dmaxx = 64\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("features.groups = 4\n")  # retired: grouping cannot change the cost
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("features.channels = 0\n")  # retired: a level holds its real channels


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("pipeline.dmax = 64\npipeline.dmax = 96\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("pipeline.dmax\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("pipeline.dmax = many\n")


@pytest.mark.parametrize(
    "line",
    [
        "pipeline.dmax = 48",  # not a multiple of 32
        "features.channels = 0",  # retired: now an unknown key
        "cascade.alpha = -2,-2",
        "cascade.min_step = 0",
        "fusion.passes = 0",
    ],
)
def test_validation_failures(line):
    with pytest.raises(ConfigError):
        parse_config(line + "\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "key", ["cost.w_group", "cost.w_absdiff", "cascade.alpha", "cascade.beta", "cascade.min_step"]
)
def test_nonfinite_floats_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(f"{key} = {value}\n")


@pytest.mark.parametrize(
    "line, change, message",
    [
        ("cascade.alpha = 0,-1.5", {"alpha": (0.0, -1.5)}, "cascade.alpha must be >= -1"),
        ("cascade.alpha = nan,0", {"alpha": (np.nan, 0.0)}, "cascade.alpha must be finite"),
        ("cascade.beta = -0.5", {"beta": (-0.5, -0.5)}, "cascade.beta must be >= 0"),
        ("cascade.beta = 0,inf", {"beta": (0.0, np.inf)}, "cascade.beta must be finite"),
        ("cascade.min_step = -1", {"min_step": -1.0}, "cascade.min_step must be > 0"),
        ("cascade.min_step = -inf", {"min_step": -np.inf}, "cascade.min_step must be finite"),
        ("cascade.n1 = 1", {"plane_counts": (16, 1)}, "cascade.n1 and cascade.n2 must be >= 2"),
        ("cascade.n2 = 0", {"plane_counts": (0, 12)}, "cascade.n1 and cascade.n2 must be >= 2"),
        ("cascade.n1 = 257", {"plane_counts": (16, 257)}, "cascade.n1 and cascade.n2 must be <= 256"),
        ("cascade.n2 = 257", {"plane_counts": (257, 12)}, "cascade.n1 and cascade.n2 must be <= 256"),
    ],
)
def test_window_rules_have_one_message(line, change, message):
    """The config and RangeParams reject a bad window value with the same text."""
    with pytest.raises(ConfigError) as from_config:
        parse_config(line + "\n")
    with pytest.raises(ValueError) as from_params:
        RangeParams(**change)
    assert str(from_config.value) == str(from_params.value) == message


def test_range_params_from_config():
    cfg = RunConfig(cascade_alpha=(0.5, 1.0), cascade_beta=(2.0, 3.0), cascade_n1=5, cascade_n2=7, cascade_min_step=0.125)
    assert RangeParams.from_config(cfg) == RangeParams((0.5, 1.0), (2.0, 3.0), 0.125, (7, 5))
    assert RangeParams.from_config(RunConfig()) == RangeParams()


def test_validate_direct():
    with pytest.raises(ConfigError, match="n1"):
        validate_config(RunConfig(cascade_n1=1))


def test_plane_counts_capped_at_256():
    cfg = replace(RunConfig(), cascade_n1=256, cascade_n2=256)
    assert RangeParams.from_config(cfg).plane_counts == (256, 256)
    for name in ("cascade_n1", "cascade_n2"):
        with pytest.raises(ConfigError, match=name.replace("_", ".")):
            replace(RunConfig(), **{name: 257})


# One valid non-default value per field; a new field must be added here.
NON_DEFAULT = {
    "features_census_radius": 2,
    "cost_w_group": 12.5,
    "cost_w_absdiff": 0.1,
    "pipeline_dmax": 96,
    "fusion_enabled": False,
    "fusion_smooth_radius": (0, 2, 3),
    "fusion_passes": 2,
    "cascade_alpha": (0.5, -0.25),
    "cascade_beta": (1.5, 0.125),
    "cascade_n1": 5,
    "cascade_n2": 7,
    "cascade_min_step": 0.3,
}

DEFAULT_TEXT = """\
features.census_radius = 1
cost.w_group = 0.8125
cost.w_absdiff = 0.8125
pipeline.dmax = 256
fusion.enabled = true
fusion.smooth_radius = 1,1,1
fusion.passes = 1
cascade.alpha = 0.0,0.0
cascade.beta = 0.0,0.0
cascade.n1 = 12
cascade.n2 = 16
cascade.min_step = 0.25
"""


def test_default_text_golden():
    assert format_config(RunConfig()) == DEFAULT_TEXT


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_each_field_roundtrips(name):
    cfg = replace(RunConfig(), **{name: NON_DEFAULT[name]})
    assert cfg != RunConfig()
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize(
    "name, value, message",
    [
        # a string is truthy, so "no" ran with fusion on and was echoed as false
        ("fusion_enabled", "no", "^fusion.enabled must be bool, got 'no'$"),
        ("fusion_enabled", 1, "^fusion.enabled must be bool, got 1$"),
        ("fusion_enabled", np.bool_(True), "^fusion.enabled must be bool"),
        # a list was echoed as [1, 1, 1], which parse_config rejects
        ("fusion_smooth_radius", [1, 1, 1], r"^fusion.smooth_radius must be tuple\[int, int, int\], got \[1, 1, 1\]$"),
        ("fusion_smooth_radius", (1, 1), r"^fusion.smooth_radius must be tuple\[int, int, int\], got \(1, 1\)$"),
        ("fusion_smooth_radius", (1, 1, 1.0), "^fusion.smooth_radius must be tuple"),
        ("cascade_alpha", (0.0, "0"), "^cascade.alpha must be tuple"),
        # these two failed only inside the run, at stage 1 and stage 3
        ("cascade_n1", 12.5, "^cascade.n1 must be int, got 12.5$"),
        ("pipeline_dmax", 64.0, "^pipeline.dmax must be int, got 64.0$"),
        ("fusion_passes", True, "^fusion.passes must be int, got True$"),
        ("cost_w_group", True, "^cost.w_group must be float, got True$"),
        ("cost_w_absdiff", "0.5", "^cost.w_absdiff must be float, got '0.5'$"),
        ("cascade_min_step", None, "^cascade.min_step must be float, got None$"),
    ],
)
def test_values_are_checked_against_their_annotation(name, value, message):
    with pytest.raises(ConfigError, match=message):
        replace(RunConfig(), **{name: value})


def test_numpy_numbers_pass_and_roundtrip():
    """Integral and real NumPy numbers have their keys' types, and the echo
    writes them as the Python numbers they equal, so it parses back."""
    cfg = replace(
        RunConfig(),
        pipeline_dmax=np.int64(96),
        cascade_n1=np.int32(5),
        cost_w_group=np.float64(0.3),
        cost_w_absdiff=np.float32(0.1),
        cascade_alpha=(1, np.float64(0.5)),
        fusion_smooth_radius=(np.int16(0), 2, 3),
    )
    text = format_config(cfg)
    assert "np." not in text
    assert parse_config(text) == cfg


def test_invalid_construction_rejected():
    with pytest.raises(ConfigError, match="^fusion.passes must be >= 1$"):
        RunConfig(fusion_passes=0)
    with pytest.raises(ConfigError, match="min_step"):
        replace(RunConfig(), cascade_min_step=0.0)


@pytest.mark.parametrize(
    "line, key",
    [
        ("features.census_radius = 4", "features.census_radius"),
        ("fusion.smooth_radius = 0,0,33", "fusion.smooth_radius"),
        ("fusion.smooth_radius = 1000000000", "fusion.smooth_radius"),
        ("fusion.passes = 17", "fusion.passes"),
    ],
)
def test_work_caps(line, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(line + "\n")


def test_values_at_caps_accepted():
    cfg = parse_config("features.census_radius = 3\nfusion.smooth_radius = 32\nfusion.passes = 16\n")
    assert cfg.features_census_radius == 3
    assert cfg.fusion_smooth_radius == (32, 32, 32)


def test_readme_lists_every_key():
    """The README table names every key once, with its RunConfig() default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    documented = {}
    for key_cell, default_cell in rows:
        keys = re.findall(r"`([^`]+)`", key_cell)
        defaults = default_cell.strip().split(" / ")
        assert len(keys) == len(defaults), key_cell
        documented.update(zip(keys, defaults))
    written = {line.split(" = ")[0] for line in format_config(RunConfig()).splitlines()}
    assert set(documented) == written
    for key, default in documented.items():
        name = key.replace(".", "_", 1)
        parsed = getattr(parse_config(f"{key} = {default}\n"), name)
        assert parsed == getattr(RunConfig(), name), f"README default of {key}: {default}"
